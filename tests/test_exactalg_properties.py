"""Property tests of exactalg against references kept here.

Evaluation against a Fraction Horner loop, poly_gcd against the Fraction
Euclid loop it replaced, rational roots against the divisor search of the
end coefficients that p-adic lifting replaced, and poly_factor against
sympy's factor_list when sympy is installed.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ellbrauer.exactalg import (  # noqa: E402
    ONE,
    Polynomial,
    _lifted_roots,
    poly_factor,
    poly_gcd,
)


def horner_reference(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


rationals = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(), st.integers(min_value=1, max_value=10**60)),
)
points = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
    ),
)


@settings(deadline=None)
@given(st.lists(rationals, max_size=12), points)
def test_call_matches_fraction_horner(coeffs, x):
    value = Polynomial(coeffs)(x)
    assert isinstance(value, Fraction)
    assert value == horner_reference(coeffs, Fraction(x))


@given(points)
def test_zero_polynomial_is_zero_everywhere(x):
    assert Polynomial()(x) == 0
    assert Polynomial([0, 0])(x) == 0


def euclid_gcd_reference(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by Euclid's algorithm over Fractions."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if f else f


def divisor_roots_reference(f: Polynomial) -> set[Fraction]:
    """Rational roots of a nonzero f among +-a/b, a and b dividing its end
    coefficients (0 apart)."""
    ns = primitive_model(f)
    roots = {Fraction(0)} if ns[0] == 0 else set()
    while ns[0] == 0:
        ns = ns[1:]
    divisors = [
        [d for d in range(1, abs(n) + 1) if n % d == 0] for n in (ns[0], ns[-1])
    ]
    for a in divisors[0]:
        for b in divisors[1]:
            roots.update(r for r in (Fraction(a, b), Fraction(-a, b)) if f(r) == 0)
    return roots


def primitive_model(f: Polynomial) -> list[int]:
    den = lcm(*(c.denominator for c in f.coeffs))
    ns = [int(c * den) for c in f.coeffs]
    content = gcd(*ns) if ns[-1] > 0 else -gcd(*ns)
    return [n // content for n in ns]


def _product(factors) -> Polynomial:
    out = ONE
    for f in factors:
        out = out * f
    return out


small_rationals = st.builds(
    Fraction, st.integers(min_value=-20, max_value=20), st.integers(1, 6)
)
small_polys = st.builds(Polynomial, st.lists(small_rationals, max_size=5))


@settings(deadline=None)
@given(small_polys, small_polys, small_polys)
def test_gcd_matches_fraction_euclid(f, g, h):
    # a common factor h makes most gcds nontrivial
    for a, b in ((f * h, g * h), (f, g), (f * h, h)):
        assert poly_gcd(a, b) == euclid_gcd_reference(a, b)


# Products of linear factors b t - a with small a and b and a cofactor
# with small end coefficients, so the divisor search stays fast.
linear_factors = st.builds(
    lambda a, b: Polynomial([-a, b]),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
cofactors = st.builds(
    Polynomial,
    st.lists(st.integers(min_value=-5, max_value=5), max_size=4).filter(
        lambda cs: not cs or cs[-1]
    ),
)


@settings(deadline=None)
@given(st.lists(linear_factors, max_size=4), cofactors)
def test_rational_roots_match_the_divisor_search(linear, cofactor):
    f = _product(linear) * cofactor
    hypothesis.assume(f.degree >= 1)
    expected = divisor_roots_reference(f)
    found = {-base.coeff(0) for base, _ in poly_factor(f).factors if base.degree == 1}
    assert found == expected
    if f.degree >= 2 and poly_gcd(f, f.derivative()) == ONE:
        candidates = _lifted_roots(primitive_model(f))
        assert expected <= set(candidates)
        assert len(candidates) <= f.degree


BIG_PRIMES = [999999937, 1000000007, 1000000009, 2147483647, 9999999967]
end_coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.builds(
        lambda p, s: s * p, st.sampled_from(BIG_PRIMES), st.sampled_from([1, -1])
    ),
)


@st.composite
def large_end_products(draw):
    """Linear factors and at most one of degree 2 or 3, with end coefficients
    that are small or 9-10 digit primes.  What has no rational root then has
    degree at most 3, so the Kronecker split never runs."""
    factors = []
    degrees = [1] * draw(st.integers(0, 3))
    degrees += draw(st.lists(st.sampled_from([2, 3]), max_size=1))
    for degree in degrees:
        middle = [draw(st.integers(-9, 9)) for _ in range(degree - 1)]
        # t itself is a linear factor too
        low = end_coefficients
        if degree == 1:
            low = st.one_of(st.just(0), low)
        base = Polynomial([draw(low), *middle, draw(end_coefficients)])
        factors.extend([base] * draw(st.integers(1, 2)))
    hypothesis.assume(factors)
    return _product(factors) * draw(end_coefficients)


def test_factors_with_large_end_coefficients_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    @settings(deadline=None, max_examples=60)
    @given(large_end_products())
    def check(f):
        expr = sum(int(c) * t**i for i, c in enumerate(f.coeffs))
        unit, expected = sympy.factor_list(expr, t)
        bases = {}
        for base, e in expected:
            coeffs = sympy.Poly(base, t).all_coeffs()[::-1]
            monic = Polynomial([Fraction(str(c)) for c in coeffs]).monic()
            bases[monic] = bases.get(monic, 0) + e
        fac = poly_factor(f)
        assert fac.unit == f.leading()
        assert dict(fac.factors) == bases
        assert len(fac.factors) == len(bases)

    check()
