"""Property tests of exactalg against references kept here.

Evaluation against a Fraction Horner loop, poly_gcd against the Fraction
Euclid loop it replaced, rational roots against the divisor search of the
end coefficients that p-adic lifting replaced, poly_factor against
sympy's factor_list when sympy is installed, and its multiplicities
against valuations, rational function arithmetic against Fraction
arithmetic at sample points, and the hash against equality across ints,
Fractions, polynomials and rational functions, and across the routes that
build a polynomial (a non-constant one hashes its integer model).
"""

from fractions import Fraction
from math import gcd, lcm

import operator
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ellbrauer.exactalg import (  # noqa: E402
    ONE,
    Polynomial,
    RationalFunction,
    T,
    _integer_model,
    _lifted_roots,
    factor_over,
    poly_factor,
    poly_gcd,
)
from ellbrauer.funcfield import Place, valuation  # noqa: E402


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
        assert expected <= {Fraction(-a, b) for a, b in candidates}
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


def _sympy_factors(f: Polynomial, sympy) -> tuple[Fraction, dict]:
    """sympy's factor_list of f as the leading coefficient and a dict from
    monic bases to exponents."""
    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t**i
        for i, c in enumerate(f.coeffs)
    )
    unit, expected = sympy.factor_list(expr, t)
    lead, bases = Fraction(str(unit)), {}
    for base, e in expected:
        coeffs = sympy.Poly(base, t).all_coeffs()[::-1]
        prim = Polynomial([Fraction(str(c)) for c in coeffs])
        lead *= prim.leading() ** e
        bases[prim.monic()] = bases.get(prim.monic(), 0) + e
    return lead, bases


def test_factors_with_large_end_coefficients_match_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(deadline=None, max_examples=60)
    @given(large_end_products())
    def check(f):
        lead, bases = _sympy_factors(f, sympy)
        fac = poly_factor(f)
        assert fac.unit == f.leading() == lead
        assert dict(fac.factors) == bases
        assert len(fac.factors) == len(bases)

    check()


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def repeated_products(draw):
    """(f, parts): f is content * prod(base^e) over the parts (base, e).

    The bases have rational coefficients and multiplicities 1 to 4: linear
    ones, and at most one of degree 2 or 3, so that what has no rational
    root has degree at most 3 and the Kronecker split never runs.  The
    content is a rational number, seldom a unit.
    """
    degrees = [1] * draw(st.integers(0, 3))
    degrees += draw(st.lists(st.sampled_from([2, 3]), max_size=1))
    parts = []
    for degree in degrees:
        lead = draw(small_fractions.filter(bool))
        base = Polynomial([draw(small_fractions) for _ in range(degree)] + [lead])
        parts.append((base, draw(st.integers(1, 4))))
    hypothesis.assume(parts)
    content = draw(
        st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 7))
    )
    return _product(base**e for base, e in parts) * content, parts


def test_repeated_factors_match_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(deadline=None, max_examples=80)
    @given(repeated_products())
    def check(drawn):
        f, _ = drawn
        lead, bases = _sympy_factors(f, sympy)
        fac = poly_factor(f)
        assert fac.unit == lead
        assert dict(fac.factors) == bases
        assert len(fac.factors) == len(bases)

    check()


@settings(deadline=None, max_examples=80)
@given(repeated_products())
def test_multiplicities_are_valuations(drawn):
    # The exponents come from gcd(H, H'); the valuations from deflating f
    # by each base, a second route to the same numbers.
    f, _ = drawn
    for base, e in poly_factor(f).factors:
        assert valuation(Place(base), f) == e


@settings(deadline=None, max_examples=80)
@given(repeated_products())
def test_factors_keep_the_models_they_would_build(drawn):
    # A base built from integers keeps its integer model from the start;
    # deflate_at, valuations and residues read it, so it must be the one
    # that the Fractions of the base give.
    f, parts = drawn
    known = [base for base, _ in poly_factor(parts[0][0]).factors]
    bases = [
        base
        for fac in (poly_factor(f), factor_over(f * (2 * T + 7), known))
        for base, _ in fac.factors
    ]
    for h in bases + [poly_gcd(f, f.derivative())]:
        assert h.leading() == 1
        assert _integer_model(h) == _integer_model(Polynomial(h.coeffs))


# Elements of Q(t) of small height, so that equal ones turn up often.
tiny_polys = st.builds(
    Polynomial,
    st.lists(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)), max_size=3),
)
nonzero_tiny_polys = tiny_polys.filter(bool)


@st.composite
def q_t_elements(draw):
    """One element of Q(t) in one of the forms that compare equal to it.

    The form is an int or a Fraction for a constant, a Polynomial for a
    polynomial, and a RationalFunction always, built as (f h) / (g h) with
    a cancelling factor h.
    """
    f, g = draw(tiny_polys), draw(st.one_of(st.just(ONE), nonzero_tiny_polys))
    value = RationalFunction(f, g)
    forms = [value, RationalFunction(f * (T + 1), g * (T + 1))]
    if value.den == ONE:
        forms.append(value.num)
        if value.num.is_constant():
            c = value.num.as_constant()
            forms.append(c)
            if c.denominator == 1:
                forms.append(int(c))
    return draw(st.sampled_from(forms))


def test_constants_hash_as_their_scalars():
    assert 3 in {Polynomial((3,))}
    assert Fraction(-1, 2) in {RationalFunction(Fraction(-1, 2))}
    assert RationalFunction(3) in {Polynomial((3,))}
    assert hash(Polynomial()) == hash(RationalFunction(0)) == 0


@settings(deadline=None, max_examples=300)
@given(st.lists(q_t_elements(), min_size=2, max_size=4))
def test_equal_elements_hash_alike(elements):
    for a, b in combinations(elements, 2):
        if a == b:
            assert hash(a) == hash(b), (a, b)
        assert (a == b) == (b == a)


@st.composite
def built_alike(draw):
    """A polynomial f, and polynomials equal to it by the routes that build
    one: from ints, from Fractions, by + and -, by monic(), and as one of
    poly_factor's bases, which come with their integer models."""
    f, h = draw(tiny_polys), draw(tiny_polys)
    if f.degree > 0 and draw(st.booleans()):
        f = f.monic()
    forms = [Polynomial(f.coeffs), (f + h) - h, h - (h - f), 1 - (1 - f), f - 0]
    if all(c.denominator == 1 for c in f.coeffs):
        forms.append(Polynomial([int(c) for c in f.coeffs]))
    if f.degree > 0 and f.leading() == 1:
        forms.append((f * draw(st.sampled_from([-2, Fraction(3, 5)]))).monic())
        factors = poly_factor(f * (T**2 + 1)).factors
        forms += [base for base, _ in factors if base == f]
    return f, forms


@settings(deadline=None, max_examples=300)
@given(built_alike())
def test_polynomials_built_alike_hash_alike(drawn):
    f, forms = drawn
    for form in forms:
        assert form == f and hash(form) == hash(f), (f, form)
    if f.is_constant():
        assert hash(f) == hash(f.as_constant())
    # A unit denominator, given or left by cancelling h, hashes as the numerator.
    for h in (ONE, T - 3, T**2 + T + 1):
        value = RationalFunction(f * h, h)
        assert value.den == ONE and hash(value) == hash(f)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(-4, 4)), min_size=1, max_size=3))
def test_factor_bases_hash_as_their_fraction_forms(linears):
    # poly_factor's bases are built from their primitive integer models;
    # the same polynomials from Fractions must land in the same hash slots.
    f = _product([Polynomial([-b, a]) for a, b in linears] + [T**2 + 2])
    bases = {base for base, _ in poly_factor(f).factors}
    expected = {Polynomial([Fraction(-b, a), 1]) for a, b in linears} | {T**2 + 2}
    assert bases == expected


# Monic denominators with no root among the sample points below: products
# of t - (2r + 1)/7 with |2r + 1| < 7, plus 1/3 or not (a shift that leaves
# no root of denominator 1 or 2).
denominators = st.builds(
    lambda roots, shift: _product(T - Fraction(2 * r + 1, 7) for r in roots) + shift,
    st.lists(st.integers(-3, 2), min_size=1, max_size=2),
    st.sampled_from([0, 0, Fraction(1, 3)]),
)
numerators = st.builds(Polynomial, st.lists(st.integers(-4, 4), max_size=4))
OPERATIONS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}
SAMPLE_POINTS = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]


@st.composite
def operand_pairs(draw):
    """Two rational functions whose denominators are both 1, equal and not
    1, or different."""
    case = draw(st.sampled_from(["unit", "equal", "different"]))
    d1 = ONE if case == "unit" else draw(denominators)
    d2 = d1 if case != "different" else draw(denominators)
    a = RationalFunction(draw(numerators), d1)
    b = RationalFunction(draw(numerators), d2)
    if case == "equal":
        hypothesis.assume(a.den == b.den != ONE)
    return case, a, b


def _is_reduced(r: RationalFunction) -> bool:
    return r.den.leading() == 1 and (
        r.den == ONE if r.num.is_zero() else poly_gcd(r.num, r.den) == ONE
    )


@settings(deadline=None, max_examples=200)
@given(operand_pairs(), st.sampled_from(sorted(OPERATIONS)))
def test_rational_function_arithmetic_matches_fractions(pair, op):
    case, a, b = pair
    if op == "/":
        hypothesis.assume(not b.is_zero())
    result = OPERATIONS[op](a, b)
    assert _is_reduced(result)
    if case == "unit" and op != "/":
        assert result.den == ONE
    checked = 0
    for x in SAMPLE_POINTS:
        if op == "/" and b.num(x) == 0:
            continue
        assert result(x) == OPERATIONS[op](a(x), b(x)), (a, op, b, x)
        checked += 1
    # more points than the degrees of the result, so the values fix it
    assert checked > max(result.num.degree, result.den.degree)
