"""Property tests of factoring over a split curve's factor base.

A target built from the factors of p, q and p - q times extra factors
must factor over the base exactly as poly_factor factors it whole, and as
sympy's factor_list does when sympy is installed.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ellbrauer.elliptic import (  # noqa: E402
    WeierstrassCurve,
    base_factors,
    factor_base,
)
from ellbrauer.exactalg import Polynomial, RationalFunction, poly_factor  # noqa: E402

small = st.integers(min_value=-6, max_value=6)
# Degree 1 and 2 factors with small coefficients: reducible quadratics,
# squares and shared factors all turn up, and every factorization is fast.
factors = st.builds(
    Polynomial, st.lists(small, min_size=2, max_size=3).filter(lambda cs: cs[-1] != 0)
)
constants = st.integers(min_value=-12, max_value=12).filter(bool)


def _product(const, polys) -> Polynomial:
    out = Polynomial.constant(const)
    for f in polys:
        out = out * f
    return out


@st.composite
def curves_and_targets(draw):
    """A split curve with distinct 0, p, q, and a target over its base."""
    p = _product(draw(constants), draw(st.lists(factors, min_size=1, max_size=2)))
    q = _product(draw(constants), draw(st.lists(factors, max_size=2)))
    hypothesis.assume(p != q)
    curve = WeierstrassCurve.from_split(p, q)
    bases = list(factor_base(curve))
    parts = []
    for _ in range(2):  # numerator, denominator
        powers = draw(
            st.lists(st.integers(0, 2), min_size=len(bases), max_size=len(bases))
        )
        known = [base for base, e in zip(bases, powers) for _ in range(e)]
        extra = draw(st.lists(factors, max_size=2))
        # poly_factor of the whole target is the slow side: keep its
        # search for factors of degree 2 and up small.
        searched = sum(f.degree for f in set(known + extra) if f.degree > 1)
        hypothesis.assume(searched <= 6)
        parts.append(_product(draw(constants), known + extra))
    return curve, RationalFunction(*parts)


@settings(deadline=None, max_examples=40)
@given(curves_and_targets())
def test_factors_over_the_base_are_poly_factor(drawn):
    curve, target = drawn
    assert base_factors(curve, target) == (
        poly_factor(target.num),
        poly_factor(target.den),
    )


def _sympy_factors(poly: Polynomial, sympy) -> list:
    """Sorted (monic coefficients from the constant up, exponent) pairs."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in poly.coeffs]
    whole = sympy.Poly(coeffs[::-1], sympy.Symbol("t"), domain="QQ")
    found = []
    for base, e in whole.factor_list()[1]:
        monic = base.monic().all_coeffs()[::-1]
        found.append((tuple(Fraction(int(c.p), int(c.q)) for c in monic), e))
    return sorted(found, key=lambda fe: (len(fe[0]), fe[0]))


def test_factors_over_the_base_match_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(deadline=None, max_examples=25)
    @given(curves_and_targets())
    def check(drawn):
        curve, target = drawn
        for poly, fac in zip((target.num, target.den), base_factors(curve, target)):
            assert fac.unit == poly.leading()
            assert [(base.coeffs, e) for base, e in fac.factors] == _sympy_factors(
                poly, sympy
            )

    check()
