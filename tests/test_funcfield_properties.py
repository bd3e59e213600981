"""Property tests of valuations and residues at finite places.

The oracles are the Fraction paths that computed them before the integer
kernel: divide by pi while the remainder vanishes, then either reduce the
unit parts mod pi and invert the denominator by the extended gcd, or, at
a rational place t - a, evaluate the deflated numerator and denominator
at a.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ellbrauer.brauer import BaseChange  # noqa: E402
from ellbrauer.exactalg import (  # noqa: E402
    Polynomial,
    RationalFunction,
    T,
    poly_extended_gcd,
)
from ellbrauer.funcfield import Place, residue, valuation  # noqa: E402


def multiplicity_reference(pi, poly):
    e = 0
    while True:
        q, r = divmod(poly, pi)
        if not r.is_zero():
            return e
        poly, e = q, e + 1


def reduced_unit_reference(pi, f):
    vn = multiplicity_reference(pi, f.num)
    vd = multiplicity_reference(pi, f.den)
    nbar = (f.num // pi**vn) % pi
    dbar = (f.den // pi**vd) % pi
    _, inv, _ = poly_extended_gcd(dbar, pi)
    return vn - vd, (nbar * inv) % pi


def unit_part_reference(pi, f):
    v, reduced = reduced_unit_reference(pi, f)
    return v, reduced.as_constant()


def called(place, f):
    """(v, residue) from funcfield.residue, with its thunk called."""
    v, thunk = residue(place, f)
    return v, thunk()


def divide_out_reference(lin, poly):
    """(v, w) with poly = lin^v * w and lin not dividing w, by divmod."""
    v = 0
    while True:
        q, r = divmod(poly, lin)
        if not r.is_zero():
            return v, poly
        poly, v = q, v + 1


def horner_reference(poly, x):
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


nonzero_ints = st.integers(min_value=-(10**6), max_value=10**6).filter(bool)
roots = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-50, max_value=50).map(Fraction),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
)
coefficients = st.one_of(
    st.integers(min_value=-(10**4), max_value=10**4).map(Fraction),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)
polys = st.lists(coefficients, min_size=1, max_size=5).map(Polynomial).filter(bool)


@st.composite
def functions_at_rational_place(draw):
    """(a, e, g, h, f) with f = c (t - a)^e g / h and |e| <= 6."""
    a = draw(roots)
    k = draw(st.integers(min_value=0, max_value=6))
    c = Fraction(draw(nonzero_ints), draw(st.integers(1, 10**6)))
    g, h = draw(polys), draw(polys)
    e = k if draw(st.booleans()) else -k
    f = c * RationalFunction(T - a) ** e * RationalFunction(g, h)
    return a, e, g, h, f


@settings(deadline=None)
@given(functions_at_rational_place())
def test_matches_fraction_division_loop(case):
    a, _, _, _, f = case
    place = Place.at_rational(a)
    v, expected = unit_part_reference(place.pi, f)
    assert valuation(place, f) == v
    assert called(place, f) == (v, expected)


@settings(deadline=None)
@given(functions_at_rational_place())
def test_residue_is_value_of_unit_part(case):
    a, _, _, _, f = case
    place = Place.at_rational(a)
    v, got = called(place, f)
    unit = f * RationalFunction(T - a) ** (-v)
    value = horner_reference(unit.num, a) / horner_reference(unit.den, a)
    assert value != 0
    assert isinstance(got, Fraction) and got == value


@settings(deadline=None)
@given(functions_at_rational_place())
def test_unit_part_is_value_of_deflated_quotients(case):
    a, _, _, _, f = case
    place = Place.at_rational(a)
    vn, wn = divide_out_reference(T - a, f.num)
    vd, wd = divide_out_reference(T - a, f.den)
    expected = horner_reference(wn, a) / horner_reference(wd, a)
    assert called(place, f) == (vn - vd, expected)


@settings(deadline=None)
@given(functions_at_rational_place())
def test_valuation_adds_the_drawn_power(case):
    a, e, g, h, f = case
    lin = T - a
    expected = e + multiplicity_reference(lin, g) - multiplicity_reference(lin, h)
    assert valuation(Place.at_rational(a), f) == expected


@st.composite
def irreducible_places(draw):
    """A monic irreducible pi of degree 2-4 with its place.

    pi is an Eisenstein polynomial at a small prime, shifted by a rational r
    (the place of the base change t = s + r): a shift is an automorphism of
    Q[t], so pi stays irreducible.  That is
    known by construction, so the place is built directly, without the
    factorization ``Place.finite`` runs to check it.
    """
    d = draw(st.integers(min_value=2, max_value=4))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    constant = draw(nonzero_ints.filter(lambda b: b % p))
    middle = [draw(st.integers(-20, 20)) for _ in range(d - 1)]
    eisenstein = Polynomial([p * constant] + [p * b for b in middle] + [1])
    place = BaseChange(1, draw(roots), 0, 1).place(Place(eisenstein))
    return place.pi, place


huge_coefficients = st.one_of(
    coefficients,
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
    ),
)
huge_polys = (
    st.lists(huge_coefficients, min_size=1, max_size=5).map(Polynomial).filter(bool)
)


@st.composite
def functions_at_higher_place(draw):
    """(pi, place, e, g, h, f) with f = c pi^e g / h and |e| <= 4."""
    pi, place = draw(irreducible_places())
    k = draw(st.integers(min_value=0, max_value=4))
    c = draw(huge_coefficients.filter(bool))
    g, h = draw(huge_polys), draw(huge_polys)
    e = k if draw(st.booleans()) else -k
    f = c * RationalFunction(pi) ** e * RationalFunction(g, h)
    return pi, place, e, g, h, f


@settings(deadline=None, max_examples=60)
@given(functions_at_higher_place())
def test_higher_degree_matches_fraction_division_loop(case):
    pi, place, e, g, h, f = case
    v, expected = reduced_unit_reference(pi, f)
    assert valuation(place, f) == v
    assert v == e + multiplicity_reference(pi, g) - multiplicity_reference(pi, h)
    assert called(place, f) == (v, expected)
