"""Places of the projective t-line over Q, valuations, and unit parts.

A finite place is a monic irreducible polynomial pi, with uniformizer pi
itself; the place at infinity has uniformizer 1/t.  The residue field at a
place of degree one is Q, and those are the only residue fields this
module evaluates in.  Places of higher degree still carry valuations and
unit parts, but their residues live in a number field and are reported as
polynomial representatives, never as rationals.

Valuations and unit parts at a rational place t - a, a = r/s in lowest
terms, come from one integer deflation of each polynomial: its integer
model (coefficients times their common denominator, as in
``Polynomial.__call__``) is divided by the primitive s*t - r in Z.  By
Gauss's lemma s*t - r divides an integer polynomial in Q[t] exactly when it
divides it in Z[t], so the first quotient step that is not integral ends
the count, and the last quotient's value at a gives the residue.  A place
of degree 2 or more has no rational root to divide by in Z, and its
residues are classes in Q[t]/(pi), so it keeps Fraction division and
inverts denominators with the extended gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from ._valueclass import value_class
from .exactalg import (
    Polynomial,
    RationalFunction,
    _frac,
    poly_extended_gcd,
    poly_factor,
)

FieldElement = Union[Polynomial, RationalFunction, Fraction, int]


class UnsupportedResidueFieldError(ValueError):
    """Raised when a rational residue is requested at a place of degree >= 2."""


@value_class
class Place:
    """A closed point of P^1 over Q: a monic irreducible pi, or infinity."""

    pi: Polynomial | None  # None marks the place at infinity

    @staticmethod
    def finite(pi: Polynomial) -> "Place":
        if pi.is_zero() or pi.degree < 1:
            raise ValueError("a finite place needs a nonconstant polynomial")
        if pi.leading() != 1:
            raise ValueError(f"{pi} is not monic")
        fac = poly_factor(pi)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            raise ValueError(f"{pi} is not irreducible over Q")
        return Place(pi)

    @staticmethod
    def at_rational(r: Fraction | int) -> "Place":
        return Place(Polynomial((-_frac(r), 1)))

    @staticmethod
    def infinity() -> "Place":
        return Place(None)

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        return 1 if self.pi is None else self.pi.degree

    def sort_key(self) -> tuple:
        if self.pi is None:
            return (1,)
        return (0, self.pi.degree, self.pi.coeffs)

    def __str__(self) -> str:
        return "infinity" if self.pi is None else str(self.pi)


INFINITY = Place.infinity()


def _integer_model(poly: Polynomial) -> tuple[list[int], int]:
    """The coefficients of poly times their common denominator D, and D.

    ``Polynomial.__call__`` inlines the same loop: building this list there
    costs its hot path about a tenth more per evaluation.
    """
    cs = poly.coeffs
    den = 1
    for c in cs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in cs], den


def _root_multiplicity(ns: list[int], r: int, s: int) -> tuple[int, list[int]]:
    """(k, quot) with ns = (s*t - r)^k * quot, for a nonzero integer ns.

    Each pass divides from the top down, the quotient's next coefficient
    being (n_i + r*q_i) / s, until a step leaves a remainder.
    """
    k = 0
    while len(ns) > 1:
        quot = [0] * (len(ns) - 1)
        q = 0
        for i in range(len(ns) - 1, 0, -1):
            q, rem = divmod(ns[i] + r * q, s)
            if rem:
                return k, ns
            quot[i - 1] = q
        if ns[0] + r * q:
            return k, ns
        ns, k = quot, k + 1
    return k, ns


def _rational_unit(poly: Polynomial, r: int, s: int) -> tuple[int, Fraction]:
    """(v, w(r/s)) for poly = (t - r/s)^v * w: D*poly = (s*t - r)^v * quot
    on the integer model, and Horner over r and powers of s gives s^m * quot(r/s).
    """
    ns, den = _integer_model(poly)
    v, quot = _root_multiplicity(ns, r, s)
    acc, s_pow = 0, 1
    for c in reversed(quot):
        acc = acc * r + c * s_pow
        s_pow *= s
    return v, Fraction(acc * s**v, den * s ** (len(quot) - 1))


def _divide_out(pi: Polynomial, poly: Polynomial) -> tuple[int, Polynomial]:
    """(e, w mod pi) for poly = pi^e * w with w prime to pi."""
    e = 0
    while True:
        q, r = divmod(poly, pi)
        if r:
            return e, r
        poly, e = q, e + 1


def _multiplicity(pi: Polynomial, poly: Polynomial) -> int:
    if pi.degree == 1:
        a = -pi.coeff(0)
        ns, _ = _integer_model(poly)
        return _root_multiplicity(ns, a.numerator, a.denominator)[0]
    return _divide_out(pi, poly)[0]


def valuation(place: Place, f: FieldElement) -> int:
    """Order of vanishing of a nonzero f at the place."""
    rf = RationalFunction.coerce(f)
    if rf.is_zero():
        raise ValueError("the zero function has no valuation")
    if place.is_infinite:
        return rf.den.degree - rf.num.degree
    return _multiplicity(place.pi, rf.num) - _multiplicity(place.pi, rf.den)


@value_class
class UnitPart:
    """Valuation v and the residue of f * pi^(-v) in the residue field Q."""

    valuation: int
    residue: Fraction


def unit_part(place: Place, f: FieldElement) -> UnitPart:
    """Valuation and rational residue of the unit part, at a degree-1 place."""
    if place.degree != 1:
        raise UnsupportedResidueFieldError(
            f"residue field at {place} is a number field of degree "
            f"{place.degree}, not Q"
        )
    rf = RationalFunction.coerce(f)
    if rf.is_zero():
        raise ValueError("the zero function has no unit part")
    if place.is_infinite:
        v = rf.den.degree - rf.num.degree
        return UnitPart(v, rf.num.leading() / rf.den.leading())
    a = -place.pi.coeff(0)
    vn, un = _rational_unit(rf.num, a.numerator, a.denominator)
    vd, ud = _rational_unit(rf.den, a.numerator, a.denominator)
    return UnitPart(vn - vd, un / ud)


def reduced_unit(place: Place, f: FieldElement) -> Polynomial:
    """Residue of the unit part at a finite place, as a poly of degree < deg pi.

    At a rational place this is the constant ``unit_part(place, f).residue``.
    Above degree 1 it divides Fraction polynomials and inverts the
    denominator mod pi by the extended gcd (pi irreducible: it exists).
    """
    if place.is_infinite:
        raise ValueError("reduced_unit applies to finite places")
    if place.degree == 1:
        return Polynomial.constant(unit_part(place, f).residue)
    rf = RationalFunction.coerce(f)
    if rf.is_zero():
        raise ValueError("the zero function has no unit part")
    _, nbar = _divide_out(place.pi, rf.num)
    _, dbar = _divide_out(place.pi, rf.den)
    _, inv, _ = poly_extended_gcd(dbar, place.pi)
    return (nbar * inv) % place.pi


def places_of_support(fs: Iterable[FieldElement]) -> list[Place]:
    """Sorted places where any of the given functions has nonzero valuation."""
    finite: set[Place] = set()
    include_infinity = False
    for f in fs:
        rf = RationalFunction.coerce(f)
        if rf.is_zero():
            raise ValueError("the zero function has no support")
        for poly in (rf.num, rf.den):
            if poly.degree > 0:
                for base, _ in poly_factor(poly).factors:
                    finite.add(Place(base))
        if rf.den.degree != rf.num.degree:
            include_infinity = True
    out = sorted(finite, key=Place.sort_key)
    if include_infinity:
        out.append(INFINITY)
    return out
