"""Places of the projective t-line over Q, valuations, and unit parts.

A finite place is a monic irreducible polynomial pi, with uniformizer pi
itself; the place at infinity has uniformizer 1/t.  The residue field at a
place of degree one is Q, and those are the only residue fields this
module evaluates in.  Places of higher degree still carry valuations and
unit parts, but their residues live in a number field and are reported as
polynomial representatives, never as rationals.

At a finite place of any degree, the valuation and unit part of a
function come from one call of ``exactalg.deflate_at`` on its numerator
and its denominator, and a valuation alone from ``exactalg.valuation_at``,
which prepares no residue: that is where the polynomials meet their
integer models.  The valuation is the difference of the two counts.  A
residue is reduced only when it is asked for; above degree 1 the
denominator's residue is inverted as a rational when it is constant and
by the extended gcd otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Union

from ._valueclass import value_class
from .exactalg import (
    Polynomial,
    RationalFunction,
    _frac,
    deflate_at,
    poly_extended_gcd,
    poly_factor,
    valuation_at,
)

FieldElement = Union[Polynomial, RationalFunction, Fraction, int]
# A residue computed only when called.
_LazyResidue = Callable[[], Union[Fraction, Polynomial]]


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
        return (0, self.pi.sort_key())

    def __str__(self) -> str:
        return "infinity" if self.pi is None else str(self.pi)


INFINITY = Place.infinity()


def _residue(place: Place, f: FieldElement) -> tuple[int, _LazyResidue]:
    """v, and on call the residue of f * pi^(-v), a Fraction at degree 1.

    Above degree 1 the residue is a polynomial mod pi.  The numerator and
    the denominator are deflated by one call; nothing is reduced mod pi
    until the residue is asked for.
    """
    f = _nonzero(f)
    if place.is_infinite:
        return f.den.degree - f.num.degree, lambda: f.num.leading() / f.den.leading()
    v, residues = deflate_at(place.pi, f.num, f.den)

    def residue() -> Fraction | Polynomial:
        num, den = residues()
        if place.degree == 1:
            return num / den
        if den.is_constant():
            return num * (1 / den.as_constant())
        _, inv, _ = poly_extended_gcd(den, place.pi)  # pi is irreducible
        return num * inv % place.pi

    return v, residue


def _nonzero(f: FieldElement) -> RationalFunction:
    f = RationalFunction.coerce(f)
    if f.is_zero():
        raise ValueError("the zero function has no valuation")
    return f


def valuation(place: Place, f: FieldElement) -> int:
    """Order of vanishing of a nonzero f at the place."""
    f = _nonzero(f)
    if place.is_infinite:
        return f.den.degree - f.num.degree
    return valuation_at(place.pi, f.num, f.den)


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
    v, residue = _residue(place, f)
    return UnitPart(v, residue())


def reduced_unit(place: Place, f: FieldElement) -> Polynomial:
    """Residue of the unit part at a finite place, as a poly of degree < deg pi.

    At a rational place this is the constant ``unit_part(place, f).residue``.
    """
    if place.is_infinite:
        raise ValueError("reduced_unit applies to finite places")
    residue = _residue(place, f)[1]()
    return residue if place.degree > 1 else Polynomial.constant(residue)


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
