"""Places of the projective t-line over Q, valuations, and residues.

A finite place is a monic irreducible polynomial pi, with uniformizer pi
itself; the place at infinity has uniformizer 1/t.  ``residue`` gives the
valuation v of a function and, on call, the residue of its unit part
f * pi^(-v): a Fraction where the residue field is Q (degree 1 and
infinity), and above degree 1 a polynomial of lower degree than pi that
stands for an element of the number field Q[t]/(pi).

At a finite place of any degree, the valuation and the residue come from
one call of ``exactalg.deflate_at`` on the numerator and the denominator:
that is where the polynomials meet their integer models.  ``valuation``
is the first half of ``residue``, and a residue is reduced only when it
is asked for.
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
    poly_factor,
)

FieldElement = Union[Polynomial, RationalFunction, Fraction, int]


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


def valuation(place: Place, f: FieldElement) -> int:
    """Order of vanishing of a nonzero f at the place."""
    return residue(place, f)[0]


def residue(
    place: Place, f: FieldElement
) -> tuple[int, Callable[[], Fraction | Polynomial]]:
    """The valuation v of a nonzero f at the place, and a thunk for the
    residue of f * pi^(-v).

    The thunk returns a Fraction at degree 1 and at infinity, and a
    polynomial of degree < deg pi above degree 1.  Nothing is reduced
    mod pi until it is called.
    """
    f = RationalFunction.coerce(f)
    if f.is_zero():
        raise ValueError("the zero function has no valuation")
    if place.is_infinite:
        return f.den.degree - f.num.degree, lambda: f.num.leading() / f.den.leading()
    return deflate_at(place.pi, f.num, f.den)


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
