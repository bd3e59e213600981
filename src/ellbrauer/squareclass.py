"""Square classes of field elements as F2 vectors over an explicit basis.

A nonzero element of Q(t) factors as a rational unit times a product of
monic irreducibles; its square class is the vector of mod-2 exponents.
Three coefficient fields are supported.  Over Q(t) the basis is -1, the
primes, and the monic irreducibles.  Over C(t) every constant is a square
and only the irreducibles remain; a rational irreducible of degree d > 1
stands for the product of its d conjugate linear factors, which keeps
F2-linear algebra over rational inputs faithful.  Over Q the input must be
constant and the basis is -1 and the primes.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Sequence, Union

from ._valueclass import value_class
from .exactalg import (
    Factorization, Polynomial, RationalFunction, int_factor, poly_factor
)

FieldElement = Union[Polynomial, RationalFunction, Fraction, int]


class FieldMode(enum.Enum):
    RATIONAL_CONSTANTS = "Q(t)"
    CONSTANTS_ARE_SQUARES = "C(t)"
    RATIONALS_ONLY = "Q"


@value_class
class SquareClassVector:
    """Mod-2 exponent vector of a square class, tagged with its field mode."""

    mode: FieldMode
    sign: bool
    primes: frozenset[int]
    polys: frozenset[Polynomial]

    def __post_init__(self) -> None:
        if self.mode is FieldMode.CONSTANTS_ARE_SQUARES:
            if self.sign or self.primes:
                raise ValueError("constants are squares in this mode")
        if self.mode is FieldMode.RATIONALS_ONLY and self.polys:
            raise ValueError("no polynomial factors over Q")
        for poly in self.polys:
            if poly.is_constant() or poly.leading() != 1:
                raise ValueError(
                    f"basis entry {poly} must be monic of positive degree"
                )

    @staticmethod
    def zero(mode: FieldMode) -> "SquareClassVector":
        return SquareClassVector(mode, False, frozenset(), frozenset())

    def is_zero(self) -> bool:
        return not self.sign and not self.primes and not self.polys

    def __add__(self, other: "SquareClassVector") -> "SquareClassVector":
        if not isinstance(other, SquareClassVector):
            return NotImplemented
        if self.mode is not other.mode:
            raise ValueError("cannot add square classes in different field modes")
        # Both summands passed __post_init__, so the sum does: it is built
        # without rechecking each entry.
        out = object.__new__(SquareClassVector)
        out.__dict__.update(
            mode=self.mode,
            sign=self.sign != other.sign,
            primes=self.primes ^ other.primes,
            polys=self.polys ^ other.polys,
        )
        return out

    def forget_constants(self) -> "SquareClassVector":
        """Project a Q(t) class to the C(t) class it maps to."""
        if self.mode is not FieldMode.RATIONAL_CONSTANTS:
            raise ValueError("only Q(t) classes project to C(t)")
        return SquareClassVector(
            FieldMode.CONSTANTS_ARE_SQUARES, False, frozenset(), self.polys
        )

    def coordinates(self) -> frozenset[tuple]:
        coords: set[tuple] = set()
        if self.sign:
            coords.add(("sign",))
        for p in self.primes:
            coords.add(("prime", p))
        for f in self.polys:
            coords.add(("poly", f))
        return frozenset(coords)

    def __str__(self) -> str:
        if self.is_zero():
            return "1"
        parts: list[str] = []
        if self.sign:
            parts.append("-1")
        parts.extend(str(p) for p in sorted(self.primes))
        for f in sorted(self.polys, key=Polynomial.sort_key):
            s = str(f)
            parts.append(f"({s})" if ("+" in s or "-" in s[1:]) else s)
        return " * ".join(parts)


def class_of(f: FieldElement, mode: FieldMode) -> SquareClassVector:
    """Square class of a nonzero field element in the given mode."""
    rf = _nonzero(f)
    if mode is FieldMode.RATIONALS_ONLY and not rf.is_constant():
        raise ValueError(f"{rf} is not a rational constant")
    return class_from_factors(poly_factor(rf.num), poly_factor(rf.den), mode)


def _nonzero(f: FieldElement) -> RationalFunction:
    rf = RationalFunction.coerce(f)
    if rf.is_zero():
        raise ValueError("0 has no square class")
    return rf


def class_from_factors(
    num: Factorization, den: Factorization, mode: FieldMode
) -> SquareClassVector:
    """Square class of the quotient of two factored polynomials.

    Square classes are multiplicative, so a caller holding the factors of
    p and q gets the class of p * q as the sum of their classes, and
    never factors the product.
    """
    exps: dict[Polynomial, int] = {}
    for base, e in num.factors + den.factors:
        exps[base] = exps.get(base, 0) + e
    polys = frozenset(base for base, e in exps.items() if e % 2)
    if mode is FieldMode.CONSTANTS_ARE_SQUARES:
        return SquareClassVector(mode, False, frozenset(), polys)
    unit = num.unit / den.unit
    sign_n, primes_n = int_factor(unit.numerator)
    _, primes_d = int_factor(unit.denominator)
    prime_exps: dict[int, int] = {}
    for p, e in primes_n + primes_d:
        prime_exps[p] = prime_exps.get(p, 0) + e
    primes = frozenset(p for p, e in prime_exps.items() if e % 2)
    return SquareClassVector(mode, sign_n < 0, primes, polys)


# A class tuple, or a single class standing for a 1-tuple.
Classes = Union[SquareClassVector, Sequence[SquareClassVector]]


def _eliminate(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Gaussian elimination over F2, one row at a time, in order.

    Each row is reduced by the pivots of the rows before it and comes back
    as (rest, combination): the combination is the bit mask of the rows,
    itself included, whose sum is rest.  A rest of 0 puts the row in the
    span of the rows before it.
    """
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, rest, combination)
    out = []
    for idx, row in enumerate(rows):
        combo = 1 << idx
        for bit, prow, pcombo in pivots:
            if (row >> bit) & 1:
                row ^= prow
                combo ^= pcombo
        if row:
            pivots.append((row.bit_length() - 1, row, combo))
        out.append((row, combo))
    return out


def span_combinations(vectors: Sequence[Classes]) -> list[list[int] | None]:
    """For each class tuple, in order, its F2 coefficients over the tuples
    before it, or None when it lies outside their span.

    Each tuple becomes a bit mask over the (block, coordinate) pairs met,
    so pairs stay pairs and never mix coordinates, and one elimination
    answers every membership and independence question about them.
    """
    vecs = [(v,) if isinstance(v, SquareClassVector) else tuple(v) for v in vectors]
    width = len(vecs[0]) if vecs else 0
    mode = vecs[0][0].mode if width else None
    index: dict[tuple, int] = {}
    masks = []
    for vec in vecs:
        if len(vec) != width:
            raise ValueError("all class tuples must have the same length")
        mask = 0
        for block, comp in enumerate(vec):
            if comp.mode is not mode:
                raise ValueError("mixed field modes in span computation")
            for coord in comp.coordinates():
                mask |= 1 << index.setdefault((block, coord), len(index))
        masks.append(mask)
    return [
        None if rest else [(combo >> i) & 1 for i in range(idx)]
        for idx, (rest, combo) in enumerate(_eliminate(masks))
    ]


def in_span(
    target: Classes, generators: Sequence[Classes]
) -> tuple[bool, list[int] | None]:
    """F2 membership of a class tuple in the span of generator tuples.

    Returns (True, coefficients) with an explicit certificate, or
    (False, None).  The target is eliminated as one more row after the
    generators; its combination, without its own bit, is the certificate.
    """
    combo = span_combinations([*generators, target])[-1]
    return combo is not None, combo


def independent(vectors: Sequence[Classes]) -> bool:
    """Whether no nonempty subset of the given class tuples sums to zero:
    no tuple lies in the span of those before it."""
    return all(combo is None for combo in span_combinations(vectors))
