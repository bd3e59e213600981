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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exactalg import Polynomial, RationalFunction, int_factor, poly_factor

FieldElement = Union[Polynomial, RationalFunction, Fraction, int]


class FieldMode(enum.Enum):
    RATIONAL_CONSTANTS = "Q(t)"
    CONSTANTS_ARE_SQUARES = "C(t)"
    RATIONALS_ONLY = "Q"


@dataclass(frozen=True)
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
        return SquareClassVector(
            self.mode,
            self.sign != other.sign,
            self.primes ^ other.primes,
            self.polys ^ other.polys,
        )

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
    rf = RationalFunction.coerce(f)
    if rf.is_zero():
        raise ValueError("0 has no square class")
    if mode is FieldMode.RATIONALS_ONLY and not rf.is_constant():
        raise ValueError(f"{rf} is not a rational constant")
    num_fac = poly_factor(rf.num)
    den_fac = poly_factor(rf.den)
    exps: dict[Polynomial, int] = {}
    for base, e in num_fac.factors + den_fac.factors:
        exps[base] = exps.get(base, 0) + e
    polys = frozenset(base for base, e in exps.items() if e % 2)
    unit = num_fac.unit / den_fac.unit
    if mode is FieldMode.CONSTANTS_ARE_SQUARES:
        return SquareClassVector(mode, False, frozenset(), polys)
    sign_n, primes_n = int_factor(unit.numerator)
    _, primes_d = int_factor(unit.denominator)
    prime_exps: dict[int, int] = {}
    for p, e in primes_n + primes_d:
        prime_exps[p] = prime_exps.get(p, 0) + e
    primes = frozenset(p for p, e in prime_exps.items() if e % 2)
    return SquareClassVector(mode, sign_n < 0, primes, polys)


ClassTuple = tuple[SquareClassVector, ...]


def _as_tuple(v: Union[SquareClassVector, Sequence[SquareClassVector]]) -> ClassTuple:
    if isinstance(v, SquareClassVector):
        return (v,)
    return tuple(v)


def _masks(
    target: ClassTuple, generators: Sequence[ClassTuple]
) -> tuple[int, list[int]]:
    width = len(target)
    mode = target[0].mode if target else None
    for vec in (target, *generators):
        if len(vec) != width:
            raise ValueError("all class tuples must have the same length")
        for comp in vec:
            if comp.mode is not mode:
                raise ValueError("mixed field modes in span computation")
    index: dict[tuple, int] = {}

    def mask(vec: ClassTuple) -> int:
        m = 0
        for block, comp in enumerate(vec):
            for coord in comp.coordinates():
                key = (block, coord)
                if key not in index:
                    index[key] = len(index)
                m |= 1 << index[key]
        return m

    gen_masks = [mask(g) for g in generators]
    return mask(target), gen_masks


def _solve_f2(target: int, gens: Sequence[int]) -> list[int] | None:
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, row, combination)
    for idx, row in enumerate(gens):
        combo = 1 << idx
        for bit, prow, pcombo in pivots:
            if (row >> bit) & 1:
                row ^= prow
                combo ^= pcombo
        if row:
            pivots.append((row.bit_length() - 1, row, combo))
    combo = 0
    for bit, prow, pcombo in pivots:
        if (target >> bit) & 1:
            target ^= prow
            combo ^= pcombo
    if target:
        return None
    return [(combo >> i) & 1 for i in range(len(gens))]


def in_span(
    target: Union[SquareClassVector, Sequence[SquareClassVector]],
    generators: Sequence[Union[SquareClassVector, Sequence[SquareClassVector]]],
) -> tuple[bool, list[int] | None]:
    """F2 membership of a class tuple in the span of generator tuples.

    Returns (True, coefficients) with an explicit certificate, or
    (False, None).  Components are compared blockwise, so pairs stay
    pairs and never mix coordinates.
    """
    t = _as_tuple(target)
    gens = [_as_tuple(g) for g in generators]
    tmask, gmasks = _masks(t, gens)
    combo = _solve_f2(tmask, gmasks)
    if combo is None:
        return False, None
    return True, combo


def independent(
    vectors: Sequence[Union[SquareClassVector, Sequence[SquareClassVector]]],
) -> bool:
    """Whether no nonempty subset of the given class tuples sums to zero."""
    vecs = [_as_tuple(v) for v in vectors]
    if not vecs:
        return True
    zero = tuple(SquareClassVector.zero(c.mode) for c in vecs[0])
    _, gmasks = _masks(zero, vecs)
    # Dependent exactly when some vector lies in the span of those before it.
    return all(_solve_f2(row, gmasks[:i]) is None for i, row in enumerate(gmasks))
