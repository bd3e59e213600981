"""Tame residues of quaternion symbol classes over Q(t).

For a place v of the t-line and nonzero f, g, the tame symbol

    d_v(f, g) = (-1)^(v(f)v(g)) * fbar^v(g) * gbar^v(f)   in  kappa*/kappa*^2,

with fbar, gbar the residues of the unit parts, detects whether the class
of the quaternion algebra (f, g) ramifies at v.  Each entry is deflated
once per place, and a class's symbols share one decision per place.  At a
degree-1 place the residue field is Q and the verdict is an explicit square
class.  At higher degree the residue field is a number field; the verdict
is decided when parity or a rational square product of the residues mod pi
forces it, and is otherwise reported as undetermined, never silently
assumed trivial.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from ._valueclass import value_class
from .exactalg import ONE, RationalFunction, rat_is_square
from .funcfield import Place, places_of_support, residue
from .squareclass import FieldMode, SquareClassVector, class_of

Pair = tuple[RationalFunction, RationalFunction]


class _SymbolSum:
    """Formal F2 sum of symbols (a, f): odd multiplicities kept, sorted by entry.

    Subclasses define _symbol (check and coerce one input pair) and _with
    (a class of the same kind and context), and override _context when
    something besides the symbols identifies a class.  Sums and equality
    hold only between classes of one concrete type.
    """

    __slots__ = ("symbols",)

    def __init__(self, pairs: Iterable[tuple]) -> None:
        counts: dict[tuple, int] = {}
        for a, f in pairs:
            symbol = self._symbol(a, f)
            counts[symbol] = counts.get(symbol, 0) + 1
        kept = [symbol for symbol, n in counts.items() if n % 2]
        kept.sort(key=lambda s: (s[0].sort_key(), s[1].sort_key()))
        self.symbols: tuple[tuple, ...] = tuple(kept)

    def _context(self) -> object:
        return None

    def __add__(self, other: "_SymbolSum") -> "_SymbolSum":
        if type(other) is not type(self):
            return NotImplemented
        if other._context() != self._context():
            raise ValueError("cannot add Brauer classes with different (p, q)")
        return self._with(self.symbols + other.symbols)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._context() == other._context() and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._context(), self.symbols))

    def is_zero(self) -> bool:
        return not self.symbols

    def __str__(self) -> str:
        if not self.symbols:
            return "0"
        return " + ".join(f"({a}, {f})" for a, f in self.symbols)


class QtBrauerClass(_SymbolSum):
    """Formal F2 sum of quaternion symbols (f, g) with f, g in Q(t)*."""

    __slots__ = ()

    def _symbol(self, f, g) -> Pair:
        f, g = RationalFunction.coerce(f), RationalFunction.coerce(g)
        if f.is_zero() or g.is_zero():
            raise ValueError("quaternion symbols require nonzero entries")
        return f, g

    def _with(self, pairs: Iterable[tuple]) -> "QtBrauerClass":
        return QtBrauerClass(pairs)

    def support(self) -> list[Place]:
        return places_of_support(h for pair in self.symbols for h in pair)


class Verdict(enum.Enum):
    TRIVIALLY_ONE = "trivially one"
    CLASS = "square class"
    UNDETERMINED = "undetermined"


@value_class
class ResidueVerdict:
    place: Place
    kind: Verdict
    square_class: SquareClassVector | None = None

    def is_trivial(self) -> bool | None:
        """True/False when decided, None when the residue field defeats us."""
        if self.kind is Verdict.TRIVIALLY_ONE:
            return True
        if self.kind is Verdict.CLASS:
            return self.square_class.is_zero()
        return None

    def __str__(self) -> str:
        if self.kind is Verdict.CLASS:
            return f"class {self.square_class}"
        return self.kind.value


def tame_symbol(place: Place, f, g) -> ResidueVerdict:
    """Tame residue of the symbol (f, g) at a place of the t-line.

    QtBrauerClass coerces f and g and refuses a zero entry.
    """
    return residue_of_class(QtBrauerClass([(f, g)]), place)


def residue_of_class(cls: QtBrauerClass, place: Place) -> ResidueVerdict:
    """Combined residue of a formal symbol sum at one place.

    At a degree-1 place the residues' square classes are added.  Above it
    their product mod pi is tested, as two nonsquares can multiply to a
    square: a constant square in Q is a square in any residue field.
    """
    residues = []
    for f, g in cls.symbols:
        (vf, uf), (vg, ug) = residue(place, f), residue(place, g)
        vf, vg = vf % 2, vg % 2
        if vf or vg:
            # an entry's residue enters only where the other's valuation is odd
            r = (-1) ** (vf * vg) * (uf() if vg else 1)
            residues.append(r * (ug() if vf else 1))
    if not residues:
        return ResidueVerdict(place, Verdict.TRIVIALLY_ONE)
    if place.degree == 1:
        classes = [class_of(r, FieldMode.RATIONALS_ONLY) for r in residues]
        return ResidueVerdict(place, Verdict.CLASS, sum(classes[1:], classes[0]))
    prod = ONE
    for r in residues:
        prod = prod * r % place.pi
    if prod.is_constant() and rat_is_square(prod.as_constant()):
        return ResidueVerdict(place, Verdict.TRIVIALLY_ONE)
    return ResidueVerdict(place, Verdict.UNDETERMINED)


@value_class
class UnramifiednessReport:
    """Residue verdicts over the support, with places elsewhere trivial."""

    verdicts: tuple[ResidueVerdict, ...]

    @property
    def overall(self) -> bool | None:
        """True if unramified everywhere, False if ramified, None if unknown."""
        ramified = any(v.is_trivial() is False for v in self.verdicts)
        if ramified:
            return False
        if any(v.is_trivial() is None for v in self.verdicts):
            return None
        return True

    def verdict_at(self, place: Place) -> ResidueVerdict:
        for v in self.verdicts:
            if v.place == place:
                return v
        return ResidueVerdict(place, Verdict.TRIVIALLY_ONE)


def check_unramified_P1(cls: QtBrauerClass) -> UnramifiednessReport:
    """Residues of the class at every place in its support.

    Outside the support both valuations vanish and every residue is
    trivially one, so the support verdicts decide unramifiedness over the
    whole t-line.
    """
    support = cls.support()
    verdicts = tuple(residue_of_class(cls, v) for v in support)
    return UnramifiednessReport(verdicts)
