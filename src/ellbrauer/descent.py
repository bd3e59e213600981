"""Two-descent on split curves y^2 = x (x - p) (x - q) over Q(t).

The mod-2 descent sequence ties three maps together: the connecting map
sends a point M to the square-class pair (x(M) - q, x(M) - p), and the
pair (f, g) maps onward to the Brauer class (x - p, f) + (x - q, g).  The
image of the first map is exactly the kernel of the second.  The ordering
of the pair components is part of the convention and is locked in by the
evaluation-level exactness tests; do not swap it.

Every point other than O maps to the values of x - q and x - p at it.  At
a 2-torsion point one of them vanishes and is rewritten modulo squares
through y^2 = x (x - p) (x - q) (_coordinate_value; Silverman, AEC X.1.4):

    (p, 0) -> (p - q, p (p - q)),   (q, 0) -> (q (q - p), q - p),
    (0, 0) -> (-q, -p)

Square classes are multiplicative, so with C the class of a function the
torsion images are sums of the classes of p, q and p - q, whose factors
are kept on the curve (elliptic.split_factors), and no product is ever
factored:

    (p, 0) -> (C(p - q), C(p) + C(p - q))
    (q, 0) -> (C(q) + C(q - p), C(q - p)),   C(q - p) = C(p - q) + C(-1)
    (0, 0) -> their sum, (C(q) + C(-1), C(p) + C(-1))

Other points, and callers that need the pair functions themselves, use
descent_pair_functions.
"""

from __future__ import annotations

import enum
from typing import Sequence

from ._valueclass import value_class
from .exactalg import RationalFunction
from .elliptic import SplitCurve, WeierstrassCurve, base_factors, split_factors
from .residues import QtBrauerClass, _SymbolSum
from .squareclass import (
    FieldMode,
    SquareClassVector,
    _nonzero,
    class_from_factors,
    class_of,
    span_combinations,
)


class PointKind(enum.Enum):
    ZERO = "zero"
    TWO_TORSION_P = "(p, 0)"
    TWO_TORSION_Q = "(q, 0)"
    TWO_TORSION_ORIGIN = "(0, 0)"
    AFFINE = "affine"


@value_class
class CurvePoint:
    """A point of the generic fiber, with coordinates in Q(t) when affine."""

    kind: PointKind
    x: RationalFunction | None = None
    y: RationalFunction | None = None

    @staticmethod
    def zero() -> "CurvePoint":
        return CurvePoint(PointKind.ZERO)

    @staticmethod
    def two_torsion_p() -> "CurvePoint":
        return CurvePoint(PointKind.TWO_TORSION_P)

    @staticmethod
    def two_torsion_q() -> "CurvePoint":
        return CurvePoint(PointKind.TWO_TORSION_Q)

    @staticmethod
    def two_torsion_origin() -> "CurvePoint":
        return CurvePoint(PointKind.TWO_TORSION_ORIGIN)

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        x, y = RationalFunction.coerce(x), RationalFunction.coerce(y)
        return CurvePoint(PointKind.AFFINE, x, y)

    def __str__(self) -> str:
        if self.kind is PointKind.AFFINE:
            return f"({self.x}, {self.y})"
        return self.kind.value


@value_class
class DescentPair:
    """Pair of square classes, one per coordinate of the descent map."""

    first: SquareClassVector
    second: SquareClassVector

    def __post_init__(self) -> None:
        if self.first.mode is not self.second.mode:
            raise ValueError("descent pair components must share a field mode")

    def as_tuple(self) -> tuple[SquareClassVector, SquareClassVector]:
        return (self.first, self.second)

    def __add__(self, other: "DescentPair") -> "DescentPair":
        if not isinstance(other, DescentPair):
            return NotImplemented
        return DescentPair(self.first + other.first, self.second + other.second)

    def is_zero(self) -> bool:
        return self.first.is_zero() and self.second.is_zero()

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


def _checked_split(curve: WeierstrassCurve) -> SplitCurve:
    """The curve, checked where it enters descent: split, 0, p, q distinct.

    Each public function here that takes a curve calls it before it
    reads the curve; the helpers behind them take the checked curve.
    """
    if not isinstance(curve, SplitCurve):
        raise ValueError("descent requires the split form y^2 = x(x-p)(x-q)")
    if curve.is_degenerate:
        raise ValueError("split curve is degenerate: 0, p, q must be distinct")
    return curve


def descent_pair_functions(
    point: CurvePoint, curve: SplitCurve
) -> tuple[RationalFunction, RationalFunction]:
    """Representative functions in Q(t)* for the descent image of a point.

    (x - q, x - p) at any point but O, a vanishing entry rewritten by
    _coordinate_value; O maps to (1, 1).
    """
    curve = _checked_split(curve)
    p, q = curve.split_p, curve.split_q
    if point.kind is PointKind.ZERO:
        return RationalFunction(1), RationalFunction(1)
    x = {
        PointKind.TWO_TORSION_P: p,
        PointKind.TWO_TORSION_Q: q,
        PointKind.TWO_TORSION_ORIGIN: RationalFunction(0),
    }.get(point.kind, point.x)
    if point.kind is PointKind.AFFINE:
        y = point.y
        if not (y * y - x * (x - p) * (x - q)).is_zero():
            raise ValueError(f"{point} does not lie on {curve}")
    values = (x, x - p, x - q)
    return (
        _coordinate_value(CurveCoordinate.X_MINUS_Q, *values),
        _coordinate_value(CurveCoordinate.X_MINUS_P, *values),
    )


_TORSION_KINDS = (
    PointKind.TWO_TORSION_P,
    PointKind.TWO_TORSION_Q,
    PointKind.TWO_TORSION_ORIGIN,
)


def descent_image(
    point: CurvePoint, curve: SplitCurve, mode: FieldMode
) -> DescentPair:
    """Square-class pair of a point under the mod-2 descent map.

    A 2-torsion image is a sum of the classes of p, q and p - q (see the
    module docstring); other points factor their pair functions.
    """
    if mode is FieldMode.RATIONALS_ONLY:
        raise ValueError("descent images live over Q(t) or C(t)")
    if point.kind in _TORSION_KINDS:
        return _torsion_image(point.kind, _checked_split(curve), mode)
    f, g = descent_pair_functions(point, curve)
    return DescentPair(class_of(f, mode), class_of(g, mode))


def _torsion_image(kind: PointKind, curve: SplitCurve, mode: FieldMode) -> DescentPair:
    p, q, p_minus_q = curve.split_p, curve.split_q, curve.split_p_minus_q

    def c(f: RationalFunction) -> SquareClassVector:
        return class_from_factors(*split_factors(curve, f), mode)

    minus_one = SquareClassVector(
        mode, mode is FieldMode.RATIONAL_CONSTANTS, frozenset(), frozenset()
    )
    if kind is PointKind.TWO_TORSION_ORIGIN:
        # C(p - q) + C(q - p) = C(-1), so p - q drops out of the sum.
        return DescentPair(c(q) + minus_one, c(p) + minus_one)
    c_pq = c(p_minus_q)
    if kind is PointKind.TWO_TORSION_P:
        return DescentPair(c_pq, c(p) + c_pq)
    c_qp = c_pq + minus_one
    return DescentPair(c(q) + c_qp, c_qp)


class CurveCoordinate(enum.Enum):
    """Coordinate functions on the curve used as first symbol entries."""

    X = "x"
    X_MINUS_P = "x-p"
    X_MINUS_Q = "x-q"

    def sort_key(self) -> str:
        # "x" < "x-p" < "x-q": the names sort in definition order.
        return self.value

    def __str__(self) -> str:
        return self.value


def _coordinate_value(coord: CurveCoordinate, x, x_minus_p, x_minus_q):
    """The coordinate from the values of x, x - p and x - q, in Q or in Q(t).

    A vanishing coordinate is rewritten modulo squares through y^2 = x (x - p) (x - q):
    x - p -> x (x - q), x - q -> x (x - p), x -> (x - p)(x - q).  Returns 0
    when the substitute vanishes too.
    """
    if coord is CurveCoordinate.X:
        return x or x_minus_p * x_minus_q
    if coord is CurveCoordinate.X_MINUS_P:
        return x_minus_p or x * x_minus_q
    return x_minus_q or x * x_minus_p


Symbol = tuple[CurveCoordinate, RationalFunction]


class BrauerClass(_SymbolSum):
    """Formal F2 sum of symbols (coordinate, f) on a fixed split curve."""

    __slots__ = ("curve",)

    def __init__(self, curve: SplitCurve, symbols: Sequence[tuple]) -> None:
        self.curve = _checked_split(curve)
        super().__init__(symbols)

    def _symbol(self, coord, f) -> Symbol:
        if not isinstance(coord, CurveCoordinate):
            raise TypeError("first symbol entry must be a CurveCoordinate")
        f = RationalFunction.coerce(f)
        if f.is_zero():
            raise ValueError("symbol entries must be nonzero")
        return coord, f

    def _with(self, symbols: Sequence[tuple]) -> "BrauerClass":
        return BrauerClass(self.curve, symbols)

    def _context(self) -> tuple[RationalFunction, RationalFunction]:
        # Not the curve: swapping p and q keeps the curve but moves x - p.
        return self.curve.split_p, self.curve.split_q

    def restrict_to_origin(self) -> QtBrauerClass:
        """The class on the 2-torsion section x = 0, as a class over Q(t)."""
        zero = RationalFunction(0)
        p, q = self.curve.split_p, self.curve.split_q
        return QtBrauerClass(
            (_coordinate_value(c, zero, -p, -q), f) for c, f in self.symbols
        )


def brauer_image(f, g, curve: SplitCurve) -> BrauerClass:
    """The Brauer class (x - p, f) + (x - q, g) of a square-class pair."""
    f, g = RationalFunction.coerce(f), RationalFunction.coerce(g)
    symbols = []
    if f != RationalFunction(1):
        symbols.append((CurveCoordinate.X_MINUS_P, f))
    if g != RationalFunction(1):
        symbols.append((CurveCoordinate.X_MINUS_Q, g))
    return BrauerClass(curve, symbols)


class TranscendenceVerdict(enum.Enum):
    TRANSCENDENTAL = "transcendental"
    ALGEBRAIC_OVER_C = "algebraic over C"
    UNKNOWN = "unknown"


@value_class
class TranscendenceResult:
    verdict: TranscendenceVerdict
    target: DescentPair
    generators: tuple[DescentPair, DescentPair]
    combination: tuple[int, ...] | None
    reason: str


def transcendence_test(
    f, g, curve: SplitCurve, mw_rank_bound: int
) -> TranscendenceResult:
    """Decide whether (x-p, f) + (x-q, g) survives base change to C.

    With Mordell-Weil rank 0 over C(t) and full rational 2-torsion, the
    mod-2 quotient of the C(t) points is two dimensional, so when the two
    torsion images are independent they span the kernel of the symbol
    map.  The class then dies over C exactly when the square-class pair
    of (f, g) over C(t) falls in that span.

    The torsion images are sums of the classes of p, q and p - q, so f
    and g are factored over the curve's factor base of their irreducibles
    (elliptic.base_factors); only the cofactors reach poly_factor.  A zero
    f or g is reported first, then a curve that is not split, then a rank
    bound that is not a nonnegative int (a bool is not one).

    One elimination over the images of (p, 0) and (q, 0) and the target
    (squareclass.span_combinations) decides both questions: the images
    are independent when neither lies in the span of those before it, and
    the target's coefficients over them are the combination.  The verdict
    is unknown until a branch decides it; each branch sets the reason,
    and the combination for a class algebraic over C.
    """
    mode = FieldMode.CONSTANTS_ARE_SQUARES
    f, g = _nonzero(f), _nonzero(g)
    curve = _checked_split(curve)
    if type(mw_rank_bound) is not int or mw_rank_bound < 0:
        raise ValueError(f"rank bound {mw_rank_bound!r} is not a nonnegative int")
    target = DescentPair(
        class_from_factors(*base_factors(curve, f), mode),
        class_from_factors(*base_factors(curve, g), mode),
    )
    gens = (
        descent_image(CurvePoint.two_torsion_p(), curve, mode),
        descent_image(CurvePoint.two_torsion_q(), curve, mode),
    )
    verdict, combination = TranscendenceVerdict.UNKNOWN, None
    if mw_rank_bound != 0:
        reason = (
            f"Mordell-Weil rank bound {mw_rank_bound} does not pin the "
            "kernel of the symbol map"
        )
    else:
        *image_combos, combo = span_combinations(
            [gen.as_tuple() for gen in gens] + [target.as_tuple()]
        )
        if image_combos != [None, None]:
            reason = "torsion images are dependent and do not span the kernel"
        elif combo is not None:
            verdict = TranscendenceVerdict.ALGEBRAIC_OVER_C
            combination = tuple(combo)
            reason = "target equals the recorded combination of torsion images"
        else:
            verdict = TranscendenceVerdict.TRANSCENDENTAL
            reason = "target lies outside the span of the torsion images"
    return TranscendenceResult(verdict, target, gens, combination, reason)
