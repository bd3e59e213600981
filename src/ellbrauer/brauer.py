"""Local and adelic evaluation of curve Brauer classes at rational places.

A symbol (x - p, f) is evaluated at a point of the surface lying over a
place v of Q by specializing both entries to numbers and taking a Hilbert
symbol.  When a coordinate entry vanishes at the point, the curve
equation y^2 = x (x - p) (x - q) rewrites it modulo squares (the rule is
descent._coordinate_value), which is what makes evaluation at 2-torsion
points possible.

Both the curve test and the Hilbert symbols depend only on square
classes, so a point is evaluated on integers that represent them.  At
t0, with p(t0) = P/D and q(t0) = Q/D over one denominator, the point
x0 = c/e has the coordinates

    x -> c e,   x - p -> (c D - P e) e D,   x - q -> (c D - Q e) e D,

each the numerator times the denominator of the value, and a symbol
entry f(t0) = n/d is represented by n d.  p, q and every symbol entry are
evaluated once per t0; every point, sampled or given, goes through the
same integer kernel (_coordinates, then _invariant), and no Fraction is
built per candidate point.

The module also ships the reference surface: the split curve with
p(t) = 3 (t - 1)^3 (t + 3) and q(t) = p(-t), an elliptic K3 surface whose
quaternion class built from (6t(t+1), 6t(t-1)) pairs nontrivially with an
adelic point concentrated at the prime 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from typing import Iterator

from ._valueclass import value_class
from .descent import BrauerClass, CurveCoordinate, _coordinate_value, brauer_image
from .elliptic import SplitCurve
from .exactalg import Polynomial, RationalFunction, T, _frac
from .funcfield import Place
from .hilbert import RationalPlace, _is_square, _square_class, _symbol_sign


class DegeneratePointError(ValueError):
    """Raised when a symbol entry and its substitute both vanish at a point."""


class OffSurfaceError(ValueError):
    """Raised for a point that is not on the surface over its completion."""


@lru_cache(maxsize=1)
def reference_curve() -> SplitCurve:
    """The split curve with p = 3(t-1)^3(t+3) and q(t) = p(-t)."""
    return SplitCurve(3 * (T - 1) ** 3 * (T + 3), 3 * (T + 1) ** 3 * (T - 3))


# The pair (f, g) of the reference class (x - p, f) + (x - q, g).
REFERENCE_PAIR = (6 * T * (T + 1), 6 * T * (T - 1))


@lru_cache(maxsize=1)
def reference_class() -> BrauerClass:
    """The class (x - p, 6t(t+1)) + (x - q, 6t(t-1)) on the reference curve."""
    return brauer_image(*REFERENCE_PAIR, reference_curve())


@value_class
class SurfacePoint:
    """A point of the surface over the completion of Q at a place.

    Affine points carry rational coordinates (x0, t0); the y-coordinate
    exists in the completion whenever x0 (x0 - p(t0)) (x0 - q(t0)) is a
    square there, or vanishes (a 2-torsion point).  The zero section
    marker stands for the origin of the fiber.
    """

    place: RationalPlace
    t0: Fraction | None = None
    x0: Fraction | None = None
    at_zero_section: bool = False

    @staticmethod
    def affine(x0, t0, place: RationalPlace) -> "SurfacePoint":
        return SurfacePoint(place, _frac(t0), _frac(x0))

    @staticmethod
    def zero_section(place: RationalPlace) -> "SurfacePoint":
        return SurfacePoint(place, at_zero_section=True)

    def __str__(self) -> str:
        if self.at_zero_section:
            return f"zero section at {self.place}"
        return f"(x = {self.x0}, t = {self.t0}) at {self.place}"


@value_class
class BaseChange:
    """The change t = (a s + b) / (c s + d), ad != bc, of the parameter line.

    It takes the surface y^2 = x (x - p) (x - q) to p'(s) = (c s + d)^4 p(t)
    and q' likewise, with x' = (c s + d)^4 x, and a class (coordinate, f) to
    (coordinate, (c s + d)^2 f(t)): every coordinate and entry changes by a
    square, so fiber types, residues and local invariants carry over.  The
    change by m, then by n, is the change by the matrix product m n.
    """

    a: Fraction | int
    b: Fraction | int
    c: Fraction | int
    d: Fraction | int

    def __post_init__(self) -> None:
        if self.a * self.d == self.b * self.c:
            raise ValueError("a base change needs ad != bc")

    def _homogenised(self, h: Polynomial) -> Polynomial:
        """(c s + d)^deg h * h(t), by Horner's rule."""
        top, bottom = Polynomial((self.b, self.a)), Polynomial((self.d, self.c))
        acc, power = Polynomial(), Polynomial((1,))
        for coeff in reversed(h.coeffs):
            acc = acc * top + coeff * power
            power = power * bottom
        return acc

    def _pull_back(self, f: RationalFunction, weight: int) -> RationalFunction:
        """(c s + d)^weight * f(t)."""
        num, den = f.num, f.den
        scale = RationalFunction(Polynomial((self.d, self.c)))
        pulled = RationalFunction(self._homogenised(num), self._homogenised(den))
        return pulled * scale ** (weight - num.degree + den.degree)

    def curve(self, curve: SplitCurve) -> SplitCurve:
        p, q = curve.split_p, curve.split_q
        return SplitCurve(self._pull_back(p, 4), self._pull_back(q, 4))

    def brauer_class(self, cls: BrauerClass) -> BrauerClass:
        symbols = [(coord, self._pull_back(f, 2)) for coord, f in cls.symbols]
        return BrauerClass(self.curve(cls.curve), symbols)

    def point(self, point: SurfacePoint) -> SurfacePoint:
        """(x0, t0) -> (x0 (c s0 + d)^4, s0); raises ValueError over s = infinity."""
        if point.at_zero_section:
            return point
        a, b, c, d = self.a, self.b, self.c, self.d
        if a == c * point.t0:
            raise ValueError(f"{point} lies over s = infinity")
        s0 = (d * point.t0 - b) / (a - c * point.t0)
        return SurfacePoint.affine(point.x0 * (c * s0 + d) ** 4, s0, point.place)

    def place(self, place: Place) -> Place:
        """The place of s that the fiber over the given place of t moves to."""
        if place.is_infinite:
            pi = Polynomial((self.d, self.c))
        else:
            pi = self._homogenised(place.pi)
        return Place.infinity() if pi.is_constant() else Place(pi.monic())


def swap_roots(cls: BrauerClass) -> BrauerClass:
    """The class on the curve (q, p): the same surface, x - p and x - q traded."""
    x, xp, xq = CurveCoordinate.X, CurveCoordinate.X_MINUS_P, CurveCoordinate.X_MINUS_Q
    swapped = {x: x, xp: xq, xq: xp}
    curve = SplitCurve(cls.curve.split_q, cls.curve.split_p)
    return BrauerClass(curve, [(swapped[c], f) for c, f in cls.symbols])


# (D, P, Q) with p(t0) = P/D and q(t0) = Q/D, and the square-class integers
# of x, x - p and x - q at a point (see the module docstring).
_Fiber = tuple[int, int, int]
_Coordinates = tuple[int, int, int]


def _fiber(curve: SplitCurve, t0: Fraction) -> _Fiber:
    """(D, P, Q) with p(t0) = P/D and q(t0) = Q/D.

    Raises DegeneratePointError at a pole of p or q.
    """
    try:
        p0, q0 = curve.split_p(t0), curve.split_q(t0)
    except ZeroDivisionError as exc:
        raise DegeneratePointError(
            f"curve coefficients have a pole at t = {t0}"
        ) from exc
    d = lcm(p0.denominator, q0.denominator)
    return d, p0.numerator * d // p0.denominator, q0.numerator * d // q0.denominator


def _coordinates(
    fiber: _Fiber, x0: Fraction, prime: int | None
) -> _Coordinates | None:
    """Coordinates at x0 = c/e on the fiber, or None off the curve.

    The point lies on the curve over the completion at prime (None for
    the real place) when x0 (x0 - p0) (x0 - q0), whose square class is
    c e (c D - P e) (c D - Q e), is zero or a square there.
    """
    d, p_num, q_num = fiber
    c, e = x0.numerator, x0.denominator
    xp, xq = c * d - p_num * e, c * d - q_num * e
    w = c * e * xp * xq
    if w and not _is_square(w, prime):
        return None
    ed = e * d
    return c * e, xp * ed, xq * ed


def _point_coordinates(
    curve: SplitCurve, point: SurfacePoint
) -> _Coordinates | None:
    return _coordinates(_fiber(curve, point.t0), point.x0, point.place.p)


def is_local_point(curve: SplitCurve, point: SurfacePoint) -> bool:
    """Whether the point lies on the curve over the completion at its place."""
    return point.at_zero_section or _point_coordinates(curve, point) is not None


def _entry_values(cls: BrauerClass, t0: Fraction) -> tuple[int | None, ...]:
    """Square-class integer of each symbol entry at t0; None at a pole."""
    values = []
    for _, f in cls.symbols:
        try:
            values.append(_square_class(f(t0)))
        except ZeroDivisionError:
            values.append(None)
    return tuple(values)


def evaluate_local(cls: BrauerClass, point: SurfacePoint) -> Fraction:
    """Local invariant of the class at the point: 0 or 1/2 in Q/Z.

    Raises OffSurfaceError if the point is not on the surface over its
    completion, and DegeneratePointError if the value is undetermined.
    """
    if point.at_zero_section:
        return Fraction(0)
    coords = _point_coordinates(cls.curve, point)
    if coords is None:
        raise OffSurfaceError(f"{point} is not on the surface over its completion")
    entries = _entry_values(cls, point.t0)
    return _invariant(cls, entries, point.t0, coords, point.place.p)


def _invariant(
    cls: BrauerClass,
    entries: tuple[int | None, ...],
    t0: Fraction,
    coords: _Coordinates,
    prime: int | None,
) -> Fraction:
    """Local invariant at an affine point over t0, from _entry_values(cls, t0)."""
    flips = 0
    for (coord, f), fv in zip(cls.symbols, entries):
        if fv is None:
            raise DegeneratePointError(f"symbol entry {f} has a pole at t = {t0}")
        if fv == 0:
            raise DegeneratePointError(f"symbol entry {f} vanishes at t = {t0}")
        a = _coordinate_value(coord, *coords)
        if a == 0:
            raise DegeneratePointError(
                f"coordinate {coord.value} and its substitute both vanish; the "
                "point lies on a singular fiber"
            )
        if _symbol_sign(a, fv, prime) < 0:
            flips += 1
    return Fraction(flips % 2, 2)


@value_class
class AdelicPointSpec:
    """Adelic point: the zero section everywhere, except listed overrides."""

    overrides: tuple[SurfacePoint, ...] = ()

    def __post_init__(self) -> None:
        places = [pt.place for pt in self.overrides]
        if len(set(places)) != len(places):
            raise ValueError("at most one override per place")


def reference_adelic_point() -> AdelicPointSpec:
    """Zero section away from 2; (x, t) = (1, 2) in the fiber at t = 2 over Q_2."""
    return AdelicPointSpec((SurfacePoint.affine(1, 2, RationalPlace.prime(2)),))


@value_class
class ObstructionReport:
    """Per-place invariants of an adelic point against one Brauer class."""

    evaluations: tuple[tuple[RationalPlace, Fraction], ...]
    total: Fraction
    obstructed: bool
    default_note: str = (
        "every place without an override holds the zero section, where the "
        "invariant is 0"
    )


def adelic_pairing(cls: BrauerClass, spec: AdelicPointSpec) -> ObstructionReport:
    """Sum of local invariants over the adelic point, in (1/2)Z/Z."""
    evaluations = []
    total = Fraction(0)
    for pt in spec.overrides:
        inv = evaluate_local(cls, pt)
        evaluations.append((pt.place, inv))
        total += inv
    total = total - int(total)  # reduce mod Z
    return ObstructionReport(
        evaluations=tuple(evaluations),
        total=total,
        obstructed=(total != 0),
    )


def _fractions_of_height(h: int) -> list[Fraction]:
    """Reduced fractions a/b with max(|a|, b) exactly h, deterministic order."""
    out = []
    for a in range(-h, h + 1):
        if gcd(abs(a), h) == 1:
            out.append(Fraction(a, h))
    for b in range(1, h):
        for a in (-h, h):
            if gcd(h, b) == 1:
                out.append(Fraction(a, b))
    return out


def _pairs_by_height(height: int) -> Iterator[tuple[Fraction, list[Fraction]]]:
    """The (t0, x0) pairs by increasing height, as blocks (t0, [x0, ...])."""
    seen: list[Fraction] = []
    for h in range(1, height + 1):
        fresh = _fractions_of_height(h)
        for t0 in fresh:
            yield t0, seen
        for t0 in seen:
            yield t0, fresh
        for t0 in fresh:
            yield t0, fresh
        seen = seen + fresh


def excluded_parameters(curve: SplitCurve) -> tuple[Fraction, ...]:
    """Rational t0 over singular fibers, which sampling skips.

    The curve reads them once off the factors of p, q and p - q.
    """
    return curve.excluded_parameters()


def _sampled_points(
    curve: SplitCurve, place: RationalPlace, height: int
) -> Iterator[tuple[Fraction, Fraction, _Coordinates]]:
    """(t0, x0, coordinates) for every pair that local_points keeps, in order.

    p and q are evaluated once per distinct t0; parameters over singular
    fibers and poles of p or q map to None and are skipped.
    """
    fibers: dict[Fraction, _Fiber | None] = dict.fromkeys(
        excluded_parameters(curve)
    )
    prime = place.p
    for t0, xs in _pairs_by_height(height):
        if t0 not in fibers:
            try:
                fibers[t0] = _fiber(curve, t0)
            except DegeneratePointError:
                fibers[t0] = None
        fiber = fibers[t0]
        if fiber is None:
            continue
        for x0 in xs:
            coords = _coordinates(fiber, x0, prime)
            if coords is not None:
                yield t0, x0, coords


def local_points(
    curve: SplitCurve,
    place: RationalPlace,
    count: int,
    height: int = 20,
) -> list[SurfacePoint]:
    """Deterministic sample of points of the smooth locus over a completion.

    Enumerates rational (t0, x0) by increasing height, discards parameters
    over singular fibers, and keeps pairs whose y^2 value is zero or a
    square in the completion.  May return fewer than count points if the
    height budget runs out, and returns no point when count <= 0.
    """
    pairs = islice(_sampled_points(curve, place, height), max(count, 0))
    return [SurfacePoint.affine(x0, t0, place) for t0, x0, _ in pairs]


@value_class
class SamplingReport:
    """Evaluation of a class over sampled local points at one place.

    Sampling is evidence, not proof: vanishing on every sampled point
    does not decide vanishing on the full set of local points, and the
    note says so whenever this report is rendered.
    """

    place: RationalPlace
    requested: int
    height: int
    valid: int
    zero_count: int
    nonzero: tuple[tuple[Fraction, Fraction, Fraction], ...]
    skipped_degenerate: int
    excluded_params: tuple[Fraction, ...]
    note: str = (
        "sampling gives evidence over the tested points only; vanishing on "
        "all local points is not decided by this computation"
    )

    @property
    def all_zero(self) -> bool:
        return not self.nonzero


def sample_vanishing(
    cls: BrauerClass,
    place: RationalPlace,
    samples: int = 25,
    height: int = 20,
) -> SamplingReport:
    """Evaluate the class at the points local_points would sample."""
    points = islice(_sampled_points(cls.curve, place, height), max(samples, 0))
    entries: dict[Fraction, tuple[int | None, ...]] = {}
    zero_count = 0
    skipped = 0
    nonzero: list[tuple[Fraction, Fraction, Fraction]] = []
    valid = 0
    for t0, x0, coords in points:
        if t0 not in entries:
            entries[t0] = _entry_values(cls, t0)
        try:
            inv = _invariant(cls, entries[t0], t0, coords, place.p)
        except DegeneratePointError:
            skipped += 1
            continue
        valid += 1
        if inv == 0:
            zero_count += 1
        else:
            nonzero.append((t0, x0, inv))
    return SamplingReport(
        place=place,
        requested=samples,
        height=height,
        valid=valid,
        zero_count=zero_count,
        nonzero=tuple(nonzero),
        skipped_degenerate=skipped,
        excluded_params=excluded_parameters(cls.curve),
    )
