"""Local and adelic evaluation of curve Brauer classes at rational places.

A symbol (x - p, f) is evaluated at a point of the surface lying over a
place v of Q by specializing both entries to numbers and taking a Hilbert
symbol.  When a coordinate entry vanishes at the point, the curve
equation y^2 = x (x - p) (x - q) rewrites it modulo squares (the rule is
descent._coordinate_value), which is what makes evaluation at 2-torsion
points possible.

The module also ships the reference surface: the split curve with
p(t) = 3 (t - 1)^3 (t + 3) and q(t) = p(-t), an elliptic K3 surface whose
quaternion class built from (6t(t+1), 6t(t-1)) pairs nontrivially with an
adelic point concentrated at the prime 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator

from .descent import BrauerClass, _coordinate_value, brauer_image
from .elliptic import WeierstrassCurve, invariants
from .exactalg import Polynomial, T
from .funcfield import places_of_support
from .hilbert import RationalPlace, hilbert_symbol, qp_is_square


class DegeneratePointError(ValueError):
    """Raised when a symbol entry and its substitute both vanish at a point."""


@lru_cache(maxsize=1)
def reference_curve() -> WeierstrassCurve:
    """The split curve with p = 3(t-1)^3(t+3) and q(t) = p(-t)."""
    t = Polynomial.variable()
    p = 3 * (t - 1) ** 3 * (t + 3)
    q = 3 * (t + 1) ** 3 * (t - 3)
    return WeierstrassCurve.from_split(p, q)


# The pair (f, g) of the reference class (x - p, f) + (x - q, g).
REFERENCE_PAIR = (6 * T * (T + 1), 6 * T * (T - 1))


@lru_cache(maxsize=1)
def reference_class() -> BrauerClass:
    """The class (x - p, 6t(t+1)) + (x - q, 6t(t-1)) on the reference curve."""
    return brauer_image(*REFERENCE_PAIR, reference_curve())


@dataclass(frozen=True)
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
        return SurfacePoint(place, Fraction(t0), Fraction(x0))

    @staticmethod
    def zero_section(place: RationalPlace) -> "SurfacePoint":
        return SurfacePoint(place, at_zero_section=True)

    def __str__(self) -> str:
        if self.at_zero_section:
            return f"zero section at {self.place}"
        return f"(x = {self.x0}, t = {self.t0}) at {self.place}"


def _split_values(curve: WeierstrassCurve, t0: Fraction) -> tuple[Fraction, Fraction]:
    """(p(t0), q(t0)); raises DegeneratePointError at a pole of p or q."""
    try:
        return curve.split_p(t0), curve.split_q(t0)
    except ZeroDivisionError as exc:
        raise DegeneratePointError(
            f"curve coefficients have a pole at t = {t0}"
        ) from exc


def is_local_point(curve: WeierstrassCurve, point: SurfacePoint) -> bool:
    """Whether the point lies on the curve over the completion at its place."""
    if point.at_zero_section:
        return True
    return _on_curve(point.x0, *_split_values(curve, point.t0), point.place)


def _on_curve(x0: Fraction, p0: Fraction, q0: Fraction, place: RationalPlace) -> bool:
    """Whether x0 (x0 - p0) (x0 - q0) is zero or a square at the place."""
    w = x0 * (x0 - p0) * (x0 - q0)
    return w == 0 or qp_is_square(w, place)


def evaluate_local(cls: BrauerClass, point: SurfacePoint) -> Fraction:
    """Local invariant of the class at the point: 0 or 1/2 in Q/Z.

    Raises ValueError if the point is not on the curve over its
    completion, and DegeneratePointError if the value is undetermined.
    """
    if point.at_zero_section:
        return Fraction(0)
    p0, q0 = _split_values(cls.curve, point.t0)
    if not _on_curve(point.x0, p0, q0, point.place):
        raise ValueError(f"{point} is not on the curve over its completion")
    return _invariant(cls, point.place, point.t0, point.x0, p0, q0)


def _invariant(
    cls: BrauerClass,
    place: RationalPlace,
    t0: Fraction,
    x0: Fraction,
    p0: Fraction,
    q0: Fraction,
) -> Fraction:
    """Local invariant at the affine point (x0, t0), given p0 = p(t0), q0 = q(t0)."""
    flips = 0
    x_minus_p, x_minus_q = x0 - p0, x0 - q0
    for coord, f in cls.symbols:
        try:
            fv = f(t0)
        except ZeroDivisionError as exc:
            raise DegeneratePointError(
                f"symbol entry {f} has a pole at t = {t0}"
            ) from exc
        if fv == 0:
            raise DegeneratePointError(f"symbol entry {f} vanishes at t = {t0}")
        a = _coordinate_value(coord, x0, x_minus_p, x_minus_q)
        if a == 0:
            raise DegeneratePointError(
                f"coordinate {coord.value} and its substitute both vanish; the "
                "point lies on a singular fiber"
            )
        if hilbert_symbol(a, fv, place).sign < 0:
            flips += 1
    return Fraction(flips % 2, 2)


@dataclass(frozen=True)
class AdelicPointSpec:
    """Adelic point: the zero section everywhere, except listed overrides."""

    overrides: tuple[SurfacePoint, ...] = ()

    def __post_init__(self) -> None:
        places = [pt.place for pt in self.overrides]
        if len(set(places)) != len(places):
            raise ValueError("at most one override per place")


def reference_adelic_point() -> AdelicPointSpec:
    """Zero section away from 2; (x, t) = (1, 2) in the fiber at t = 2 over Q_2."""
    return AdelicPointSpec(
        (SurfacePoint.affine(1, 2, RationalPlace.prime(2)),)
    )


@dataclass(frozen=True)
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
    from math import gcd

    out = []
    for a in range(-h, h + 1):
        if gcd(abs(a), h) == 1:
            out.append(Fraction(a, h))
    for b in range(1, h):
        for a in (-h, h):
            if gcd(h, b) == 1:
                out.append(Fraction(a, b))
    return out


def _pairs_by_height(height: int) -> Iterator[tuple[Fraction, Fraction]]:
    seen: list[Fraction] = []
    for h in range(1, height + 1):
        fresh = _fractions_of_height(h)
        for t0 in fresh:
            for x0 in seen:
                yield t0, x0
        for t0 in seen:
            for x0 in fresh:
                yield t0, x0
        for t0 in fresh:
            for x0 in fresh:
                yield t0, x0
        seen.extend(fresh)


def excluded_parameters(curve: WeierstrassCurve) -> tuple[Fraction, ...]:
    """Rational t0 over singular fibers: roots of the discriminant's support.

    Computed once per curve and cached on it.
    """
    if curve._excluded is None:
        _, _, disc = invariants(curve)
        curve._excluded = tuple(
            sorted(
                -place.pi.coeff(0)
                for place in places_of_support([disc])
                if not place.is_infinite and place.degree == 1
            )
        )
    return curve._excluded


def _sampled_points(
    curve: WeierstrassCurve, place: RationalPlace, height: int
) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """(t0, x0, p(t0), q(t0)) for every pair that local_points keeps, in order.

    p and q are evaluated once per distinct t0; parameters over singular
    fibers and poles of p or q map to None and are skipped.
    """
    fibers: dict[Fraction, tuple[Fraction, Fraction] | None] = dict.fromkeys(
        excluded_parameters(curve)
    )
    for t0, x0 in _pairs_by_height(height):
        if t0 not in fibers:
            try:
                fibers[t0] = _split_values(curve, t0)
            except DegeneratePointError:
                fibers[t0] = None
        values = fibers[t0]
        if values is not None and _on_curve(x0, *values, place):
            yield (t0, x0, *values)


def local_points(
    curve: WeierstrassCurve,
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
    return [SurfacePoint.affine(x0, t0, place) for t0, x0, _, _ in pairs]


@dataclass(frozen=True)
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
    zero_count = 0
    skipped = 0
    nonzero: list[tuple[Fraction, Fraction, Fraction]] = []
    valid = 0
    for t0, x0, p0, q0 in points:
        try:
            inv = _invariant(cls, place, t0, x0, p0, q0)
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
