"""Weierstrass curves over Q(t) and Kodaira classification of their fibers.

The coefficient field has residue characteristic zero at every place, so
fiber types are read off the valuations of (c4, c6, disc) of a minimal
model, with no small-characteristic cases of Tate's algorithm.  Scaling
by u = pi^n shifts those valuations by 4n, 6n and 12n, so no model is
rebuilt.  Component counts and Euler contributions follow the standard
table, and the lattice rank bound follows Shioda-Tate: the classes of the
zero section, a general fiber, and the non-identity fiber components are
independent in the Neron-Severi group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import Polynomial, RationalFunction
from .funcfield import INFINITY, Place, places_of_support, valuation


class SingularCurveError(ValueError):
    """Raised when the discriminant vanishes identically."""


class ClassificationError(ValueError):
    """Raised when valuation data falls outside the fiber type table."""


class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q(t)."""

    __slots__ = (
        "a1", "a2", "a3", "a4", "a6", "split_p", "split_q", "_inv", "_excluded"
    )

    def __init__(self, a1, a2, a3, a4, a6) -> None:
        self.a1 = RationalFunction.coerce(a1)
        self.a2 = RationalFunction.coerce(a2)
        self.a3 = RationalFunction.coerce(a3)
        self.a4 = RationalFunction.coerce(a4)
        self.a6 = RationalFunction.coerce(a6)
        self.split_p: RationalFunction | None = None
        self.split_q: RationalFunction | None = None
        self._inv: tuple[RationalFunction, RationalFunction, RationalFunction] | None
        self._inv = None
        # Filled in by brauer.excluded_parameters.
        self._excluded: tuple[Fraction, ...] | None = None

    @staticmethod
    def from_split(p, q) -> "WeierstrassCurve":
        """The curve y^2 = x (x - p) (x - q)."""
        p, q = RationalFunction.coerce(p), RationalFunction.coerce(q)
        curve = WeierstrassCurve(0, -(p + q), 0, p * q, 0)
        curve.split_p = p
        curve.split_q = q
        return curve

    @property
    def is_split(self) -> bool:
        return self.split_p is not None

    def coefficients(self) -> tuple[RationalFunction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __hash__(self) -> int:
        return hash(("WeierstrassCurve", self.coefficients()))

    def __str__(self) -> str:
        if self.is_split:
            return f"y^2 = x*(x - ({self.split_p}))*(x - ({self.split_q}))"
        return (
            f"y^2 + ({self.a1})xy + ({self.a3})y = "
            f"x^3 + ({self.a2})x^2 + ({self.a4})x + ({self.a6})"
        )


def invariants(
    curve: WeierstrassCurve,
) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """The invariants (c4, c6, disc); raises SingularCurveError if disc = 0."""
    if curve._inv is not None:
        return curve._inv
    a1, a2, a3, a4, a6 = curve.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
    if disc.is_zero():
        raise SingularCurveError("discriminant vanishes identically")
    curve._inv = (c4, c6, disc)
    return curve._inv


@dataclass(frozen=True)
class KodairaType:
    """Fiber type: kind in {good, I, II, III, IV, I*, IV*, III*, II*}."""

    kind: str
    n: int = 0

    @staticmethod
    def good() -> "KodairaType":
        return KodairaType("good")

    @staticmethod
    def I(n: int) -> "KodairaType":
        if n < 1:
            raise ValueError("multiplicative fibers need n >= 1")
        return KodairaType("I", n)

    @staticmethod
    def I_star(n: int) -> "KodairaType":
        if n < 0:
            raise ValueError("I* index must be nonnegative")
        return KodairaType("I*", n)

    @property
    def components(self) -> int:
        """Number of irreducible components of the geometric fiber."""
        return {
            "good": 1,
            "I": max(self.n, 1),
            "II": 1,
            "III": 2,
            "IV": 3,
            "I*": 5 + self.n,
            "IV*": 7,
            "III*": 8,
            "II*": 9,
        }[self.kind]

    @property
    def euler(self) -> int:
        """Contribution to the Euler number of the surface."""
        return {
            "good": 0,
            "I": self.n,
            "II": 2,
            "III": 3,
            "IV": 4,
            "I*": 6 + self.n,
            "IV*": 8,
            "III*": 9,
            "II*": 10,
        }[self.kind]

    @property
    def is_multiplicative(self) -> bool:
        return self.kind == "I"

    @property
    def is_good(self) -> bool:
        return self.kind == "good"

    def __str__(self) -> str:
        if self.kind == "good":
            return "I_0"
        if self.kind == "I":
            return f"I_{self.n}"
        if self.kind == "I*":
            return f"I_{self.n}*"
        return self.kind


def _uniformizer(place: Place) -> RationalFunction:
    if place.is_infinite:
        return RationalFunction(1, Polynomial.variable())
    return RationalFunction(place.pi)


def _vals(
    place: Place, fns: Sequence[RationalFunction]
) -> tuple[int | None, ...]:
    return tuple(None if f.is_zero() else valuation(place, f) for f in fns)


_WEIGHTS = (4, 6, 12)  # scaling by u divides c4, c6, disc by u^4, u^6, u^12


def _minimal_shift(vals: tuple[int | None, int | None, int]) -> int:
    """Largest n with v(c4) >= 4n, v(c6) >= 6n and v(disc) >= 12n."""
    return min(v // k for v, k in zip(vals, _WEIGHTS) if v is not None)


def minimalize_at(
    place: Place, curve: WeierstrassCurve
) -> tuple[WeierstrassCurve, int]:
    """Rescale (x, y) -> (u^2 x, u^3 y) with u = pi^n to reach a minimal model.

    n is the largest shift keeping v(c4), v(c6), v(disc) nonnegative, so
    the resulting valuations satisfy the minimality criterion: not all of
    v(c4) >= 4, v(c6) >= 6, v(disc) >= 12.  n may be negative, which
    clears poles (the standard situation at infinity).
    """
    n = _minimal_shift(_vals(place, invariants(curve)))
    if n == 0:
        return curve, 0
    u = _uniformizer(place) ** n
    scaled = WeierstrassCurve(
        curve.a1 / u,
        curve.a2 / u**2,
        curve.a3 / u**3,
        curve.a4 / u**4,
        curve.a6 / u**6,
    )
    scaled.split_p = None if curve.split_p is None else curve.split_p / u**2
    scaled.split_q = None if curve.split_q is None else curve.split_q / u**2
    return scaled, n


@dataclass(frozen=True)
class FiberReport:
    place: Place
    kodaira: KodairaType
    components: int
    euler: int
    minimal_valuations: tuple[int | None, int | None, int]

    def __str__(self) -> str:
        return f"{self.place} : {self.kodaira}"


def kodaira_type_at(place: Place, curve: WeierstrassCurve) -> FiberReport:
    """Fiber type at one place, from minimal (c4, c6, disc) valuations.

    The minimal model scales by u = pi^n (see minimalize_at), which shifts
    the valuations of the given curve by 4n, 6n and 12n; none is rebuilt.
    """
    vals = _vals(place, invariants(curve))
    n = _minimal_shift(vals)
    minimal = tuple(
        None if v is None else v - k * n for v, k in zip(vals, _WEIGHTS)
    )
    kodaira = _classify(*minimal)
    return FiberReport(
        place, kodaira, kodaira.components, kodaira.euler, minimal
    )


def _classify(vc4: int | None, vc6: int | None, vd: int) -> KodairaType:
    a = 10**9 if vc4 is None else vc4  # identically zero c4 counts as large
    if vd == 0:
        return KodairaType.good()
    if a == 0:
        return KodairaType.I(vd)
    if vd == 2 and a >= 1:
        return KodairaType("II")
    if vd == 3 and a == 1:
        return KodairaType("III")
    if vd == 4 and a >= 2:
        return KodairaType("IV")
    if vd == 6 and a >= 2:
        return KodairaType.I_star(0)
    if vd >= 7 and a == 2:
        return KodairaType.I_star(vd - 6)
    if vd == 8 and a >= 3:
        return KodairaType("IV*")
    if vd == 9 and a == 3:
        return KodairaType("III*")
    if vd == 10 and a >= 4:
        return KodairaType("II*")
    raise ClassificationError(
        f"valuations (v(c4), v(c6), v(disc)) = ({vc4}, {vc6}, {vd}) "
        "fall outside the fiber type table"
    )


@dataclass(frozen=True)
class SurfaceReport:
    """Bad fibers plus the numerology they force on the elliptic surface."""

    fibers: tuple[FiberReport, ...]
    euler_number: int
    chi: int
    is_K3: bool
    rank_R: int
    picard_bound: int
    mw_rank_bound: int
    semistable: bool


def classify_surface(
    curve: WeierstrassCurve, picard_bound: int | None = None
) -> SurfaceReport:
    """Classify every bad fiber and aggregate the surface invariants.

    A place can only be bad if the discriminant has nonzero valuation
    there or some invariant has a pole, so the candidate set is the
    support of disc, the denominator factors of c4 and c6, and infinity.
    On a split curve the support of p, q and p - q is factored instead;
    it contains that set, since disc = 16 p^2 q^2 (p - q)^2 and c4, c6
    are polynomials in p and q.
    Euler contributions and component counts are weighted by the degree
    of the place, which is the number of geometric points below it.
    """
    c4, c6, disc = invariants(curve)
    if curve.is_split:
        p, q = curve.split_p, curve.split_q
        supports = (p, q, p - q)
    else:
        supports = (disc, c4.den, c6.den)
    finite = [pl for pl in places_of_support(supports) if not pl.is_infinite]
    reports = []
    for place in finite + [INFINITY]:
        rep = kodaira_type_at(place, curve)
        if not rep.kodaira.is_good:
            reports.append(rep)
    euler = sum(r.place.degree * r.euler for r in reports)
    if euler <= 0 or euler % 12:
        raise ClassificationError(
            f"total Euler contribution {euler} is not a positive multiple "
            "of 12; not a relatively minimal elliptic surface with section"
        )
    chi = euler // 12
    # Lefschetz bounds the Picard number by h^{1,1} = 10*chi for an
    # elliptic surface with section over the projective line.
    bound = 10 * chi if picard_bound is None else picard_bound
    rank_r = 2 + sum(r.place.degree * (r.components - 1) for r in reports)
    if bound < rank_r:
        raise ValueError(
            f"picard bound {bound} is below the fiber lattice rank {rank_r}"
        )
    return SurfaceReport(
        fibers=tuple(reports),
        euler_number=euler,
        chi=chi,
        is_K3=(chi == 2),
        rank_R=rank_r,
        picard_bound=bound,
        mw_rank_bound=bound - rank_r,
        semistable=all(r.kodaira.is_multiplicative for r in reports),
    )
