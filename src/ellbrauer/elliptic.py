"""Weierstrass curves over Q(t) and Kodaira classification of their fibers.

The coefficient field has residue characteristic zero at every place, so
fiber types are read off the valuations of (c4, c6, disc) of a minimal
model, with no small-characteristic cases of Tate's algorithm.  Scaling
by u = pi^n shifts those valuations by 4n, 6n and 12n, so no model is
rebuilt.  Component counts and Euler contributions follow the standard
table, and the lattice rank bound follows Shioda-Tate: the classes of the
zero section, a general fiber, and the non-identity fiber components are
independent in the Neron-Severi group.

The paper's surfaces are split curves y^2 = x (x - p) (x - q), a
SplitCurve (from WeierstrassCurve.from_split).  It owns what p, q and
p - q determine, and only this module computes it: the lazy a2 and a4,
the factorizations, the factor base and its places, and the excluded
parameters, all read off the factors of p, q and p - q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._valueclass import value_class
from .exactalg import (
    Factorization, Polynomial, RationalFunction, factor_over, poly_factor,
)
from .funcfield import INFINITY, Place, places_of_support, valuation


class SingularCurveError(ValueError):
    """Raised when the discriminant vanishes identically."""


class ClassificationError(ValueError):
    """Raised when valuation data falls outside the fiber type table."""


_ZERO = RationalFunction(0)


class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q(t), immutable.

    invariants() computes (c4, c6, disc) once and keeps them on the curve.
    """

    __slots__ = ("_coeffs", "_inv")
    is_split = False

    def __init__(self, a1, a2, a3, a4, a6) -> None:
        self._coeffs = tuple(map(RationalFunction.coerce, (a1, a2, a3, a4, a6)))
        self._inv: tuple[RationalFunction, ...] | None = None

    @staticmethod
    def from_split(p, q) -> "SplitCurve":
        """The curve y^2 = x (x - p) (x - q), as a SplitCurve."""
        return SplitCurve(p, q)

    def coefficients(self) -> tuple[RationalFunction, ...]:
        return self._coeffs

    a1, a2, a3, a4, a6 = (
        property(lambda self, i=i: self.coefficients()[i]) for i in range(5)
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __hash__(self) -> int:
        return hash(("WeierstrassCurve", self.coefficients()))

    def __str__(self) -> str:
        return (
            f"y^2 + ({self.a1})xy + ({self.a3})y = "
            f"x^3 + ({self.a2})x^2 + ({self.a4})x + ({self.a6})"
        )

    def _candidate_places(self) -> list[Place]:
        c4, c6, disc = invariants(self)
        places = places_of_support((disc, c4.den, c6.den))
        return [pl for pl in places if not pl.is_infinite]

    def _scaled(self, u: RationalFunction) -> "WeierstrassCurve":
        return WeierstrassCurve(
            *(a / u**k for a, k in zip(self.coefficients(), (1, 2, 3, 4, 6)))
        )


class SplitCurve(WeierstrassCurve):
    """y^2 = x (x - p) (x - q), holding p, q and p - q, all read-only.

    What they determine is computed here, on first use, and kept: a2 =
    -(p + q) and a4 = p q (coefficients(); descent never forms them), the
    factorizations of p, q and p - q (split_factors), their factor base
    (factor_base), whose places are the candidate places, and the excluded
    parameters, none of which expands disc = 16 p^2 q^2 (p - q)^2.  A
    degenerate curve (0, p, q not distinct) raises SingularCurveError
    where disc is needed.
    """

    __slots__ = ("_p", "_q", "_p_minus_q", "_factors", "_base", "_excluded")
    is_split = True

    def __init__(self, p, q) -> None:
        self._p, self._q = RationalFunction.coerce(p), RationalFunction.coerce(q)
        self._p_minus_q = self._p - self._q
        self._coeffs = self._inv = self._base = self._excluded = None
        self._factors: dict[Polynomial, Factorization] = {}

    split_p = property(lambda self: self._p)
    split_q = property(lambda self: self._q)
    split_p_minus_q = property(lambda self: self._p_minus_q)

    @property
    def is_degenerate(self) -> bool:
        """Whether 0, p and q fail to be distinct, so that disc = 0."""
        return not (self._p and self._q and self._p_minus_q)

    def coefficients(self) -> tuple[RationalFunction, ...]:
        if self._coeffs is None:
            p, q = self._p, self._q
            self._coeffs = (_ZERO, -(p + q), _ZERO, p * q, _ZERO)
        return self._coeffs

    def __str__(self) -> str:
        return f"y^2 = x*(x - ({self._p}))*(x - ({self._q}))"

    def _candidate_places(self) -> list[Place]:
        return [Place(base) for base in factor_base(self)]

    def _scaled(self, u: RationalFunction) -> "SplitCurve":
        u2 = u**2
        return SplitCurve(self._p / u2, self._q / u2)

    def excluded_parameters(self) -> tuple[Fraction, ...]:
        """Rational t0 over singular fibers, in order: the roots of the
        linear bases where v(disc) = 2 (v(p) + v(q) + v(p - q)) is nonzero.
        """
        if self._excluded is None:
            v: dict[Polynomial, int] = {}
            for f in (self._p, self._q, self._p_minus_q):
                for fac, sign in zip(split_factors(self, f), (1, -1)):
                    for base, e in fac.factors:
                        v[base] = v.get(base, 0) + sign * e
            self._excluded = tuple(
                sorted(-b.coeff(0) for b, n in v.items() if n and b.degree == 1)
            )
        return self._excluded


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


def split_factors(
    curve: SplitCurve, f: RationalFunction
) -> tuple[Factorization, Factorization]:
    """Factorizations of the numerator and denominator of f = p, q or p - q.

    Each polynomial is factored once per curve and kept on it, for the
    factor base, the excluded parameters and the torsion descent images.
    A zero f makes the discriminant vanish: SingularCurveError.
    """
    if not f:
        raise SingularCurveError("discriminant vanishes identically")
    cache = curve._factors
    for poly in (f.num, f.den):
        if poly not in cache:
            cache[poly] = poly_factor(poly)
    return cache[f.num], cache[f.den]


def factor_base(curve: SplitCurve) -> tuple[Polynomial, ...]:
    """The monic irreducible factors of p, q and p - q, in sort order
    (lowest degree first); built once per curve and kept on it.
    """
    if curve._base is None:
        bases = {
            base
            for f in (curve.split_p, curve.split_q, curve.split_p_minus_q)
            for fac in split_factors(curve, f)
            for base, _ in fac.factors
        }
        curve._base = tuple(sorted(bases, key=Polynomial.sort_key))
    return curve._base


def base_factors(
    curve: SplitCurve, f: RationalFunction
) -> tuple[Factorization, Factorization]:
    """Factorizations of the numerator and denominator of a nonzero f.

    The curve's factor base is divided out first and only the cofactor is
    factored, after Bernstein's coprime bases ("Factoring into coprimes in
    essentially linear time", J. Algorithms 2005).  The result is
    poly_factor's, as factorization into monic irreducibles is unique.
    """
    base = factor_base(curve)
    return factor_over(f.num, base), factor_over(f.den, base)


def candidate_places(curve: WeierstrassCurve) -> list[Place]:
    """Sorted finite places where the fiber can be singular.

    A place can only be bad if the discriminant has nonzero valuation
    there or some invariant has a pole, so the candidates are the support
    of disc and the denominator factors of c4 and c6; on a split curve,
    the places of its factor base, which contains them (c4 and c6 are
    polynomials in p and q).  Raises SingularCurveError if disc = 0.
    """
    return curve._candidate_places()


# Kodaira's table: components and Euler number at n = 0, and whether n adds
# to both.  I_0 is a smooth fiber, of one component.
_KODAIRA_TABLE = {
    "good": (1, 0, 0), "I": (0, 0, 1), "I*": (5, 6, 1),
    "II": (1, 2, 0), "III": (2, 3, 0), "IV": (3, 4, 0),
    "II*": (9, 10, 0), "III*": (8, 9, 0), "IV*": (7, 8, 0),
}


@value_class
class KodairaType:
    """Fiber type: kind in {good, I, II, III, IV, I*, IV*, III*, II*}.

    components and euler read one table, _KODAIRA_TABLE, of each kind's
    values at n = 0; I_n and I_n* add n to both.  Each fiber type has one
    value: a kind without an index stores n = 0, and I_0 is good.  An
    unknown kind or a negative n raises ValueError.
    """

    kind: str
    n: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KODAIRA_TABLE:
            raise ValueError(f"unknown fiber kind {self.kind!r}")
        if self.n < 0:
            raise ValueError(f"{self.kind} index must be nonnegative")
        if not _KODAIRA_TABLE[self.kind][2]:
            self.__dict__["n"] = 0
        elif self.kind == "I" and self.n == 0:
            self.__dict__["kind"] = "good"

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
        return KodairaType("I*", n)

    @property
    def components(self) -> int:
        """Number of irreducible components of the geometric fiber."""
        components, _, grows = _KODAIRA_TABLE[self.kind]
        return components + grows * self.n

    @property
    def euler(self) -> int:
        """Contribution to the Euler number of the surface."""
        _, euler, grows = _KODAIRA_TABLE[self.kind]
        return euler + grows * self.n

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
    clears poles (the standard situation at infinity).  A split curve
    scales to the split curve with p / u^2 and q / u^2.
    """
    n = _minimal_shift(_vals(place, invariants(curve)))
    if n == 0:
        return curve, 0
    return curve._scaled(_uniformizer(place) ** n), n


@value_class
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


@value_class
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

    The fibers over candidate_places and over infinity are classified.
    Euler contributions and component counts are weighted by the degree
    of the place, which is the number of geometric points below it.
    """
    reports = []
    for place in candidate_places(curve) + [INFINITY]:
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
