"""The reference checks that `ellbrauer verify` renders.

Each fixed check recomputes one link of the chain behind the obstruction
on the reference surface and compares it with the known value; sampled
vanishing of the reference class adds one check per place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brauer import (
    REFERENCE_PAIR, DegeneratePointError, SurfacePoint, adelic_pairing,
    evaluate_local, local_points, reference_adelic_point, reference_class,
    reference_curve, sample_vanishing,
)
from .descent import (
    CurvePoint, TranscendenceVerdict, brauer_image, descent_image,
    descent_pair_functions, transcendence_test,
)
from .elliptic import classify_surface, invariants
from .exactalg import RationalFunction, T
from .funcfield import Place
from .hilbert import RationalPlace
from .residues import QtBrauerClass, check_unramified_P1, residue_of_class
from .squareclass import FieldMode, SquareClassVector, independent

# The 2-torsion points of the split curve: record key, label, point.
TORSION_POINTS = (
    ("identity", "O", CurvePoint.zero()),
    ("p", "(p,0)", CurvePoint.two_torsion_p()),
    ("q", "(q,0)", CurvePoint.two_torsion_q()),
    ("origin", "(0,0)", CurvePoint.two_torsion_origin()),
)

_EXPECTED_FIBERS = "t-3 I_2, t-1 I_6, t I_2, t+1 I_6, t+3 I_2, infinity I_6"


@dataclass(frozen=True)
class Check:
    """A check passes when problems is empty; evidence backs its values.

    place is None for a fixed check; a sampling check has its place and
    a summary of the points it evaluated.
    """

    name: str
    problems: list[str]
    evidence: list[str]
    place: RationalPlace | None = None
    summary: str = ""


CheckResult = tuple[list[str], list[str]]


def _check_surface() -> CheckResult:
    curve = reference_curve()
    problems = []
    p, q = curve.split_p, curve.split_q
    c4, c6, disc = invariants(curve)
    if c4**3 - c6**2 != 1728 * disc:
        problems.append("c4^3 - c6^2 != 1728 * discriminant")
    if disc != 16 * (p * q) ** 2 * (p - q) ** 2:
        problems.append("discriminant != 16 p^2 q^2 (p-q)^2")
    if q != p.substitute(-T):
        problems.append("q(t) != p(-t)")
    if p - q != RationalFunction(48 * T):
        problems.append("p(t) - q(t) != 48t")
    report = classify_surface(curve)
    fibers = ", ".join(f"{f.place} {f.kodaira}" for f in report.fibers)
    if fibers != _EXPECTED_FIBERS:
        problems.append(f"fiber table {fibers} != {_EXPECTED_FIBERS}")
    for name, got, want in (
        ("euler number", report.euler_number, 24),
        ("chi", report.chi, 2),
        ("K3", report.is_K3, True),
        ("rank upper bound", report.rank_R, 20),
        ("Mordell-Weil rank bound", report.mw_rank_bound, 0),
        ("semistable", report.semistable, True),
    ):
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")
    evidence = [
        "q(t) = p(-t) and p(t) - q(t) = 48t",
        f"fibers {fibers}",
        "euler 24, chi 2, K3, rank bound 20, MW rank bound 0, semistable",
    ]
    return problems, evidence


def _check_descent() -> CheckResult:
    curve = reference_curve()
    mode = FieldMode.CONSTANTS_ARE_SQUARES
    problems = []
    # Each expected entry is a product of distinct monic linear factors,
    # so its square class is the set of those factors.
    expectations = {
        "p": ([T], [T, T - 1, T + 3]),
        "q": ([T, T + 1, T - 3], [T]),
        "origin": ([T + 1, T - 3], [T - 1, T + 3]),
    }
    images = {
        key: descent_image(point, curve, mode) for key, _, point in TORSION_POINTS
    }
    for key, factors in expectations.items():
        expected = tuple(
            SquareClassVector(mode, False, frozenset(), frozenset(f)) for f in factors
        )
        if images[key].as_tuple() != expected:
            problems.append(f"descent image at {key} is {images[key]}")
    if not images["identity"].is_zero():
        problems.append("identity has a nontrivial image")
    total = images["p"] + images["q"]
    if total.as_tuple() != images["origin"].as_tuple():
        problems.append("images of (p,0) and (q,0) do not sum to (0,0)")
    if not independent([images["p"].as_tuple(), images["q"].as_tuple()]):
        problems.append("torsion images are dependent")
    evidence = [
        f"image (p,0) = {images['p']}",
        f"image (q,0) = {images['q']}",
        "images sum to the image of (0,0) and are independent",
    ]
    return problems, evidence


def _check_transcendence() -> CheckResult:
    curve = reference_curve()
    result = transcendence_test(*REFERENCE_PAIR, curve, mw_rank_bound=0)
    if result.verdict is not TranscendenceVerdict.TRANSCENDENTAL:
        return [f"verdict = {result.verdict.value}, expected transcendental"], []
    return [], [f"transcendental: {result.reason}"]


def _check_residues() -> CheckResult:
    problems = []
    cls = reference_class().restrict_to_origin()
    report = check_unramified_P1(cls)
    if report.overall is not True:
        problems.append(f"unramifiedness came out {report.overall}")
    single = QtBrauerClass(cls.symbols[:1])
    lone = residue_of_class(single, Place.at_rational(1))
    if lone.is_trivial() is not False:
        problems.append(
            "the first symbol alone should ramify at t - 1; both symbols "
            "are needed"
        )
    evidence = [
        f"residues trivial at all {len(report.verdicts)} support places",
        "the first symbol alone ramifies at t-1, so cancellation is real",
    ]
    return problems, evidence


def _check_local_invariants() -> CheckResult:
    problems = []
    cls = reference_class()
    two = RationalPlace.prime(2)
    witness = SurfacePoint.affine(1, 2, two)
    inv = evaluate_local(cls, witness)
    if inv != Fraction(1, 2):
        problems.append(f"invariant at {witness} = {inv}, expected 1/2")
    torsion_x = reference_curve().split_p(2)
    at_torsion = evaluate_local(cls, SurfacePoint.affine(torsion_x, 2, two))
    if at_torsion != 0:
        problems.append(
            f"invariant at the two torsion section over t = 2 is {at_torsion}"
        )
    evidence = [
        f"invariant {inv} at {witness}",
        f"invariant {at_torsion} at the torsion section over t = 2",
    ]
    return problems, evidence


def _check_exactness() -> CheckResult:
    curve = reference_curve()
    images = [
        (label, brauer_image(*descent_pair_functions(torsion, curve), curve))
        for key, label, torsion in TORSION_POINTS
        if key != "identity"
    ]
    checked = 0
    problems = []
    for prime in (2, 3, 5):
        place = RationalPlace.prime(prime)
        for point in local_points(curve, place, 4, height=12):
            for label, image in images:
                try:
                    inv = evaluate_local(image, point)
                except DegeneratePointError:
                    continue
                checked += 1
                if inv != 0:
                    problems.append(
                        f"image of {label} has invariant {inv} at {point}"
                    )
    if checked < 9:
        problems.append(f"only {checked} exactness evaluations ran")
    evidence = [
        f"{checked} evaluations of torsion images over 2, 3 and 5, all 0"
    ]
    return problems, evidence


def _check_obstruction() -> CheckResult:
    report = adelic_pairing(reference_class(), reference_adelic_point())
    if report.total != Fraction(1, 2) or not report.obstructed:
        return [f"adelic sum = {report.total}, expected 1/2"], []
    return [], ["adelic sum 1/2 at the distinguished 2-adic point"]


def _check_sampling(place: RationalPlace, samples: int, height: int) -> Check:
    report = sample_vanishing(reference_class(), place, samples, height)
    problems = []
    if report.valid == 0:
        problems.append("no valid points")
    elif report.nonzero:
        t0, x0, inv = report.nonzero[0]
        problems.append(f"invariant {inv} at t = {t0}, x = {x0}")
    evidence = [f"height {height}, {report.skipped_degenerate} degenerate skipped"]
    summary = f"{report.valid} points, all invariants 0"
    return Check("sampling", problems, evidence, place, summary)


def reference_checks(
    places: list[RationalPlace], samples: int = 25, height: int = 20
) -> list[Check]:
    """The seven fixed checks, then one sampling check per place.

    Sampling evaluates up to samples points of height at most height; it
    is evidence over those points only.
    """
    fixed = (
        ("surface", _check_surface),
        ("descent", _check_descent),
        ("transcendence", _check_transcendence),
        ("residues", _check_residues),
        ("local invariants", _check_local_invariants),
        ("exactness", _check_exactness),
        ("obstruction", _check_obstruction),
    )
    checks = [Check(name, *run()) for name, run in fixed]
    checks += [_check_sampling(place, samples, height) for place in places]
    return checks
