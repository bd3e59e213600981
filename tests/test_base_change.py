"""Base change of the parameter line carries every verdict over.

A map t = (a s + b) / (c s + d) of the projective line, with ad - bc != 0,
takes the reference surface y^2 = x (x - p) (x - q) to the surface with
p'(s) = (c s + d)^4 p(t) and q'(s) = (c s + d)^4 q(t): p and q have
degree at most 4, so p' and q' are polynomials, and the surface stays a
K3 in the same weighted model.  The class (x - p, f) + (x - q, g) goes to
(x - p', f') + (x - q', g') with f'(s) = (c s + d)^2 f(t), and likewise
g'.  With lambda = (c s0 + d)^4, the point (x0, t0) goes to
(lambda x0, s0): each coordinate and each entry changes by a square, so
the local invariant is the same.  ``BaseChange`` is that action; only
public names are used.
"""

from collections import Counter
from fractions import Fraction

import pytest

from ellbrauer import (
    REAL,
    BaseChange,
    BrauerClass,
    CurveCoordinate,
    Polynomial,
    RationalFunction,
    RationalPlace,
    TranscendenceVerdict,
    WeierstrassCurve,
    brauer_image,
    check_unramified_P1,
    classify_surface,
    evaluate_local,
    local_points,
    transcendence_test,
)

T = Polynomial.variable()
P = 3 * (T - 1) ** 3 * (T + 3)
Q = 3 * (T + 1) ** 3 * (T - 3)
F, G = 6 * T * (T + 1), 6 * T * (T - 1)

# (a, b, c, d); the second map sends infinity to 0, the third 2 to infinity.
MAPS = [(1, 2, 0, 1), (0, 1, 1, 0), (2, 1, 1, 1)]
PLACES = [REAL, RationalPlace.prime(2), RationalPlace.prime(3), RationalPlace.prime(5)]


REFERENCE = brauer_image(F, G, WeierstrassCurve.from_split(P, Q))


def entry_pair(cls):
    """The pair (f, g) of a class (x - p, f) + (x - q, g)."""
    by_coordinate = dict(cls.symbols)
    return tuple(
        by_coordinate.get(coord, 1)
        for coord in (CurveCoordinate.X_MINUS_P, CurveCoordinate.X_MINUS_Q)
    )


def test_identity_map_is_the_reference():
    moved = BaseChange(1, 0, 0, 1).brauer_class(REFERENCE)
    curve, (f, g) = moved.curve, entry_pair(moved)
    assert (curve.split_p, curve.split_q, f, g) == (P, Q, F, G)


def test_entries_pull_back_with_weight_two():
    # f = 1/t under t = 1/s: (c s + d)^2 f(t) = s^2 * s = s^3, a polynomial
    # because the denominator's degree counts towards the weight.
    cls = BrauerClass(REFERENCE.curve, [(CurveCoordinate.X, RationalFunction(1, T))])
    moved = BaseChange(0, 1, 1, 0).brauer_class(cls)
    assert moved.symbols == ((CurveCoordinate.X, RationalFunction(T**3)),)


@pytest.mark.parametrize("m", MAPS, ids=str)
def test_fibers_and_invariants_carry_over(m):
    curve = BaseChange(*m).curve(REFERENCE.curve)
    report, reference = classify_surface(curve), classify_surface(REFERENCE.curve)
    kinds = Counter(str(fiber.kodaira) for fiber in report.fibers)
    assert kinds == Counter(str(fiber.kodaira) for fiber in reference.fibers)
    assert kinds == Counter({"I_6": 3, "I_2": 3})
    assert report.is_K3 and report.rank_R == 20


@pytest.mark.parametrize("m", MAPS, ids=str)
def test_verdicts_carry_over(m):
    moved = BaseChange(*m).brauer_class(REFERENCE)
    curve, (f, g) = moved.curve, entry_pair(moved)
    restricted = moved.restrict_to_origin()
    assert check_unramified_P1(restricted).overall is True
    verdict = transcendence_test(f, g, curve, 0).verdict
    assert verdict is TranscendenceVerdict.TRANSCENDENTAL


@pytest.mark.parametrize("m", MAPS, ids=str)
def test_local_invariants_carry_over(m):
    change = BaseChange(*m)
    moved = change.brauer_class(REFERENCE)
    skipped, seen = 0, set()
    for place in PLACES:
        points = local_points(REFERENCE.curve, place, 300, height=30)
        assert len(points) == 300
        for point in points:
            try:
                image = change.point(point)
            except ValueError:  # t0 lies over s = infinity
                skipped += 1
                continue
            expected = evaluate_local(REFERENCE, point)
            assert evaluate_local(moved, image) == expected, (place, point)
            seen.add(expected)
    assert skipped == (38 if m == (2, 1, 1, 1) else 0)
    assert seen == {0, Fraction(1, 2)}
