"""Base change of the parameter line carries every verdict over.

A map t = (a s + b) / (c s + d) of the projective line, with ad - bc != 0,
takes the reference surface y^2 = x (x - p) (x - q) to the surface with
p'(s) = (c s + d)^4 p(t) and q'(s) = (c s + d)^4 q(t): p and q have
degree at most 4, so p' and q' are polynomials, and the surface stays a
K3 in the same weighted model.  The class (x - p, f) + (x - q, g) goes to
(x - p', f') + (x - q', g') with f'(s) = (c s + d)^2 f(t), and likewise
g'.  With lambda = (c s0 + d)^4, the point (x0, t0) goes to
(lambda x0, s0): each coordinate and each entry changes by a square, so
the local invariant is the same.  Only public names are used.
"""

from collections import Counter
from fractions import Fraction

import pytest

from ellbrauer import (
    REAL,
    Polynomial,
    RationalPlace,
    SurfacePoint,
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


def _pulled_back(poly: Polynomial, weight: int, a, b, c, d) -> Polynomial:
    """(c s + d)^weight * poly((a s + b) / (c s + d)), for deg poly <= weight."""
    s = Polynomial.variable()
    out = Polynomial()
    for i, coeff in enumerate(poly.coeffs):
        out = out + coeff * (a * s + b) ** i * (c * s + d) ** (weight - i)
    return out


def _surface(m):
    curve = WeierstrassCurve.from_split(*(_pulled_back(h, 4, *m) for h in (P, Q)))
    f, g = (_pulled_back(h, 2, *m) for h in (F, G))
    return curve, f, g


REFERENCE = _surface((1, 0, 0, 1))


def test_identity_map_is_the_reference():
    curve, f, g = REFERENCE
    assert (curve.split_p, curve.split_q, f, g) == (P, Q, F, G)


@pytest.mark.parametrize("m", MAPS, ids=str)
def test_fibers_and_invariants_carry_over(m):
    curve, _, _ = _surface(m)
    report, reference = classify_surface(curve), classify_surface(REFERENCE[0])
    kinds = Counter(str(fiber.kodaira) for fiber in report.fibers)
    assert kinds == Counter(str(fiber.kodaira) for fiber in reference.fibers)
    assert kinds == Counter({"I_6": 3, "I_2": 3})
    assert report.is_K3 and report.rank_R == 20


@pytest.mark.parametrize("m", MAPS, ids=str)
def test_verdicts_carry_over(m):
    curve, f, g = _surface(m)
    restricted = brauer_image(f, g, curve).restrict_to_origin()
    assert check_unramified_P1(restricted).overall is True
    verdict = transcendence_test(f, g, curve, 0).verdict
    assert verdict is TranscendenceVerdict.TRANSCENDENTAL


@pytest.mark.parametrize("m", MAPS, ids=str)
def test_local_invariants_carry_over(m):
    a, b, c, d = m
    curve, f, g = _surface(m)
    reference, moved = brauer_image(F, G, REFERENCE[0]), brauer_image(f, g, curve)
    skipped, seen = 0, set()
    for place in PLACES:
        points = local_points(REFERENCE[0], place, 300, height=30)
        assert len(points) == 300
        for point in points:
            t0, x0 = point.t0, point.x0
            if a == c * t0:  # t0 lies over s = infinity
                skipped += 1
                continue
            s0 = Fraction(d * t0 - b) / (a - c * t0)
            image = SurfacePoint.affine(x0 * (c * s0 + d) ** 4, s0, place)
            expected = evaluate_local(reference, point)
            assert evaluate_local(moved, image) == expected, (place, t0, x0)
            seen.add(expected)
    assert skipped == (38 if m == (2, 1, 1, 1) else 0)
    assert seen == {0, Fraction(1, 2)}
