"""Four relations of ev_A on random split curves.

``test_brauer`` and ``test_base_change`` check them on the reference
surface; here p, q, f and g are drawn from Z[t] of degree at most 2 with
coefficients in [-6, 6], and A = (x - p, f) + (x - q, g), at the real
place, 2 and 3.  Points where evaluation is undetermined are skipped.

Translation by a 2-torsion point: on the fiber over t0, T = (e, 0) with
e = p0 or q0 and o the other root moves P = (x0, y0) to P + T with
x' = e + e (e - o) / (x0 - e), and

    ev_A(P + T) - ev_A(P) = (e (e - o), f0) + (e - o, g0)   for T = (p, 0),
                            (e - o, f0) + (e (e - o), g0)   for T = (q, 0),

a sum of Hilbert symbols at t0 alone.  Points where f or g vanishes, and
x0 = e (P + T is the zero section), are skipped too.

Local constancy: ev_A is locally constant, so the 2-torsion point (e, t0)
and the point x = e + c h on the same fiber, with c = e (e - o), share
their invariant.  There y^2 = c^2 h (1 + e h)(1 + (e - o) h), a square
for h = l^40 in Q_l and for h = 10^-40 in R.  At x = e evaluation
rewrites the vanishing coordinate, and at x = e + c h it does not.

Base change: t = (a s + b) / (c s + d) with ad - bc != 0 takes the
surface to p'(s) = (c s + d)^4 p(t), q' likewise, and A to the class of
f'(s) = (c s + d)^2 f(t) and g'; the point (x0, t0) goes to
(x0 (c s0 + d)^4, s0), and every coordinate and entry changes by a
square, so the invariant is the same.

Negating t: BrauerClass.substitute_neg_t pulls A back to the curve with
p'(s) = q(-s) and q'(s) = p(-s) (the roots of x(x - p)(x - q) swap), so
ev_A'(x0, -t0) = ev_A(x0, t0), and classify_surface gives the pulled-back
curve the same fiber types at the negated places, pi(t) -> pi(-t) made
monic, with infinity fixed.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ellbrauer.brauer import (  # noqa: E402
    DegeneratePointError,
    SurfacePoint,
    evaluate_local,
    local_points,
)
from ellbrauer.descent import brauer_image  # noqa: E402
from ellbrauer.elliptic import SplitCurve, classify_surface  # noqa: E402
from ellbrauer.exactalg import Polynomial, T  # noqa: E402
from ellbrauer.funcfield import Place  # noqa: E402
from ellbrauer.hilbert import REAL, RationalPlace, hilbert_symbol  # noqa: E402
from test_base_change import _pulled_back  # noqa: E402

PLACES = (REAL, RationalPlace.prime(2), RationalPlace.prime(3))
polys = st.builds(Polynomial, st.lists(st.integers(-6, 6), min_size=1, max_size=3))
entries = st.integers(-3, 3)
# The fibers over which local constancy is checked.
PARAMETERS = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2)})


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys, polys)
def test_translation_by_two_torsion_on_random_curves(p, q, f, g):
    hypothesis.assume(p and q and p != q and f and g)
    curve = SplitCurve(p, q)
    cls = brauer_image(f, g, curve)
    for place in PLACES:
        for point in local_points(curve, place, 20, height=8):
            t0, x0 = point.t0, point.x0
            f0, g0 = f(t0), g(t0)
            if f0 == 0 or g0 == 0:
                continue
            p0, q0 = curve.split_p(t0), curve.split_q(t0)
            for root in ("p", "q"):
                e, o = (p0, q0) if root == "p" else (q0, p0)
                if x0 == e:
                    continue
                moved = SurfacePoint.affine(e + e * (e - o) / (x0 - e), t0, place)
                a, b = (e * (e - o), e - o) if root == "p" else (e - o, e * (e - o))
                base = hilbert_symbol(a, f0, place) * hilbert_symbol(b, g0, place)
                try:
                    shift = evaluate_local(cls, moved) - evaluate_local(cls, point)
                except DegeneratePointError:
                    continue
                assert shift % 1 == base.inv, (p, q, f, g, place, t0, x0, root)


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys, polys)
def test_local_constancy_on_random_curves(p, q, f, g):
    hypothesis.assume(p and q and p != q and f and g)
    curve = SplitCurve(p, q)
    cls = brauer_image(f, g, curve)
    for place in PLACES:
        h = Fraction(1, 10**40) if place == REAL else Fraction(place.p**40)
        for t0 in PARAMETERS:
            p0, q0 = curve.split_p(t0), curve.split_q(t0)
            for e, o in ((p0, q0), (q0, p0)):
                c = e * (e - o)
                if c == 0:  # e is a double root: a singular fiber
                    continue
                try:
                    at_e = evaluate_local(cls, SurfacePoint.affine(e, t0, place))
                except DegeneratePointError:
                    continue
                near = SurfacePoint.affine(e + c * h, t0, place)
                assert evaluate_local(cls, near) == at_e, (p, q, f, g, place, t0, e)


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys, polys, entries, entries, entries, entries)
def test_base_change_on_random_curves(p, q, f, g, a, b, c, d):
    hypothesis.assume(p and q and p != q and f and g and a * d != b * c)
    m = (a, b, c, d)
    curve = SplitCurve(p, q)
    moved_curve = SplitCurve(_pulled_back(p, 4, *m), _pulled_back(q, 4, *m))
    cls = brauer_image(f, g, curve)
    moved = brauer_image(_pulled_back(f, 2, *m), _pulled_back(g, 2, *m), moved_curve)
    for place in PLACES:
        for point in local_points(curve, place, 20, height=8):
            t0, x0 = point.t0, point.x0
            if a == c * t0:  # t0 lies over s = infinity
                continue
            try:
                expected = evaluate_local(cls, point)
            except DegeneratePointError:
                continue
            s0 = Fraction(d * t0 - b) / (a - c * t0)
            image = SurfacePoint.affine(x0 * (c * s0 + d) ** 4, s0, place)
            assert evaluate_local(moved, image) == expected, (p, q, f, g, m, place, t0)


def _fiber_types(curve, negate: bool):
    """Each bad fiber's type by place, with pi(t) -> pi(-t) under negate,
    or the ValueError that classify_surface raises.
    """
    try:
        report = classify_surface(curve)
    except ValueError as exc:
        return type(exc), str(exc)
    fibers = {}
    for fiber in report.fibers:
        place = fiber.place
        if negate and not place.is_infinite:
            place = Place(place.pi.compose(-T).monic())
        fibers[place] = fiber.kodaira
    return fibers


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys, polys)
def test_negating_t_on_random_curves(p, q, f, g):
    hypothesis.assume(p and q and p != q and f and g)
    curve = SplitCurve(p, q)
    cls = brauer_image(f, g, curve)
    pulled = cls.substitute_neg_t()
    assert _fiber_types(pulled.curve, False) == _fiber_types(curve, True), (p, q)
    for place in PLACES:
        for point in local_points(curve, place, 20, height=8):
            try:
                expected = evaluate_local(cls, point)
            except DegeneratePointError:
                continue
            image = SurfacePoint.affine(point.x0, -point.t0, place)
            assert evaluate_local(pulled, image) == expected, (p, q, f, g, place, point)
