"""Relations of ev_A and the surface's invariants on random split curves.

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

Base change: BaseChange(a, b, c, d), t = (a s + b) / (c s + d) with
ad - bc != 0, takes the surface to p'(s) = (c s + d)^4 p(t), q' likewise,
and A to the class of f'(s) = (c s + d)^2 f(t) and g'; the point
(x0, t0) goes to (x0 (c s0 + d)^4, s0), and every coordinate and entry
changes by a square, so the invariant is the same.  So do the fiber
types, at the places BaseChange.place maps them to, and the
transcendence verdict; check_unramified_P1 of the class on x = 0 may
become undetermined but never flips between True and False.

Negating t: BaseChange(-1, 0, 0, 1) followed by swap_roots pulls A back to
the curve with p'(s) = q(-s) and q'(s) = p(-s) (the roots of
x(x - p)(x - q) swap), so ev_A'(x0, -t0) = ev_A(x0, t0), and
classify_surface gives the pulled-back curve the same fiber types at the
negated places, pi(t) -> pi(-t) made monic, with infinity fixed.

The maps form a group acting on curves, classes, points and places: the
identity fixes each, the map of m followed by the map of n is the map of
the matrix product m n exactly (not just up to squares), and the
Fraction inverse undoes a map.  swap_roots undoes itself and commutes
with every base change.

The transcendence test decides with one elimination over the two torsion
images and the target; on the same random curves it must give the
verdict, reason and combination that independent() and then in_span()
give on images and a target computed apart, by descent_image and class_of.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ellbrauer.brauer import (  # noqa: E402
    BaseChange,
    DegeneratePointError,
    SurfacePoint,
    evaluate_local,
    local_points,
    swap_roots,
)
from ellbrauer.descent import (  # noqa: E402
    CurvePoint,
    DescentPair,
    TranscendenceVerdict,
    brauer_image,
    descent_image,
    transcendence_test,
)
from ellbrauer.elliptic import SplitCurve, classify_surface  # noqa: E402
from ellbrauer.exactalg import Polynomial  # noqa: E402
from ellbrauer.funcfield import places_of_support  # noqa: E402
from ellbrauer.hilbert import REAL, RationalPlace, hilbert_symbol  # noqa: E402
from ellbrauer.residues import check_unramified_P1  # noqa: E402
from ellbrauer.squareclass import FieldMode, class_of, in_span, independent  # noqa: E402
from test_base_change import entry_pair  # noqa: E402

PLACES = (REAL, RationalPlace.prime(2), RationalPlace.prime(3))
polys = st.builds(Polynomial, st.lists(st.integers(-6, 6), min_size=1, max_size=3))
entries = st.integers(-3, 3)
maps = st.tuples(entries, entries, entries, entries).filter(
    lambda m: m[0] * m[3] != m[1] * m[2]
)
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
@given(polys, polys, polys, polys, maps)
def test_base_change_on_random_curves(p, q, f, g, m):
    hypothesis.assume(p and q and p != q and f and g)
    curve = SplitCurve(p, q)
    cls = brauer_image(f, g, curve)
    change = BaseChange(*m)
    moved = change.brauer_class(cls)
    for place in PLACES:
        for point in local_points(curve, place, 20, height=8):
            try:
                image = change.point(point)
            except ValueError:  # t0 lies over s = infinity
                continue
            try:
                expected = evaluate_local(cls, point)
            except DegeneratePointError:
                continue
            assert evaluate_local(moved, image) == expected, (p, q, f, g, m, place, point)


def _fiber_types(curve, change=None):
    """Each bad fiber's type by place, its place mapped by change,
    or the ValueError that classify_surface raises.
    """
    try:
        report = classify_surface(curve)
    except ValueError as exc:
        return type(exc), str(exc)
    return {
        fiber.place if change is None else change.place(fiber.place): fiber.kodaira
        for fiber in report.fibers
    }


@settings(deadline=None, max_examples=150)
@given(polys, polys, polys, polys)
# The image of (q, 0) in the span of a nonzero image of (p, 0): equal to it
# (p = t^2, q = 1), and zero (p = 4 - t^2, q = 4).
@example(Polynomial([0, 0, 1]), Polynomial([1]), Polynomial([0, 1]), Polynomial([1]))
@example(Polynomial([4, 0, -1]), Polynomial([4]), Polynomial([0, 1]), Polynomial([1]))
def test_one_elimination_decides_as_independent_then_in_span(p, q, f, g):
    hypothesis.assume(p and q and p != q and f and g)
    curve, mode = SplitCurve(p, q), FieldMode.CONSTANTS_ARE_SQUARES
    gens = tuple(
        descent_image(point, curve, mode)
        for point in (CurvePoint.two_torsion_p(), CurvePoint.two_torsion_q())
    )
    target = DescentPair(class_of(f, mode), class_of(g, mode))
    rows = [gen.as_tuple() for gen in gens]
    member, combo = in_span(target.as_tuple(), rows)
    if not independent(rows):
        expected = (
            TranscendenceVerdict.UNKNOWN,
            "torsion images are dependent and do not span the kernel",
            None,
        )
    elif member:
        expected = (
            TranscendenceVerdict.ALGEBRAIC_OVER_C,
            "target equals the recorded combination of torsion images",
            tuple(combo),
        )
    else:
        expected = (
            TranscendenceVerdict.TRANSCENDENTAL,
            "target lies outside the span of the torsion images",
            None,
        )
    result = transcendence_test(f, g, curve, 0)
    assert (result.target, result.generators) == (target, gens)
    assert (result.verdict, result.reason, result.combination) == expected, (p, q, f, g)


NEGATE = BaseChange(-1, 0, 0, 1)


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys, polys)
def test_negating_t_on_random_curves(p, q, f, g):
    hypothesis.assume(p and q and p != q and f and g)
    curve = SplitCurve(p, q)
    cls = brauer_image(f, g, curve)
    pulled = swap_roots(NEGATE.brauer_class(cls))
    assert _fiber_types(pulled.curve) == _fiber_types(curve, NEGATE), (p, q)
    for place in PLACES:
        for point in local_points(curve, place, 20, height=8):
            try:
                expected = evaluate_local(cls, point)
            except DegeneratePointError:
                continue
            image = SurfacePoint.affine(point.x0, -point.t0, place)
            assert NEGATE.point(point) == image
            assert evaluate_local(pulled, image) == expected, (p, q, f, g, place, point)


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys, polys, maps)
# True before the change and undetermined after it: a residue 324 s^4 at a
# place of degree 2 is a square, which the constant-only test cannot see.
@example(
    Polynomial([-4]), Polynomial([-1]), Polynomial([6, -4, -1]), Polynomial([-3, -2]),
    (2, -3, 3, 0),
)
def test_invariants_under_random_base_change(p, q, f, g, m):
    hypothesis.assume(p and q and p != q and f and g)
    cls = brauer_image(f, g, SplitCurve(p, q))
    change = BaseChange(*m)
    moved = change.brauer_class(cls)
    assert _fiber_types(moved.curve) == _fiber_types(cls.curve, change), (p, q, m)
    f1, g1 = entry_pair(moved)
    verdicts = (
        transcendence_test(f, g, cls.curve, 0).verdict,
        transcendence_test(f1, g1, moved.curve, 0).verdict,
    )
    assert verdicts[0] is verdicts[1], (p, q, f, g, m)
    unramified = {
        check_unramified_P1(c.restrict_to_origin()).overall for c in (cls, moved)
    }
    assert unramified != {True, False}, (p, q, f, g, m)


def _product(m, n):
    """The matrix of t = m(n(r)), so the base change by m and then by n."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _inverse(m):
    a, b, c, d = m
    det = Fraction(a * d - b * c)
    return d / det, -b / det, -c / det, a / det


def _or_error(action, item):
    """action(item), or ValueError for a point that lands over infinity."""
    try:
        return action(item)
    except ValueError:
        return ValueError


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys, polys, maps, maps)
def test_base_changes_form_a_group(p, q, f, g, m, n):
    hypothesis.assume(p and q and p != q and f and g)
    curve = SplitCurve(p, q)
    cls = brauer_image(f, g, curve)
    items = [("curve", curve), ("brauer_class", cls)]
    items += [("place", v) for v in places_of_support([p, q, p - q])]
    items += [("point", SurfacePoint.zero_section(REAL))]
    for place in PLACES:
        items += [("point", pt) for pt in local_points(curve, place, 5, height=6)]
    matrices = ((1, 0, 0, 1), m, n, _product(m, n), _inverse(m))
    changes = [BaseChange(*k) for k in matrices]
    for name, item in items:
        identity, first, then, both, undo = (getattr(c, name) for c in changes)
        assert identity(item) == item, (name, item)
        moved = _or_error(first, item)
        if moved is ValueError:
            assert name == "point", (m, name, item)
            continue
        assert undo(moved) == item, (m, name, item)
        assert _or_error(then, moved) == _or_error(both, item), (m, n, name, item)
    change = changes[1]
    assert swap_roots(swap_roots(cls)) == cls
    assert swap_roots(change.brauer_class(cls)) == change.brauer_class(swap_roots(cls))
