"""Translation by a 2-torsion point, on random split curves.

``test_brauer.TestTranslationByTwoTorsion`` checks the relation on the
reference surface; here p, q, f and g are drawn from Z[t] of degree at
most 2 with coefficients in [-6, 6].  On the fiber over t0, T = (e, 0)
with e = p0 or q0 and o the other root moves P = (x0, y0) to P + T with
x' = e + e (e - o) / (x0 - e), and for A = (x - p, f) + (x - q, g)

    ev_A(P + T) - ev_A(P) = (e (e - o), f0) + (e - o, g0)   for T = (p, 0),
                            (e - o, f0) + (e (e - o), g0)   for T = (q, 0),

a sum of Hilbert symbols at t0 alone.  Points where f or g vanishes, where
x0 = e (P + T is the zero section), or where evaluation is undetermined
are skipped.
"""

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
from ellbrauer.elliptic import SplitCurve  # noqa: E402
from ellbrauer.exactalg import Polynomial  # noqa: E402
from ellbrauer.hilbert import REAL, RationalPlace, hilbert_symbol  # noqa: E402

PLACES = (REAL, RationalPlace.prime(2), RationalPlace.prime(3))
polys = st.builds(Polynomial, st.lists(st.integers(-6, 6), min_size=1, max_size=3))


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
