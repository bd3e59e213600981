"""A split curve forms a2 and a4 lazily, and reads as if it had not.

from_split(p, q) keeps p, q and p - q and forms a2 = -(p + q) and
a4 = p q on first use.  Whichever reader comes first, the curve must
answer as the eagerly built curve with the same p and q does: in
coefficients(), ==, hash, str, invariants and minimalize_at.

The split curve also finds its bad fibers from the factors of p, q and
p - q, where a general curve expands the discriminant; the fiber table
and the excluded parameters must come out the same either way.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ellbrauer.brauer import excluded_parameters  # noqa: E402
from ellbrauer.elliptic import (  # noqa: E402
    WeierstrassCurve,
    candidate_places,
    classify_surface,
    invariants,
    minimalize_at,
)
from ellbrauer.exactalg import Polynomial, RationalFunction, T  # noqa: E402
from ellbrauer.funcfield import INFINITY, places_of_support, valuation  # noqa: E402

coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
polys = st.builds(
    Polynomial, st.lists(coefficients, min_size=1, max_size=3)
).filter(bool)
# Polynomials and quotients of them, with rational coefficients.
rational_functions = st.one_of(
    st.builds(RationalFunction, polys),
    st.builds(RationalFunction, polys, polys),
)


def eager_split(p: RationalFunction, q: RationalFunction) -> WeierstrassCurve:
    """A split curve with every coefficient formed before any reader asks."""
    curve = WeierstrassCurve.from_split(p, q)
    curve.coefficients()
    return curve


def _scaled(curve: WeierstrassCurve, n: int) -> tuple:
    return (
        n, curve.coefficients(), curve.split_p, curve.split_q,
        curve.split_p_minus_q, str(curve),
    )


@settings(deadline=None, max_examples=60)
@given(rational_functions, rational_functions)
def test_lazy_split_curve_reads_as_the_eager_one(p, q):
    hypothesis.assume(not p.is_zero() and not q.is_zero() and p != q)
    eager = eager_split(p, q)
    generic = WeierstrassCurve(0, -(p + q), 0, p * q, 0)

    # A fresh lazy curve per reader, so each one is the first to ask.
    def lazy() -> WeierstrassCurve:
        return WeierstrassCurve.from_split(p, q)

    assert lazy().coefficients() == eager.coefficients() == generic.coefficients()
    assert lazy().a2 == eager.a2 and lazy().a4 == eager.a4
    assert lazy() == eager and lazy() == generic and eager == lazy()
    assert hash(lazy()) == hash(eager) == hash(generic)
    curve = lazy()
    assert str(curve) == str(eager) == f"y^2 = x*(x - ({p}))*(x - ({q}))"
    curve.coefficients()
    assert str(curve) == str(eager)
    assert invariants(lazy()) == invariants(eager) == invariants(generic)
    for place in candidate_places(eager) + [INFINITY]:
        scaled, n = minimalize_at(place, lazy())
        assert _scaled(scaled, n) == _scaled(*minimalize_at(place, eager))
        assert (scaled, n) == minimalize_at(place, generic)


def _outcome(fn, *args):
    """fn's value, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _excluded_from_the_discriminant(p, q) -> tuple[Fraction, ...]:
    """Roots of the degree-1 places in the support of the expanded
    discriminant at which v(disc) != 0: the rule before split curves
    read them off the factors of p, q and p - q.
    """
    _, _, disc = invariants(WeierstrassCurve(0, -(p + q), 0, p * q, 0))
    return tuple(
        sorted(
            -place.pi.coeff(0)
            for place in places_of_support([disc])
            if place.degree == 1
            and not place.is_infinite
            and valuation(place, disc) != 0
        )
    )


@settings(deadline=None, max_examples=60)
@given(rational_functions, rational_functions)
@example(RationalFunction(T), RationalFunction(T))
@example(RationalFunction(0), RationalFunction(T))
@example(RationalFunction(T**2), RationalFunction(1, T))
def test_split_curve_classifies_as_the_general_curve(p, q):
    generic = WeierstrassCurve(0, -(p + q), 0, p * q, 0)
    assert _outcome(classify_surface, WeierstrassCurve.from_split(p, q)) == _outcome(
        classify_surface, generic
    )
    assert _outcome(excluded_parameters, WeierstrassCurve.from_split(p, q)) == (
        _outcome(_excluded_from_the_discriminant, p, q)
    )
