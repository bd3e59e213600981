"""Property tests of polynomial evaluation against a Fraction Horner loop."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ellbrauer.exactalg import Polynomial  # noqa: E402


def horner_reference(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


rationals = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(), st.integers(min_value=1, max_value=10**60)),
)
points = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
    ),
)


@settings(deadline=None)
@given(st.lists(rationals, max_size=12), points)
def test_call_matches_fraction_horner(coeffs, x):
    value = Polynomial(coeffs)(x)
    assert isinstance(value, Fraction)
    assert value == horner_reference(coeffs, Fraction(x))


@given(points)
def test_zero_polynomial_is_zero_everywhere(x):
    assert Polynomial()(x) == 0
    assert Polynomial([0, 0])(x) == 0
