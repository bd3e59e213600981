"""Property tests of the F2 sum laws shared by both formal symbol classes."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ellbrauer.brauer import reference_curve  # noqa: E402
from ellbrauer.descent import BrauerClass, CurveCoordinate  # noqa: E402
from ellbrauer.exactalg import Polynomial, RationalFunction, T  # noqa: E402
from ellbrauer.residues import QtBrauerClass  # noqa: E402

# A small pool, so that random sums repeat symbols and cancellation happens.
ENTRIES = [
    Polynomial.constant(-1),
    Polynomial.constant(3),
    T,
    T + 1,
    2 * T - 3,
    T**2 + 1,
    RationalFunction(T, T - 2),
]

qt_pairs = st.lists(
    st.tuples(st.sampled_from(ENTRIES), st.sampled_from(ENTRIES)), max_size=6
)
curve_pairs = st.lists(
    st.tuples(st.sampled_from(list(CurveCoordinate)), st.sampled_from(ENTRIES)),
    max_size=6,
)


def qt_class(pairs):
    return QtBrauerClass(pairs)


def curve_class(pairs):
    return BrauerClass(reference_curve(), pairs)


KINDS = [
    pytest.param(qt_class, qt_pairs, id="QtBrauerClass"),
    pytest.param(curve_class, curve_pairs, id="BrauerClass"),
]


@pytest.mark.parametrize("build, pairs", KINDS)
class TestSumLaws:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_every_class_is_its_own_inverse(self, build, pairs, data):
        a = build(data.draw(pairs))
        assert (a + a).is_zero()
        assert a + a == build([])

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_addition_commutes_and_associates(self, build, pairs, data):
        a, b, c = (build(data.draw(pairs)) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_input_order_does_not_matter(self, build, pairs, data):
        drawn = data.draw(pairs)
        shuffled = data.draw(st.permutations(drawn))
        a, b = build(drawn), build(shuffled)
        assert a == b
        assert a.symbols == b.symbols
        assert str(a) == str(b)
        assert hash(a) == hash(b)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_sum_is_the_class_of_the_concatenation(self, build, pairs, data):
        first, second = data.draw(pairs), data.draw(pairs)
        total = build(first) + build(second)
        assert total == build(first + second)
        assert hash(total) == hash(build(first + second))


@settings(deadline=None, max_examples=60)
@given(qt_pairs, curve_pairs)
def test_the_two_kinds_never_compare_equal(qt, on_curve):
    a, b = qt_class(qt), curve_class(on_curve)
    assert a != b and b != a
    assert QtBrauerClass([]) != BrauerClass(reference_curve(), [])
    with pytest.raises(TypeError):
        a + b
