"""Tame residues of quaternion symbols over Q(t).

The expected square classes in TestReferenceSymbols were computed by hand
from the residue formula

    (f, g) |-> (-1)^(v(f) v(g)) * fbar^v(g) * gbar^v(f)  modulo squares

with fbar, gbar the unit parts at the place.  For example, at t - 1 the
first symbol has v(-p) = 3 because p = 3 (t-1)^3 (t+3), so the residue
is the class of 6 t (t+1) at t = 1, which is 12, i.e. the class of 3.
"""

import random
from fractions import Fraction

import pytest

from ellbrauer.exactalg import Polynomial, RationalFunction, T
from ellbrauer.funcfield import INFINITY, Place
from ellbrauer.residues import (
    QtBrauerClass,
    ResidueVerdict,
    UnramifiednessReport,
    Verdict,
    check_unramified_P1,
    residue_of_class,
    tame_symbol,
)
from ellbrauer.squareclass import FieldMode, class_of

P_POLY = 3 * (T - 1) ** 3 * (T + 3)
Q_POLY = 3 * (T + 1) ** 3 * (T - 3)
F_POLY = 6 * T * (T + 1)
G_POLY = 6 * T * (T - 1)


def _rational_class(n) -> object:
    return class_of(RationalFunction(Polynomial.constant(n)), FieldMode.RATIONALS_ONLY)


def reference_symbols() -> QtBrauerClass:
    return QtBrauerClass([(-P_POLY, F_POLY), (-Q_POLY, G_POLY)])


class TestTameSymbol:
    def test_both_valuations_even_is_trivially_one(self):
        verdict = tame_symbol(Place.finite(T**2 + 1), (T**2 + 1) ** 2, T)
        assert verdict.kind is Verdict.TRIVIALLY_ONE
        assert verdict.is_trivial() is True

    def test_steinberg_type_example(self):
        # (t, t) at t: residue is the class of -1
        verdict = tame_symbol(Place.finite(T), T, T)
        assert verdict.kind is Verdict.CLASS
        assert verdict.square_class == _rational_class(-1)
        assert verdict.is_trivial() is False

    def test_unit_evaluation(self):
        # (t - 4, t) at t: residue is the class of -4, which is -1
        verdict = tame_symbol(Place.finite(T), T - 4, T)
        assert verdict.square_class == _rational_class(-1)
        # (4 - t, t) at t picks up the class of 4: trivial
        verdict = tame_symbol(Place.finite(T), 4 - T, T)
        assert verdict.kind is Verdict.CLASS
        assert verdict.is_trivial() is True

    @pytest.mark.parametrize("f, g", [(0, T), (T, Polynomial()), (RationalFunction(0), 3)])
    def test_zero_entry_rejected(self, f, g):
        with pytest.raises(ValueError, match="nonzero entries"):
            tame_symbol(Place.finite(T), f, g)

    def test_infinity_place(self):
        # v_inf(t) = -1, v_inf(t^2+1) = -2: only the parity matters
        verdict = tame_symbol(INFINITY, T, T**2 + 1)
        assert verdict.kind is Verdict.CLASS
        assert verdict.square_class == _rational_class(1)

    def test_higher_degree_place_constant_square(self):
        # residue reduces to the constant 4 = 2^2 in Q[t]/(t^2+1)
        verdict = tame_symbol(Place.finite(T**2 + 1), T**2 + 1, Polynomial.constant(4))
        assert verdict.kind is Verdict.TRIVIALLY_ONE

    def test_higher_degree_place_constant_nonsquare_undetermined(self):
        # 2 is not a rational square; whether it is a square in the
        # degree two residue field is not decided here
        verdict = tame_symbol(Place.finite(T**2 + 1), T**2 + 1, Polynomial.constant(2))
        assert verdict.kind is Verdict.UNDETERMINED
        assert verdict.is_trivial() is None

    def test_higher_degree_place_nonconstant_undetermined(self):
        verdict = tame_symbol(Place.finite(T**2 + 1), T**2 + 1, T)
        assert verdict.kind is Verdict.UNDETERMINED

    def test_bimultiplicative_in_first_argument(self):
        rng = random.Random(29)
        place = Place.finite(T)
        pool = [T, T + 1, T - 2, Polynomial.constant(3), Polynomial.constant(-2)]
        for _ in range(40):
            f1 = _random_product(rng, pool)
            f2 = _random_product(rng, pool)
            g = _random_product(rng, pool)
            combined = tame_symbol(place, f1 * f2, g)
            left = tame_symbol(place, f1, g)
            right = tame_symbol(place, f2, g)
            assert _effective(combined) == _effective(left) + _effective(right)

    def test_rational_function_arguments(self):
        verdict = tame_symbol(
            Place.finite(T), RationalFunction(1, T), RationalFunction(T - 4)
        )
        assert verdict.square_class == _rational_class(-4)


class TestReferenceSymbols:
    """Residues of (-p, 6t(t+1)) + (-q, 6t(t-1)) at its six support places."""

    def test_support(self):
        names = [str(place) for place in reference_symbols().support()]
        assert names == ["t-3", "t-1", "t", "t+1", "t+3", "infinity"]

    def test_trivial_at_t(self):
        # both symbols contribute the class of 9
        verdict = residue_of_class(reference_symbols(), Place.finite(T))
        assert verdict.is_trivial() is True

    def test_cancellation_at_t_minus_one(self):
        # first symbol: residue 12; second: residue 48; both are 3 times
        # a square, so the sum cancels
        place = Place.at_rational(1)
        first = tame_symbol(place, RationalFunction(-P_POLY), RationalFunction(F_POLY))
        second = tame_symbol(place, RationalFunction(-Q_POLY), RationalFunction(G_POLY))
        assert first.square_class == _rational_class(12) == _rational_class(3)
        assert second.square_class == _rational_class(48) == _rational_class(3)
        assert residue_of_class(reference_symbols(), place).is_trivial() is True

    def test_cancellation_at_t_plus_one(self):
        assert residue_of_class(reference_symbols(), Place.at_rational(-1)).is_trivial() is True

    def test_trivial_at_three_and_minus_three(self):
        assert residue_of_class(reference_symbols(), Place.at_rational(3)).is_trivial() is True
        assert residue_of_class(reference_symbols(), Place.at_rational(-3)).is_trivial() is True

    def test_trivial_at_infinity(self):
        assert residue_of_class(reference_symbols(), INFINITY).is_trivial() is True

    def test_single_symbol_ramifies(self):
        single = QtBrauerClass([(-P_POLY, F_POLY)])
        verdict = residue_of_class(single, Place.at_rational(1))
        assert verdict.is_trivial() is False
        assert verdict.square_class == _rational_class(3)

    def test_whole_class_unramified(self):
        report = check_unramified_P1(reference_symbols())
        assert report.overall is True
        assert all(v.is_trivial() for v in report.verdicts)
        assert len(report.verdicts) == 6


class TestResidueOfClass:
    def test_classes_add(self):
        cls = QtBrauerClass([(T, T), (T - 4, T)])
        # residues at t: class(-1) + class(-4) = class(4) = trivial
        verdict = residue_of_class(cls, Place.finite(T))
        assert verdict.is_trivial() is True

    def test_undetermined_dominates(self):
        cls = QtBrauerClass([(T**2 + 1, T), (T, T)])
        verdict = residue_of_class(cls, Place.finite(T**2 + 1))
        assert verdict.kind is Verdict.UNDETERMINED

    def test_residues_multiply_before_the_square_test(self):
        place = Place.finite(T**2 + 1)
        # 2 and 8 are rational nonsquares, their product 16 a square
        two, eight = tame_symbol(place, T**2 + 1, 2), tame_symbol(place, T**2 + 1, 8)
        assert two.kind is eight.kind is Verdict.UNDETERMINED
        cls = QtBrauerClass([(T**2 + 1, 2), (T**2 + 1, 8)])
        assert residue_of_class(cls, place).kind is Verdict.TRIVIALLY_ONE
        # t * (-t) = -t^2 is 1 mod t^2 + 1
        cls = QtBrauerClass([(T**2 + 1, T), (T**2 + 1, -T)])
        assert residue_of_class(cls, place).kind is Verdict.TRIVIALLY_ONE
        # t * (t + 1) is t - 1 mod t^2 + 1: still open
        cls = QtBrauerClass([(T**2 + 1, T), (T**2 + 1, T + 1)])
        assert residue_of_class(cls, place).kind is Verdict.UNDETERMINED

    def test_all_trivially_one_collapses(self):
        cls = QtBrauerClass([((T**2 + 1) ** 2, T)])
        verdict = residue_of_class(cls, Place.finite(T**2 + 1))
        assert verdict.kind is Verdict.TRIVIALLY_ONE


class TestQtBrauerClass:
    def test_duplicate_symbols_cancel(self):
        cls = QtBrauerClass([(T, T + 1), (T, T + 1)])
        assert cls.is_zero()

    def test_order_is_canonical(self):
        a = QtBrauerClass([(T, T + 1), (T - 2, T)])
        b = QtBrauerClass([(T - 2, T), (T, T + 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_addition(self):
        a = QtBrauerClass([(T, T + 1)])
        b = QtBrauerClass([(T - 2, T)])
        total = a + b
        assert total == QtBrauerClass([(T, T + 1), (T - 2, T)])
        assert (total + a) == b

    def test_str(self):
        cls = QtBrauerClass([(T, T + 1)])
        assert "(" in str(cls) and "t+1" in str(cls)


class TestUnramifiednessReport:
    def test_ramified_wins_over_undetermined(self):
        place = Place.finite(T)
        ramified = ResidueVerdict(place, Verdict.CLASS, _rational_class(3))
        unknown = ResidueVerdict(Place.finite(T + 1), Verdict.UNDETERMINED, None)
        trivial = ResidueVerdict(INFINITY, Verdict.TRIVIALLY_ONE, None)
        report = UnramifiednessReport((ramified, unknown, trivial))
        assert report.overall is False

    def test_undetermined_blocks_a_yes(self):
        unknown = ResidueVerdict(Place.finite(T), Verdict.UNDETERMINED, None)
        trivial = ResidueVerdict(INFINITY, Verdict.TRIVIALLY_ONE, None)
        assert UnramifiednessReport((unknown, trivial)).overall is None

    def test_verdict_at(self):
        report = check_unramified_P1(reference_symbols())
        assert report.verdict_at(Place.finite(T)).is_trivial() is True
        # off the support the class is trivially unramified
        away = report.verdict_at(Place.at_rational(99))
        assert away.kind is Verdict.TRIVIALLY_ONE

    def test_undetermined_class_surfaces_in_report(self):
        cls = QtBrauerClass([(T**2 + 1, T)])
        report = check_unramified_P1(cls)
        assert report.overall is None


def _effective(verdict: ResidueVerdict):
    """The residue as a square class, with 'trivially one' made explicit."""
    if verdict.kind is Verdict.TRIVIALLY_ONE:
        return _rational_class(1)
    assert verdict.kind is Verdict.CLASS
    return verdict.square_class


def _random_product(rng: random.Random, pool) -> RationalFunction:
    out = Polynomial.constant(1)
    for base in pool:
        out = out * base ** rng.randint(0, 2)
    if rng.random() < 0.3:
        return RationalFunction(Polynomial.constant(1), out) if not out.is_constant() else RationalFunction(out)
    return RationalFunction(out)
