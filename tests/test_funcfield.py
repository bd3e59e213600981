"""Places of Q(t), valuations, and residues of unit parts."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from ellbrauer import exactalg, funcfield
from ellbrauer.brauer import reference_class, reference_curve
from ellbrauer.elliptic import WeierstrassCurve, classify_surface
from ellbrauer.exactalg import Polynomial, RationalFunction, T
from ellbrauer.funcfield import (
    INFINITY,
    Place,
    places_of_support,
    residue,
    valuation,
)
from ellbrauer.residues import Verdict, check_unramified_P1, tame_symbol


def _caller(frame):
    """The frame that asked for a division, past the operator wrappers."""
    while frame.f_code.co_name in ("__floordiv__", "__mod__", "divides"):
        frame = frame.f_back
    return frame


class TestPlace:
    def test_finite_requires_monic_irreducible(self):
        assert Place.finite(T - 1).pi == T - 1
        with pytest.raises(ValueError):
            Place.finite(2 * T)
        with pytest.raises(ValueError):
            Place.finite(T**2 - 1)
        with pytest.raises(ValueError):
            Place.finite(Polynomial.constant(3))

    def test_at_rational(self):
        assert Place.at_rational(1).pi == T - 1
        assert Place.at_rational(Fraction(-1, 2)).pi == T + Fraction(1, 2)

    @pytest.mark.parametrize("r", [0.5, 1.0, "1/2"])
    def test_at_rational_rejects_non_rationals(self, r):
        with pytest.raises(TypeError):
            Place.at_rational(r)

    def test_degree(self):
        assert Place.finite(T).degree == 1
        assert Place.finite(T**2 + 1).degree == 2
        assert INFINITY.degree == 1

    def test_str(self):
        assert str(Place.finite(T + 3)) == "t+3"
        assert str(INFINITY) == "infinity"

    def test_equality_and_hash(self):
        assert Place.finite(T) == Place.at_rational(0)
        assert len({Place.finite(T), Place.at_rational(0), INFINITY}) == 2

    def test_sorting_finite_by_degree_then_infinity_last(self):
        places = [INFINITY, Place.finite(T**2 + 1), Place.finite(T), Place.finite(T - 1)]
        ordered = sorted(places, key=Place.sort_key)
        assert [str(p) for p in ordered] == ["t-1", "t", "t^2+1", "infinity"]


class TestValuation:
    def test_reference_example(self):
        f = RationalFunction(T**3, T - 1)
        assert valuation(Place.finite(T), f) == 3
        assert valuation(Place.at_rational(1), f) == -1
        assert valuation(INFINITY, f) == -2
        assert valuation(Place.at_rational(5), f) == 0

    def test_infinity_counts_degree_drop(self):
        assert valuation(INFINITY, RationalFunction(1, T**4)) == 4
        assert valuation(INFINITY, RationalFunction(T**4)) == -4
        assert valuation(INFINITY, RationalFunction(3)) == 0

    def test_additive_in_products(self):
        rng = random.Random(17)
        pool = [T, T + 1, T - 2, T**2 + 1]
        for _ in range(30):
            f = _random_ratfunc(rng, pool)
            g = _random_ratfunc(rng, pool)
            for place in [Place.finite(T), Place.finite(T**2 + 1), INFINITY]:
                assert valuation(place, f * g) == valuation(place, f) + valuation(place, g)

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            valuation(Place.finite(T), RationalFunction(0))

    def test_degree_weighted_sum_vanishes(self):
        # the divisor of a nonzero function on the projective line has
        # degree zero: sum of v(f) * deg(v) over all places is 0
        rng = random.Random(23)
        pool = [T, T + 1, T - 2, T**2 + 1, T**2 - 2]
        for _ in range(30):
            f = _random_ratfunc(rng, pool)
            total = sum(
                valuation(place, f) * place.degree
                for place in places_of_support([f])
            )
            assert total == 0


def _called(place, f):
    """(v, residue) with the residue thunk called."""
    v, thunk = residue(place, f)
    return v, thunk()


class TestUnitPart:
    def test_finite_residue(self):
        f = RationalFunction(T**3, T - 1)
        assert _called(Place.finite(T), f) == (3, -1)

    def test_infinite_residue_is_leading_ratio(self):
        f = RationalFunction(3 * T**2 + 1, 5 * T**3)
        assert _called(INFINITY, f) == (1, Fraction(3, 5))

    def test_reduced_unit_any_degree(self):
        place = Place.finite(T**2 + 1)
        assert _called(place, RationalFunction(T**3 + 2)) == (0, -T + 2)
        # t^2 + 1 itself reduces to its unit cofactor: here exactly 1
        assert _called(place, RationalFunction(T**2 + 1)) == (1, Polynomial.constant(1))
        # denominators are inverted modulo the place polynomial
        got = residue(place, RationalFunction(1, T))[1]()
        assert (got * T) % (T**2 + 1) == Polynomial.constant(1)

    def test_unit_part_matches_evaluation(self):
        place = Place.at_rational(2)
        f = RationalFunction((T - 2) ** 2 * (T + 1), T)
        v, u = _called(place, f)
        assert v == 2
        g = f / RationalFunction((T - 2) ** 2)
        assert u == g(2)


class TestDegreeOnePlaces:
    """Valuations and residues at t - a by integer synthetic division."""

    def test_large_denominator_root(self):
        a = Fraction(7, 10**40 + 1)
        lin = T - a
        f = RationalFunction(lin**3 * (T + 2), 3 * (T - 1) * lin)
        place = Place.at_rational(a)
        assert _called(place, f) == (2, (a + 2) / (3 * (a - 1)))
        assert valuation(place, f) == 2

    def test_pole_with_scaled_numerator(self):
        # (2t - 1)^2 over the integers is 4 (t - 1/2)^2
        place = Place.at_rational(Fraction(1, 2))
        num = Polynomial((Fraction(5, 9), 0, Fraction(1, 9)))
        f = RationalFunction(num, (2 * T - 1) ** 2)
        assert _called(place, f) == (-2, (Fraction(1, 4) + 5) / 9 / 4)

    def test_non_integral_quotient_step_stops(self):
        # 3t^2 + t has the root 0 only; at 1/3 the first step is not integral
        f = RationalFunction(3 * T**2 + T)
        assert valuation(Place.at_rational(Fraction(1, 3)), f) == 0
        assert valuation(Place.at_rational(Fraction(-1, 3)), f) == 1
        third = Place.at_rational(Fraction(1, 3))
        assert _called(third, f) == (0, f(Fraction(1, 3)))

    def test_constants(self):
        got = _called(Place.at_rational(4), RationalFunction(Fraction(-2, 7)))
        assert got == (0, Fraction(-2, 7))

    def test_verify_checks_count_valuations_without_fraction_division(
        self, monkeypatch
    ):
        seen = []
        plain_divmod = Polynomial.__divmod__
        plain_gcd = exactalg.poly_extended_gcd

        def traced_divmod(self, other):
            # funcfield itself, or exactalg.deflate_at on its behalf
            frame = _caller(sys._getframe(1))
            if frame.f_globals["__name__"] == funcfield.__name__ or (
                frame.f_code.co_name in ("deflate_at", "reduced", "residue")
            ):
                seen.append((frame.f_code.co_name, str(other)))
            return plain_divmod(self, other)

        def counted_gcd(f, g):
            seen.append(("poly_extended_gcd", str(g)))
            return plain_gcd(f, g)

        monkeypatch.setattr(Polynomial, "__divmod__", traced_divmod)
        monkeypatch.setattr(exactalg, "poly_extended_gcd", counted_gcd)
        surface = classify_surface(reference_curve())
        assert len(surface.fibers) == 6
        assert seen == []
        report = check_unramified_P1(reference_class().restrict_to_origin())
        assert report.overall is True
        # Every place of this class has degree 1: valuations and unit parts
        # both come from the integer deflation.
        assert seen == []
        # Valuations at the places of degree 2, 4 and 6 of a custom curve
        # come from the same deflation.
        custom = WeierstrassCurve.from_split(
            (T**4 + T + 1) * (T**2 + 1), T**4 + 3 * T**2 + 7
        )
        degrees = {fiber.place.degree for fiber in classify_surface(custom).fibers}
        assert degrees == {1, 2, 4, 6}
        assert seen == []

    def test_guard_sees_degree_two_places(self, monkeypatch):
        calls = []
        plain_gcd = exactalg.poly_extended_gcd

        def counted_gcd(f, g):
            calls.append(g)
            return plain_gcd(f, g)

        monkeypatch.setattr(exactalg, "poly_extended_gcd", counted_gcd)
        place = Place.finite(T**2 + 1)
        # a constant denominator residue is inverted as a rational, so the
        # denominator here is not constant mod pi
        f = RationalFunction(T**3 + 2, T + 1)
        v, thunk = residue(place, f)
        # nothing is reduced or inverted until the residue is asked for
        assert v == 0 and calls == []
        assert thunk() == Fraction(1, 2) - Fraction(3, 2) * T
        assert calls == [T**2 + 1]


class TestHigherDegreePlaces:
    """Valuations and residues at places of degree >= 2 by the same deflation."""

    def test_tame_symbol_deflates_each_entry_once(self, monkeypatch):
        place = Place.finite(T**2 + 1)
        f, g = (T**2 + 1) ** 3 * (T + 5), T**3 - 7
        divided = []
        plain_divmod = Polynomial.__divmod__

        def traced_divmod(self, other):
            divided.append((_caller(sys._getframe(1)).f_code.co_name, str(other)))
            return plain_divmod(self, other)

        monkeypatch.setattr(Polynomial, "__divmod__", traced_divmod)
        assert tame_symbol(place, f, g).kind is Verdict.UNDETERMINED
        # Only reductions mod pi divide.  v(f) = 3 is odd and v(g) = 0 even,
        # so only g's residue is needed: its numerator's deflated quotient
        # is reduced, its constant denominator is its own residue and is
        # inverted as a rational, and the symbols' product is reduced.
        assert Counter(divided) == Counter(
            {
                ("reduced", "t^2+1"): 1,
                ("residue_of_class", "t^2+1"): 1,
            }
        )
        deflated = []
        plain_deflate = exactalg._deflate

        def counted_deflate(ps, ns):
            deflated.append(ns)
            return plain_deflate(ps, ns)

        monkeypatch.setattr(exactalg, "_deflate", counted_deflate)
        tame_symbol(place, f, g)
        # the numerator of each entry, once each; a constant denominator
        # is below the degree of pi and is not deflated
        assert len(deflated) == 2

    def test_poles_and_zeros_at_a_cubic_place(self):
        pi = T**3 - 2
        place = Place.finite(pi)
        f = RationalFunction(Fraction(3, 5) * pi**2 * (T + 1), pi**5 * (T**2 + 7))
        assert valuation(place, f) == -3
        got = residue(place, f)[1]()
        assert got.degree < 3
        assert (got * (T**2 + 7)) % pi == (Fraction(3, 5) * (T + 1)) % pi


class TestPlacesOfSupport:
    def test_single_function(self):
        f = RationalFunction(T**3, T - 1)
        assert [str(p) for p in places_of_support([f])] == ["t-1", "t", "infinity"]

    def test_union_over_functions(self):
        fs = [RationalFunction(T), RationalFunction(T**2 + 1, T - 2)]
        names = [str(p) for p in places_of_support(fs)]
        assert names == ["t-2", "t", "t^2+1", "infinity"]

    def test_balanced_degree_omits_infinity(self):
        f = RationalFunction(T**2 + 1, T**2 - 2)
        assert INFINITY not in places_of_support([f])

    def test_constants_have_empty_support(self):
        assert places_of_support([RationalFunction(5)]) == []


def _random_ratfunc(rng: random.Random, pool) -> RationalFunction:
    num = Polynomial.constant(rng.choice([1, 2, 3, -1]))
    den = Polynomial.constant(1)
    for base in pool:
        num = num * base ** rng.randint(0, 2)
        den = den * base ** rng.randint(0, 2)
    return RationalFunction(num, den)
