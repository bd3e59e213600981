"""Local evaluation of the reference class and the adelic pairing.

Frozen Hilbert data behind the headline value: at (x, t) = (1, 2) over
Q_2 the symbol entries evaluate to (x - p, 6t(t+1)) = (-14, 36) and
(x - q, 6t(t-1)) = (82, 12); the first symbol is +1, the second is -1,
so exactly one sign flips and the invariant is 1/2.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ellbrauer import funcfield
from ellbrauer.brauer import (
    AdelicPointSpec,
    DegeneratePointError,
    SamplingReport,
    SurfacePoint,
    adelic_pairing,
    evaluate_local,
    excluded_parameters,
    is_local_point,
    local_points,
    reference_adelic_point,
    reference_class,
    reference_curve,
    sample_vanishing,
)
from ellbrauer.descent import (
    BrauerClass,
    CurveCoordinate,
    CurvePoint,
    brauer_image,
    descent_pair_functions,
)
from ellbrauer.elliptic import WeierstrassCurve
from ellbrauer.exactalg import Polynomial, RationalFunction, T, int_factor
from ellbrauer.hilbert import REAL, RationalPlace, hilbert_symbol
from ellbrauer.residues import QtBrauerClass

TWO = RationalPlace.prime(2)
THREE = RationalPlace.prime(3)
FIVE = RationalPlace.prime(5)


class TestReferenceData:
    def test_curve_roots(self):
        curve = reference_curve()
        assert curve.split_p == RationalFunction(3 * (T - 1) ** 3 * (T + 3))
        assert curve.split_q == RationalFunction(3 * (T + 1) ** 3 * (T - 3))
        assert curve.split_p - curve.split_q == RationalFunction(48 * T)

    def test_class_shape(self):
        cls = reference_class()
        assert str(cls) == "(x-p, 6*t^2+6*t) + (x-q, 6*t^2-6*t)"

    def test_adelic_point(self):
        spec = reference_adelic_point()
        assert len(spec.overrides) == 1
        point = spec.overrides[0]
        assert (point.x0, point.t0) == (1, 2)
        assert point.place == TWO

    def test_excluded_parameters(self):
        assert excluded_parameters(reference_curve()) == (
            Fraction(-3),
            Fraction(-1),
            Fraction(0),
            Fraction(1),
            Fraction(3),
        )


class TestIsLocalPoint:
    def test_distinguished_point(self):
        assert is_local_point(reference_curve(), SurfacePoint.affine(1, 2, TWO))

    def test_same_coordinates_fail_at_five(self):
        # w = 1 * (-14) * 82 = -1148 = -2158? no: w = -1148, and mod 5
        # the unit part is a non-residue, so (1, 2) is not a Q_5 point
        curve = reference_curve()
        assert not is_local_point(curve, SurfacePoint.affine(2, 2, RationalPlace.prime(5)))

    def test_zero_section_everywhere(self):
        curve = reference_curve()
        for place in (REAL, TWO, THREE):
            assert is_local_point(curve, SurfacePoint.zero_section(place))

    def test_torsion_x_coordinate(self):
        # w = 0 at x = p(t0) counts as a point
        curve = reference_curve()
        assert is_local_point(curve, SurfacePoint.affine(15, 2, RationalPlace.prime(7)))

    def test_real_points(self):
        curve = reference_curve()
        assert is_local_point(curve, SurfacePoint.affine(100, 2, REAL))
        assert not is_local_point(curve, SurfacePoint.affine(-1000, 2, REAL))

    def test_coefficient_pole_raises(self):
        curve = WeierstrassCurve.from_split(RationalFunction(1, T), RationalFunction(2, T))
        with pytest.raises(DegeneratePointError):
            is_local_point(curve, SurfacePoint.affine(1, 0, TWO))


class TestEvaluateLocal:
    def test_distinguished_two_adic_point(self):
        inv = evaluate_local(reference_class(), SurfacePoint.affine(1, 2, TWO))
        assert inv == Fraction(1, 2)

    def test_same_point_at_three_vanishes(self):
        inv = evaluate_local(reference_class(), SurfacePoint.affine(1, 2, THREE))
        assert inv == 0

    def test_torsion_section_vanishes_through_substitutes(self):
        # x = p(2) = 15 makes x - p vanish; the on-curve substitute
        # x (x - q) = 1440 takes over and both symbols come out +1
        inv = evaluate_local(reference_class(), SurfacePoint.affine(15, 2, TWO))
        assert inv == 0

    def test_zero_section_is_zero_everywhere(self):
        cls = reference_class()
        for place in (REAL, TWO, THREE, RationalPlace.prime(7)):
            assert evaluate_local(cls, SurfacePoint.zero_section(place)) == 0

    def test_point_not_on_curve_rejected(self):
        with pytest.raises(ValueError):
            evaluate_local(reference_class(), SurfacePoint.affine(2, 2, RationalPlace.prime(5)))

    def test_symbol_entry_zero_is_degenerate(self):
        # 6t(t+1) vanishes at t = 0; the representative cannot decide
        with pytest.raises(DegeneratePointError):
            evaluate_local(reference_class(), SurfacePoint.affine(7, 0, REAL))

    def test_singular_fiber_point_is_degenerate(self):
        # at t = 1 the coordinate x - p and its substitute both vanish
        # at x = 0, which only happens on a singular fiber
        with pytest.raises(DegeneratePointError):
            evaluate_local(reference_class(), SurfacePoint.affine(0, 1, TWO))

    def test_invariance_under_t_negation(self):
        # the class equals its own t -> -t transport, so invariants match
        cls = reference_class()
        pairs = [(1, 2), (1, -2), (Fraction(2, 3), 5), (Fraction(2, 3), -5)]
        for x0, t0 in pairs:
            here = SurfacePoint.affine(x0, t0, TWO)
            there = SurfacePoint.affine(x0, -t0, TWO)
            if not is_local_point(cls.curve, here):
                continue
            assert is_local_point(cls.curve, there)
            assert evaluate_local(cls, here) == evaluate_local(cls, there)


class TestReciprocity:
    """Sum of local invariants at a global rational point is zero."""

    # this auxiliary curve carries the rational section (t, t^2 (t+1)),
    # so specializing t gives honest global points to sum over
    P_AUX = T - T**3
    Q_AUX = -(T**2) - T - 1

    def _global_invariant_sum(self, cls, x0, t0) -> Fraction:
        curve = cls.curve
        p0, q0 = curve.split_p(t0), curve.split_q(t0)
        involved = [x0, x0 - p0, x0 - q0]
        involved += [f(t0) for _, f in cls.symbols]
        # unlike odd places, 2 can ramify a symbol of 2-adic units, so
        # it stays in the sum whether or not it divides anything below
        primes = {2}
        for value in involved:
            if value == 0:
                continue
            for n in (value.numerator, value.denominator):
                if n in (0, 1, -1):
                    continue
                for prime, _ in int_factor(n)[1]:
                    primes.add(prime)
        places = [REAL] + [RationalPlace.prime(p) for p in sorted(primes)]
        total = Fraction(0)
        for place in places:
            assert is_local_point(curve, SurfacePoint.affine(x0, t0, place))
            total += evaluate_local(cls, SurfacePoint.affine(x0, t0, place))
        return total - int(total)

    def test_section_specializations(self):
        curve = WeierstrassCurve.from_split(self.P_AUX, self.Q_AUX)
        cls = brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        checked = 0
        for t0 in (2, 3, 5, Fraction(7, 2), -4, Fraction(5, 3)):
            t0 = Fraction(t0)
            x0 = t0
            y_squared = x0 * (x0 - curve.split_p(t0)) * (x0 - curve.split_q(t0))
            assert y_squared == (t0**2 * (t0 + 1)) ** 2
            if y_squared == 0:
                continue
            assert self._global_invariant_sum(cls, x0, t0) == 0
            checked += 1
        assert checked >= 5

    def test_random_global_points_on_aux_curve(self):
        rng = random.Random(97)
        curve = WeierstrassCurve.from_split(self.P_AUX, self.Q_AUX)
        cls = brauer_image(T, 2 * T - 1, curve)
        bad = set(excluded_parameters(curve))
        checked = 0
        for _ in range(60):
            t0 = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3]))
            if t0 in bad or t0 in (0, -1, Fraction(1, 2)):
                continue
            x0 = t0
            if x0 * (x0 - curve.split_p(t0)) * (x0 - curve.split_q(t0)) == 0:
                continue
            assert self._global_invariant_sum(cls, x0, t0) == 0
            checked += 1
        assert checked >= 20


class TestExactness:
    """Images of the two torsion evaluate to zero at every local point.

    This is the numerical guard on the descent pair component order:
    with the components swapped the sums below come out 1/2 at the
    distinguished two adic point instead of 0.
    """

    def test_all_torsion_points_at_distinguished_point(self):
        curve = reference_curve()
        point = SurfacePoint.affine(1, 2, TWO)
        for torsion in (
            CurvePoint.two_torsion_p(),
            CurvePoint.two_torsion_q(),
            CurvePoint.two_torsion_origin(),
            CurvePoint.zero(),
        ):
            f, g = descent_pair_functions(torsion, curve)
            image = brauer_image(f, g, curve)
            assert evaluate_local(image, point) == 0

    def test_across_sampled_points_and_places(self):
        curve = reference_curve()
        torsion_images = [
            brauer_image(*descent_pair_functions(m, curve), curve)
            for m in (
                CurvePoint.two_torsion_p(),
                CurvePoint.two_torsion_q(),
                CurvePoint.two_torsion_origin(),
            )
        ]
        evaluated = 0
        for prime in (2, 3, 5, 7):
            place = RationalPlace.prime(prime)
            for point in local_points(curve, place, 5, height=12):
                for image in torsion_images:
                    try:
                        assert evaluate_local(image, point) == 0
                    except DegeneratePointError:
                        continue
                    evaluated += 1
        assert evaluated >= 30


class TestAdelicPairing:
    def test_reference_obstruction(self):
        report = adelic_pairing(reference_class(), reference_adelic_point())
        assert report.total == Fraction(1, 2)
        assert report.obstructed
        assert report.evaluations == ((TWO, Fraction(1, 2)),)

    def test_pure_zero_section_is_unobstructed(self):
        report = adelic_pairing(reference_class(), AdelicPointSpec(()))
        assert report.total == 0
        assert not report.obstructed

    def test_extra_override_at_three_changes_nothing(self):
        spec = AdelicPointSpec(
            (
                SurfacePoint.affine(1, 2, TWO),
                SurfacePoint.affine(1, 2, THREE),
            )
        )
        report = adelic_pairing(reference_class(), spec)
        assert report.total == Fraction(1, 2)
        assert dict(report.evaluations) == {TWO: Fraction(1, 2), THREE: Fraction(0)}

    def test_one_override_per_place(self):
        with pytest.raises(ValueError):
            AdelicPointSpec(
                (
                    SurfacePoint.affine(1, 2, TWO),
                    SurfacePoint.affine(15, 2, TWO),
                )
            )

    def test_note_mentions_zero_section_default(self):
        report = adelic_pairing(reference_class(), reference_adelic_point())
        assert "zero section" in report.default_note


class TestLocalPoints:
    def test_deterministic(self):
        curve = reference_curve()
        first = local_points(curve, THREE, 10, height=10)
        second = local_points(curve, THREE, 10, height=10)
        assert [(p.x0, p.t0) for p in first] == [(p.x0, p.t0) for p in second]

    def test_all_returned_points_are_local_points(self):
        curve = reference_curve()
        for place in (REAL, TWO, THREE):
            for point in local_points(curve, place, 15, height=10):
                assert is_local_point(curve, point)
                assert point.place == place

    def test_bad_fiber_parameters_excluded(self):
        curve = reference_curve()
        bad = set(excluded_parameters(curve))
        for point in local_points(curve, TWO, 25, height=10):
            assert point.t0 not in bad

    def test_count_honored_when_budget_allows(self):
        assert len(local_points(reference_curve(), REAL, 12, height=10)) == 12

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_count_returns_no_point(self, count):
        assert local_points(reference_curve(), THREE, count, height=10) == []

    def test_curve_roots_evaluated_once_per_parameter(self, monkeypatch):
        curve = WeierstrassCurve.from_split(
            reference_curve().split_p, reference_curve().split_q
        )
        cls = brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        calls = Counter()
        original = RationalFunction.__call__

        def counting(self, x):
            calls[id(self), x] += 1
            return original(self, x)

        monkeypatch.setattr(RationalFunction, "__call__", counting)
        roots = {id(curve.split_p), id(curve.split_q)}
        for place in (REAL, TWO, THREE):
            for run in (
                lambda: local_points(curve, place, 200, height=12),
                lambda: sample_vanishing(cls, place, samples=200, height=12),
            ):
                calls.clear()
                run()
                seen = [n for (owner, _), n in calls.items() if owner in roots]
                assert len(seen) > 10
                assert max(seen) == 1

    def test_discriminant_factored_once_per_curve(self, monkeypatch):
        expected = excluded_parameters(reference_curve())
        calls = []
        original = funcfield.poly_factor

        def counting(f):
            calls.append(f)
            return original(f)

        # excluded_parameters factors through funcfield.places_of_support.
        monkeypatch.setattr(funcfield, "poly_factor", counting)
        curve = WeierstrassCurve.from_split(
            reference_curve().split_p, reference_curve().split_q
        )
        cls = brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        for place in (REAL, THREE, RationalPlace.prime(5)):
            sample_vanishing(cls, place, samples=10, height=8)
            assert excluded_parameters(curve) == expected
        local_points(curve, TWO, 10, height=8)
        assert len(calls) == 1


class TestSampling:
    def test_vanishing_places(self):
        cls = reference_class()
        for place in (REAL, THREE, RationalPlace.prime(5), RationalPlace.prime(7)):
            report = sample_vanishing(cls, place, samples=25, height=20)
            assert report.valid >= 25
            assert report.all_zero
            assert report.zero_count == report.valid

    def test_witness_at_two(self):
        report = sample_vanishing(reference_class(), TWO, samples=25, height=20)
        assert not report.all_zero
        t0, x0, inv = report.nonzero[0]
        assert inv == Fraction(1, 2)
        # recomputing at the reported coordinates reproduces the value
        again = evaluate_local(reference_class(), SurfacePoint.affine(x0, t0, TWO))
        assert again == inv

    def test_report_carries_the_evidence_caveat(self):
        report = sample_vanishing(reference_class(), THREE, samples=5, height=6)
        assert "evidence" in report.note
        assert "not decided" in report.note

    @pytest.mark.parametrize("samples, height", [(25, 20), (120, 12)])
    @pytest.mark.parametrize("place", [REAL, TWO, THREE, RationalPlace.prime(31)])
    @pytest.mark.parametrize("symbols", ["reference", "degenerate"])
    def test_matches_public_evaluation(self, symbols, place, samples, height):
        # The sampling loop must agree with local_points + evaluate_local.
        # (t - 2, ...) vanishes over t = 2, which exercises the skip count.
        if symbols == "reference":
            cls = reference_class()
        else:
            cls = brauer_image(T - 2, 6 * T * (T - 1), reference_curve())
        valid = zero_count = skipped = 0
        nonzero = []
        for point in local_points(cls.curve, place, samples, height):
            try:
                inv = evaluate_local(cls, point)
            except DegeneratePointError:
                skipped += 1
                continue
            valid += 1
            if inv == 0:
                zero_count += 1
            else:
                nonzero.append((point.t0, point.x0, inv))
        expected = SamplingReport(
            place=place,
            requested=samples,
            height=height,
            valid=valid,
            zero_count=zero_count,
            nonzero=tuple(nonzero),
            skipped_degenerate=skipped,
            excluded_params=excluded_parameters(cls.curve),
        )
        assert sample_vanishing(cls, place, samples, height) == expected
        if place == TWO and symbols == "reference":
            assert expected.nonzero
        if symbols == "degenerate":
            assert expected.skipped_degenerate > 0

    def test_requested_and_height_recorded(self):
        report = sample_vanishing(reference_class(), THREE, samples=5, height=6)
        assert report.requested == 5
        assert report.height == 6
        assert report.excluded_params == excluded_parameters(reference_curve())


def _restriction_cases():
    other = WeierstrassCurve.from_split(T**2 + 1, 2 * T)
    return [
        ("reference", reference_class()),
        (
            "with (x, f)",
            BrauerClass(
                reference_curve(),
                [(CurveCoordinate.X, T + 2), (CurveCoordinate.X_MINUS_P, 6 * T)],
            ),
        ),
        (
            "other curve",
            BrauerClass(
                other,
                [
                    (CurveCoordinate.X, 3 * T - 1),
                    (CurveCoordinate.X_MINUS_P, Polynomial.constant(5)),
                    (CurveCoordinate.X_MINUS_Q, T**2 + 2),
                ],
            ),
        ),
    ]


def _small_parameters(height: int) -> list[Fraction]:
    values = range(-height, height + 1)
    return sorted({Fraction(a, b) for a in values for b in values if b > 0})


class TestRestrictionToOrigin:
    def test_reference_restriction_is_the_section_class(self):
        curve = reference_curve()
        f, g = 6 * T * (T + 1), 6 * T * (T - 1)
        expected = QtBrauerClass([(-curve.split_p, f), (-curve.split_q, g)])
        assert reference_class().restrict_to_origin() == expected
        # verify's residue check takes the first symbol alone
        assert expected.symbols[0] == (-curve.split_p, f)

    def test_each_coordinate_restricts_by_the_rewrite_rule(self):
        curve = WeierstrassCurve.from_split(T**2 + 1, 2 * T)
        p, q = curve.split_p, curve.split_q
        cls = BrauerClass(
            curve,
            [
                (CurveCoordinate.X, T + 5),
                (CurveCoordinate.X_MINUS_P, T - 7),
                (CurveCoordinate.X_MINUS_Q, T + 11),
            ],
        )
        # x vanishes on the section and is replaced by (x - p)(x - q) = p q
        expected = QtBrauerClass([(p * q, T + 5), (-p, T - 7), (-q, T + 11)])
        assert cls.restrict_to_origin() == expected

    @pytest.mark.parametrize("label, cls", _restriction_cases())
    def test_commutes_with_specialization(self, label, cls):
        restricted = cls.restrict_to_origin()
        compared = nonzero = 0
        for t0 in _small_parameters(3):
            for place in (REAL, TWO, THREE, FIVE, RationalPlace.prime(7)):
                point = SurfacePoint.affine(0, t0, place)
                try:
                    values = [(a(t0), f(t0)) for a, f in restricted.symbols]
                except ZeroDivisionError:
                    values = None
                if values is None or any(a == 0 or b == 0 for a, b in values):
                    # a restricted entry has a zero or pole at t0, and so
                    # does the specialization on the surface
                    with pytest.raises(DegeneratePointError):
                        evaluate_local(cls, point)
                    continue
                expected = sum(
                    (hilbert_symbol(a, b, place).inv for a, b in values), Fraction(0)
                )
                assert evaluate_local(cls, point) == expected % 1, (label, t0, place)
                compared += 1
                nonzero += expected % 1 != 0
        assert compared >= 40
        # the reference class vanishes along the whole section; the others
        # must not, or the comparison would only ever see zeros
        assert (nonzero == 0) == (label == "reference")
