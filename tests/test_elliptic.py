"""Weierstrass invariants, Kodaira fiber types, and surface numerology.

Every fixture in KODAIRA_FIXTURES was classified by hand from the
valuation table before the classifier existed.  Example, y^2 = x^3 + t:
c4 = 0, c6 = -864 t, disc = -432 t^2, so (v(c4), v(c6), v(disc)) =
(inf, 1, 2) at t, which is type II.  The non-minimal entry y^2 = x^3 +
t^7 has disc valuation 14 and only becomes II after one u-shift.
"""

from fractions import Fraction

import pytest

from ellbrauer import elliptic
from ellbrauer.elliptic import (
    ClassificationError,
    FiberReport,
    KodairaType,
    SingularCurveError,
    SurfaceReport,
    WeierstrassCurve,
    classify_surface,
    invariants,
    kodaira_type_at,
    minimalize_at,
)
from ellbrauer.exactalg import Polynomial, RationalFunction, T
from ellbrauer.funcfield import INFINITY, Place, valuation


def split(p, q) -> WeierstrassCurve:
    return WeierstrassCurve.from_split(p, q)


def general(a4, a6) -> WeierstrassCurve:
    return WeierstrassCurve(0, 0, 0, a4, a6)


class TestInvariants:
    def test_frozen_small_curve(self):
        # y^2 = x (x - 1) (x - 2)
        c4, c6, disc = invariants(split(Polynomial.constant(1), Polynomial.constant(2)))
        assert c4 == RationalFunction(48)
        assert c6 == RationalFunction(0)
        assert disc == RationalFunction(64)

    def test_weierstrass_identity(self):
        curve = split(T, T**2 - 3)
        c4, c6, disc = invariants(curve)
        assert c4**3 - c6**2 == 1728 * disc

    def test_split_discriminant_formula(self):
        p = RationalFunction(T)
        q = RationalFunction(T**2 - 3)
        _, _, disc = invariants(split(T, T**2 - 3))
        assert disc == 16 * (p * q) ** 2 * (p - q) ** 2

    def test_singular_curve_rejected(self):
        with pytest.raises(SingularCurveError):
            invariants(split(T, T))
        with pytest.raises(SingularCurveError):
            invariants(general(Polynomial.constant(0), Polynomial.constant(0)))

    def test_general_coefficients(self):
        # y^2 + y = x^3 has c4 = 0, disc = -27
        curve = WeierstrassCurve(0, 0, 1, 0, 0)
        c4, c6, disc = invariants(curve)
        assert c4 == RationalFunction(0)
        assert disc == RationalFunction(-27)


class TestCurveConstruction:
    def test_from_split_expands_coefficients(self):
        curve = split(T, 2 * T)
        a1, a2, a3, a4, a6 = curve.coefficients()
        assert a1 == RationalFunction(0)
        assert a2 == RationalFunction(-3 * T)
        assert a4 == RationalFunction(2 * T**2)
        assert a6 == RationalFunction(0)
        assert curve.is_split

    def test_general_curve_is_not_split(self):
        assert not general(T, T).is_split

    @pytest.mark.parametrize(
        "curve, name",
        [(split(T, 2 * T), "split_p"), (split(T, 2 * T), "a2"), (general(T, T), "a4")],
    )
    def test_curves_are_immutable(self, curve, name):
        with pytest.raises(AttributeError):
            setattr(curve, name, RationalFunction(1))

    def test_structural_equality(self):
        assert split(T, 2 * T) == split(T, 2 * T)
        assert split(T, 2 * T) != split(T, 3 * T)


KODAIRA_FIXTURES = [
    # (curve, place, expected type, components, euler)
    (WeierstrassCurve(0, 1, 0, 0, T), Place.finite(T), "I_1", 1, 1),
    (split(Polynomial.constant(1), T), Place.finite(T), "I_2", 2, 2),
    (general(Polynomial.constant(0), T), Place.finite(T), "II", 1, 2),
    (general(T, Polynomial.constant(0)), Place.finite(T), "III", 2, 3),
    (general(Polynomial.constant(0), T**2), Place.finite(T), "IV", 3, 4),
    (split(T, 2 * T), Place.finite(T), "I_0*", 5, 6),
    (split(T, 2 * T**2), Place.finite(T), "I_2*", 7, 8),
    (general(Polynomial.constant(0), T**4), Place.finite(T), "IV*", 7, 8),
    (general(T**3, Polynomial.constant(0)), Place.finite(T), "III*", 8, 9),
    (general(Polynomial.constant(0), T**5), Place.finite(T), "II*", 9, 10),
    # non-minimal model: v(disc) = 14 drops to 2 after one shift
    (general(Polynomial.constant(0), T**7), Place.finite(T), "II", 1, 2),
    # good reduction
    (general(Polynomial.constant(1), Polynomial.constant(1)), Place.finite(T), "I_0", 1, 0),
]


class TestKodairaClassification:
    @pytest.mark.parametrize(
        "curve, place, expected, components, euler",
        KODAIRA_FIXTURES,
        ids=[f[2] + "-" + str(i) for i, f in enumerate(KODAIRA_FIXTURES)],
    )
    def test_fixture(self, curve, place, expected, components, euler):
        report = kodaira_type_at(place, curve)
        assert str(report.kodaira) == expected
        assert report.components == components
        assert report.euler == euler

    def test_multiplicative_flag(self):
        assert KodairaType.I(3).is_multiplicative
        assert not KodairaType.good().is_multiplicative
        assert not KodairaType.I_star(0).is_multiplicative
        assert KodairaType.good().is_good
        with pytest.raises(ValueError):
            KodairaType.I(0)

    def test_each_fiber_type_has_one_value(self):
        # A kind without an index drops n, and I_0 is the good fiber.
        assert KodairaType("II", 3) == KodairaType("II")
        assert hash(KodairaType("II", 3)) == hash(KodairaType("II"))
        assert KodairaType("I", 0) == KodairaType.good()
        assert hash(KodairaType("I", 0)) == hash(KodairaType.good())
        with pytest.raises(ValueError, match="unknown fiber kind 'V'"):
            KodairaType("V")
        for kind in ("I", "I*", "II"):
            with pytest.raises(ValueError, match="must be nonnegative"):
                KodairaType(kind, -1)

    def test_component_counts(self):
        assert KodairaType.I(6).components == 6
        assert KodairaType.I_star(2).components == 7
        assert KodairaType("II*").components == 9

    # Kodaira's table: (components, Euler number) of I_n and I_n* at
    # n = 0..3, and of the kinds without an index, which ignore n.
    INDEXED = {
        "I": [(1, 0), (1, 1), (2, 2), (3, 3)],
        "I*": [(5, 6), (6, 7), (7, 8), (8, 9)],
    }
    UNINDEXED = {
        "good": (1, 0),
        "II": (1, 2),
        "III": (2, 3),
        "IV": (3, 4),
        "IV*": (7, 8),
        "III*": (8, 9),
        "II*": (9, 10),
    }

    @pytest.mark.parametrize("kind", [*INDEXED, *UNINDEXED])
    def test_components_and_euler_follow_kodairas_table(self, kind):
        for n in range(4):
            fiber = KodairaType(kind, n)
            expected = (
                self.INDEXED[kind][n] if kind in self.INDEXED else self.UNINDEXED[kind]
            )
            assert (fiber.components, fiber.euler) == expected, (kind, n)

    def test_str_forms(self):
        assert str(KodairaType.I(2)) == "I_2"
        assert str(KodairaType.I_star(0)) == "I_0*"
        assert str(KodairaType.good()) == "I_0"

    def test_reference_curve_at_infinity_needs_rescaling(self):
        curve = split(3 * (T - 1) ** 3 * (T + 3), 3 * (T + 1) ** 3 * (T - 3))
        report = kodaira_type_at(INFINITY, curve)
        assert str(report.kodaira) == "I_6"
        assert report.minimal_valuations == (0, 0, 6)

    def test_minimalize_at_shifts_by_twelve(self):
        curve = general(Polynomial.constant(0), T**7)
        _, _, disc = invariants(curve)
        minimal, shift = minimalize_at(Place.finite(T), curve)
        assert shift == 1
        _, _, disc_min = invariants(minimal)
        # the discriminant drops by u^12
        assert disc / disc_min == RationalFunction(T**12)


REFERENCE = split(3 * (T - 1) ** 3 * (T + 3), 3 * (T + 1) ** 3 * (T - 3))

# (p, q) pairs for split curves: the reference curve, poles in p and q,
# repeated factors, and p - q = t^4 + t + 1, an irreducible quartic.
SPLIT_FIXTURES = [
    (REFERENCE.split_p, REFERENCE.split_q),
    (RationalFunction(1, T), RationalFunction(T**2)),
    (RationalFunction(T**2 + 1, T - 2), RationalFunction(T**3)),
    (RationalFunction(1, T), RationalFunction(T + 1)),
    (RationalFunction(T**2 * (T - 1)), RationalFunction((T + 1) ** 2)),
    (RationalFunction(T**4 + T**2 + T + 1), RationalFunction(T**2)),
]


def _rescaled_valuations(place, curve):
    """Valuations of the invariants of the rebuilt minimal model."""
    minimal, _ = minimalize_at(place, curve)
    return tuple(
        None if f.is_zero() else valuation(place, f) for f in invariants(minimal)
    )


class TestMinimalValuations:
    @pytest.mark.parametrize(
        "curve, place",
        [(f[0], f[1]) for f in KODAIRA_FIXTURES],
        ids=[f[2] + "-" + str(i) for i, f in enumerate(KODAIRA_FIXTURES)],
    )
    def test_fixture_matches_rescaled_model(self, curve, place):
        report = kodaira_type_at(place, curve)
        assert report.minimal_valuations == _rescaled_valuations(place, curve)

    @pytest.mark.parametrize("index", range(len(SPLIT_FIXTURES)))
    def test_bad_places_match_rescaled_model(self, index):
        curve = split(*SPLIT_FIXTURES[index])
        fibers = classify_surface(curve).fibers
        assert fibers
        for fiber in fibers:
            assert fiber.minimal_valuations == _rescaled_valuations(
                fiber.place, curve
            )


class TestClassifySurface:
    def test_reference_surface(self):
        curve = split(3 * (T - 1) ** 3 * (T + 3), 3 * (T + 1) ** 3 * (T - 3))
        report = classify_surface(curve)
        table = {str(f.place): str(f.kodaira) for f in report.fibers}
        assert table == {
            "t": "I_2",
            "t-3": "I_2",
            "t+3": "I_2",
            "t-1": "I_6",
            "t+1": "I_6",
            "infinity": "I_6",
        }
        assert report.euler_number == 24
        assert report.chi == 2
        assert report.is_K3
        assert report.rank_R == 20
        assert report.picard_bound == 20
        assert report.mw_rank_bound == 0
        assert report.semistable

    def test_rational_elliptic_surface(self):
        # y^2 = x (x - 1) (x - t): I_2 at t and t - 1, I_2* at infinity
        report = classify_surface(split(Polynomial.constant(1), T))
        table = {str(f.place): str(f.kodaira) for f in report.fibers}
        assert table == {"t": "I_2", "t-1": "I_2", "infinity": "I_2*"}
        assert report.euler_number == 12
        assert report.chi == 1
        assert not report.is_K3
        assert report.rank_R == 2 + 1 + 1 + 6
        assert report.mw_rank_bound == 0
        assert not report.semistable

    def test_euler_number_is_twelve_chi(self):
        fixtures = [
            split(Polynomial.constant(1), T),
            split(T, 2 * T),
            split(3 * (T - 1) ** 3 * (T + 3), 3 * (T + 1) ** 3 * (T - 3)),
            general(T, Polynomial.constant(1)),
        ]
        for curve in fixtures:
            report = classify_surface(curve)
            assert report.euler_number == 12 * report.chi
            assert report.rank_R <= report.picard_bound
            assert report.mw_rank_bound >= 0

    def test_good_places_not_listed(self):
        report = classify_surface(split(Polynomial.constant(1), T))
        assert all(not f.kodaira.is_good for f in report.fibers)

    def test_fiber_report_str(self):
        report = classify_surface(split(Polynomial.constant(1), T))
        lines = [str(f) for f in report.fibers]
        assert "t : I_2" in lines

    def test_higher_degree_bad_place(self):
        # y^2 = x (x - 1) (x - (t^2+1)) degenerates over the place t^2 + 1
        report = classify_surface(split(Polynomial.constant(1), T**2 + 1))
        table = {str(f.place): str(f.kodaira) for f in report.fibers}
        assert table["t^2+1"] == "I_2"
        # degree weighting: the I_2 fiber over a degree 2 place counts twice
        assert report.euler_number == 12 * report.chi

    def test_explicit_picard_bound_override(self):
        curve = split(Polynomial.constant(1), T)
        report = classify_surface(curve, picard_bound=10)
        assert report.picard_bound == 10
        with pytest.raises(ValueError):
            classify_surface(curve, picard_bound=5)

    @pytest.mark.parametrize("index", range(len(SPLIT_FIXTURES)))
    def test_split_candidates_agree_with_discriminant(self, index):
        p, q = SPLIT_FIXTURES[index]
        generic = WeierstrassCurve(0, -(p + q), 0, p * q, 0)
        assert not generic.is_split
        assert classify_surface(split(p, q)) == classify_surface(generic)

    def test_split_curve_invariants_of_one_curve(self, monkeypatch):
        owners = []
        original = elliptic.invariants

        def counting(curve):
            owners.append(id(curve))
            return original(curve)

        monkeypatch.setattr(elliptic, "invariants", counting)
        for p, q in SPLIT_FIXTURES:
            curve = split(p, q)
            owners.clear()
            classify_surface(curve)
            assert set(owners) == {id(curve)}


class TestReportTypes:
    def test_fiber_report_is_frozen(self):
        report = kodaira_type_at(Place.finite(T), split(Polynomial.constant(1), T))
        assert isinstance(report, FiberReport)
        with pytest.raises(AttributeError):
            report.euler = 99

    def test_surface_report_is_frozen(self):
        report = classify_surface(split(Polynomial.constant(1), T))
        assert isinstance(report, SurfaceReport)
        with pytest.raises(AttributeError):
            report.chi = 3
