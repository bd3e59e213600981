"""The two torsion descent map, symbol classes, and the base change test.

The component order of the descent pair is (x(M) - q, x(M) - p), and
the evaluation tests in test_brauer.py pin that order down numerically:
swapping it flips which Hilbert symbols appear at the distinguished two
adic point and breaks the exactness checks there.
"""

from collections import Counter
from fractions import Fraction

import pytest

from ellbrauer import exactalg
from ellbrauer.brauer import (
    BaseChange,
    SurfacePoint,
    evaluate_local,
    excluded_parameters,
    reference_curve,
    swap_roots,
)
from ellbrauer.descent import (
    BrauerClass,
    CurveCoordinate,
    CurvePoint,
    DescentPair,
    PointKind,
    TranscendenceVerdict,
    brauer_image,
    descent_image,
    descent_pair_functions,
    transcendence_test,
)
from ellbrauer.elliptic import SplitCurve, WeierstrassCurve, classify_surface
from ellbrauer.exactalg import Polynomial, RationalFunction, T
from ellbrauer.hilbert import RationalPlace
from ellbrauer.squareclass import FieldMode, SquareClassVector, class_of, independent

CT = FieldMode.CONSTANTS_ARE_SQUARES
QT = FieldMode.RATIONAL_CONSTANTS


def ct_class(*polys) -> SquareClassVector:
    product = Polynomial.constant(1)
    for f in polys:
        product = product * f
    return class_of(RationalFunction(product), CT)


class TestPairFunctions:
    def test_point_above_p(self):
        curve = reference_curve()
        f, g = descent_pair_functions(CurvePoint.two_torsion_p(), curve)
        assert f == curve.split_p - curve.split_q
        assert g == curve.split_p * (curve.split_p - curve.split_q)
        # p - q = 48 t on the reference curve
        assert f == RationalFunction(48 * T)

    def test_point_above_q(self):
        curve = reference_curve()
        f, g = descent_pair_functions(CurvePoint.two_torsion_q(), curve)
        assert f == curve.split_q * (curve.split_q - curve.split_p)
        assert g == curve.split_q - curve.split_p

    def test_origin_maps_to_minus_q_minus_p(self):
        # (x - q, x - p) at x = 0; the same classes as the products of the
        # pairs of (p, 0) and (q, 0), whose sum (0, 0) is.
        curve = reference_curve()
        fp, gp = descent_pair_functions(CurvePoint.two_torsion_p(), curve)
        fq, gq = descent_pair_functions(CurvePoint.two_torsion_q(), curve)
        fo, go = descent_pair_functions(CurvePoint.two_torsion_origin(), curve)
        assert (fo, go) == (-curve.split_q, -curve.split_p)
        assert class_of(fo, QT) == class_of(fp * fq, QT)
        assert class_of(go, QT) == class_of(gp * gq, QT)

    def test_identity_gives_trivial_pair(self):
        f, g = descent_pair_functions(CurvePoint.zero(), reference_curve())
        assert f == RationalFunction(1)
        assert g == RationalFunction(1)

    def test_values_at_two(self):
        # frozen numbers reused by the local evaluation tests: at t = 2
        # the point (p(2), 0) = (15, 0) has pair functions (96, 1440)
        curve = reference_curve()
        f, g = descent_pair_functions(CurvePoint.two_torsion_p(), curve)
        assert f(2) == 96
        assert g(2) == 1440

    def test_affine_point(self):
        # y^2 = x (x - (t - t^3)) (x - (-t^2 - t - 1)) passes through
        # (t, t^2 (t+1)); its image is ((t+1)^2, t^3)
        p = T - T**3
        q = -(T**2) - T - 1
        curve = WeierstrassCurve.from_split(p, q)
        point = CurvePoint.affine(RationalFunction(T), RationalFunction(T**2 * (T + 1)))
        f, g = descent_pair_functions(point, curve)
        assert f == RationalFunction((T + 1) ** 2)
        assert g == RationalFunction(T**3)

    def test_affine_point_must_lie_on_curve(self):
        with pytest.raises(ValueError):
            descent_pair_functions(
                CurvePoint.affine(RationalFunction(T), RationalFunction(1)),
                reference_curve(),
            )

    def test_affine_two_torsion_is_the_named_point(self):
        # A y = 0 point takes the same rewrite of its vanishing coordinate
        # as the named 2-torsion point with its x.
        curve = reference_curve()
        for x, named in (
            (curve.split_p, CurvePoint.two_torsion_p()),
            (curve.split_q, CurvePoint.two_torsion_q()),
            (0, CurvePoint.two_torsion_origin()),
        ):
            affine = CurvePoint.affine(x, 0)
            assert descent_pair_functions(affine, curve) == descent_pair_functions(
                named, curve
            )

    def test_non_split_curve_rejected(self):
        curve = WeierstrassCurve(0, 0, 0, T, Polynomial.constant(1))
        with pytest.raises(ValueError):
            descent_pair_functions(CurvePoint.two_torsion_p(), curve)


class TestClassesOnSwappedRoots:
    """SplitCurve(p, q) and SplitCurve(q, p) are one curve, but x - p moves."""

    def classes(self):
        p, q = reference_curve().split_p, reference_curve().split_q
        on_pq = BrauerClass(SplitCurve(p, q), [(CurveCoordinate.X_MINUS_P, T + 5)])
        on_qp = BrauerClass(SplitCurve(q, p), [(CurveCoordinate.X_MINUS_P, T + 5)])
        return on_pq, on_qp

    def test_classes_differ(self):
        a, b = self.classes()
        assert a != b
        assert hash(a) != hash(b)
        # They differ where it counts: at (x, t) = (0, 1/3) over Q_2.
        point = SurfacePoint.affine(0, Fraction(1, 3), RationalPlace.prime(2))
        assert (evaluate_local(a, point), evaluate_local(b, point)) == (
            Fraction(1, 2),
            0,
        )

    def test_sum_refused(self):
        a, b = self.classes()
        with pytest.raises(ValueError, match="different \\(p, q\\)"):
            a + b

    def test_equal_to_the_swap(self):
        a, _ = self.classes()
        p, q = reference_curve().split_p, reference_curve().split_q
        b = BrauerClass(SplitCurve(q, p), [(CurveCoordinate.X_MINUS_Q, T + 5)])
        assert swap_roots(b) == a
        assert hash(swap_roots(b)) == hash(a)


class TestDescentImage:
    def test_image_of_p_over_ct(self):
        image = descent_image(CurvePoint.two_torsion_p(), reference_curve(), CT)
        assert image.as_tuple() == (ct_class(T), ct_class(T, T - 1, T + 3))

    def test_image_of_q_over_ct(self):
        image = descent_image(CurvePoint.two_torsion_q(), reference_curve(), CT)
        assert image.as_tuple() == (ct_class(T, T + 1, T - 3), ct_class(T))

    def test_image_of_origin_is_the_sum(self):
        curve = reference_curve()
        dp = descent_image(CurvePoint.two_torsion_p(), curve, CT)
        dq = descent_image(CurvePoint.two_torsion_q(), curve, CT)
        do = descent_image(CurvePoint.two_torsion_origin(), curve, CT)
        assert (dp + dq).as_tuple() == do.as_tuple()
        assert do.as_tuple() == (ct_class(T + 1, T - 3), ct_class(T - 1, T + 3))

    def test_image_of_identity_is_zero(self):
        image = descent_image(CurvePoint.zero(), reference_curve(), CT)
        assert image.is_zero()

    def test_qt_mode_keeps_constants(self):
        image = descent_image(CurvePoint.two_torsion_p(), reference_curve(), QT)
        first, second = image.as_tuple()
        # p - q = 48 t = 3 * 4^2 * t
        assert first.primes == frozenset({3})
        assert first.polys == frozenset({T})
        assert second.polys == frozenset({T - 1, T, T + 3})

    def test_images_independent(self):
        curve = reference_curve()
        dp = descent_image(CurvePoint.two_torsion_p(), curve, CT)
        dq = descent_image(CurvePoint.two_torsion_q(), curve, CT)
        assert independent([dp.as_tuple(), dq.as_tuple()])

    def test_rationals_only_mode_rejected(self):
        with pytest.raises(ValueError):
            descent_image(CurvePoint.two_torsion_p(), reference_curve(), FieldMode.RATIONALS_ONLY)


# Split curves whose p, q and p - q cover linear, repeated linear and
# irreducible quadratic factors, constants, an irreducible cubic and
# quartic p - q, and rational p.
SPLIT_CURVES = [
    (3 * (T - 1) ** 3 * (T + 3), 3 * (T + 1) ** 3 * (T - 3)),
    ((T**2 + 1) * (T - 2) ** 2, 5 * T * (T + 1)),  # p - q irreducible quartic
    (T**2 * (T + 2), 3 - T),  # p - q = t^3 + 2t^2 + t - 3, irreducible
    (T**4 + T**2 + T + 1, T**2),  # p - q = t^4 + t + 1, irreducible
    (RationalFunction(T**2 + 1, T - 2), T**3),
    (RationalFunction(1, T), 2 * (T + 1) ** 2),
]
TORSION = [
    CurvePoint.two_torsion_p(),
    CurvePoint.two_torsion_q(),
    CurvePoint.two_torsion_origin(),
]


class TestTorsionImagesFromFactors:
    @pytest.mark.parametrize("mode", [QT, CT])
    @pytest.mark.parametrize("index", range(len(SPLIT_CURVES)))
    def test_equal_to_class_of_pair_functions(self, index, mode):
        curve = WeierstrassCurve.from_split(*SPLIT_CURVES[index])
        for point in TORSION:
            f, g = descent_pair_functions(point, curve)
            expected = DescentPair(class_of(f, mode), class_of(g, mode))
            assert descent_image(point, curve, mode) == expected

    @pytest.mark.parametrize("index", [1, 2, 4])
    def test_each_polynomial_factored_once_per_curve(self, index, factor_calls):
        p, q = SPLIT_CURVES[index]
        p, q = RationalFunction.coerce(p), RationalFunction.coerce(q)
        # The target is built from the curve's factors, which are divided
        # out of it: only the cofactors are left for the factor search.
        cofactors = (T + 5, (T - 11) * (T**2 + 3))
        f = 7 * (p - q) * cofactors[0]
        g = q * q * p * cofactors[1]
        curve = WeierstrassCurve.from_split(p, q)
        classify_surface(curve)
        excluded_parameters(curve)
        for mode in (QT, CT):
            for point in TORSION:
                descent_image(point, curve, mode)
        transcendence_test(f, g, curve, mw_rank_bound=0)
        # Constant polynomials are units; factoring them costs nothing.
        expected = {
            poly.monic(): 1
            for h in (p, q, p - q)
            for poly in (h.num, h.den)
            if not poly.is_constant()
        }
        expected.update({c: 1 for c in cofactors})
        counted = {k: n for k, n in factor_calls.items() if not k.is_constant()}
        assert counted == expected

    @pytest.mark.parametrize("index", range(len(SPLIT_CURVES)))
    def test_descent_forms_neither_p_plus_q_nor_p_times_q(self, index, monkeypatch):
        # a2 = -(p + q) and a4 = p q are formed only when the Weierstrass
        # coefficients are read, which the descent images and the
        # transcendence test never do.
        p, q = (RationalFunction.coerce(h) for h in SPLIT_CURVES[index])
        formed = []
        for name in ("__add__", "__mul__"):
            original = getattr(RationalFunction, name)

            def counting(self, other, name=name, original=original):
                if {id(self), id(other)} == {id(p), id(q)}:
                    formed.append(name)
                return original(self, other)

            monkeypatch.setattr(RationalFunction, name, counting)
        curve = WeierstrassCurve.from_split(p, q)
        for mode in (QT, CT):
            for point in TORSION:
                descent_image(point, curve, mode)
        transcendence_test(7 * (T + 5), p * (T**2 + 3), curve, mw_rank_bound=0)
        assert formed == []
        # The guard sees the coefficients being formed, once.
        curve.coefficients()
        curve.coefficients()
        assert sorted(formed) == ["__add__", "__mul__"]

    def test_quartic_of_p_minus_q_factored_once(self, factor_calls):
        # p - q = -6 h and q = 6 (t-3)(t-2)(t+2)^2, so f = 6 q h and g are
        # built from the factor base but for the square (t+6)^2.
        h = T**4 - T**3 - 9 * T**2 + 3 * T + 28
        p = -6 * T**2 + 6 * T - 24
        q = 6 * T**4 - 6 * T**3 - 60 * T**2 + 24 * T + 144
        f = 36 * (T - 3) * (T - 2) * (T + 2) ** 2 * h
        g = -6 * (T + 6) ** 2 * h

        def reaching_h() -> int:
            return sum(n for poly, n in factor_calls.items() if (poly % h).is_zero())

        # Factoring f and g whole would hand h to the search three times.
        curve = WeierstrassCurve.from_split(p, q)
        result = transcendence_test(f, g, curve, mw_rank_bound=0)
        assert result.verdict is TranscendenceVerdict.ALGEBRAIC_OVER_C
        assert reaching_h() == 1
        # The curve keeps the factors of p - q; a fresh one factors it again.
        transcendence_test(f, g, curve, mw_rank_bound=0)
        assert reaching_h() == 1
        transcendence_test(f, g, WeierstrassCurve.from_split(p, q), mw_rank_bound=0)
        assert reaching_h() == 2


@pytest.fixture
def factor_calls(monkeypatch) -> Counter:
    """Factor searches by monic argument: poly_factor and the cofactor step
    of factor_over both hand a primitive integer model to _factor_model."""
    original = exactalg._factor_model
    calls = Counter()

    def counting(model):
        calls[Polynomial(model).monic()] += 1
        return original(model)

    monkeypatch.setattr(exactalg, "_factor_model", counting)
    return calls


class TestDescentPair:
    def test_addition_is_componentwise(self):
        a = DescentPair(ct_class(T), ct_class(T + 1))
        b = DescentPair(ct_class(T), ct_class(T - 2))
        total = a + b
        assert total.first.is_zero()
        assert total.second == ct_class(T + 1, T - 2)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DescentPair(ct_class(T), class_of(RationalFunction(T), QT))

    def test_str(self):
        pair = DescentPair(ct_class(T), ct_class(T, T - 1))
        assert str(pair) == "(t, (t-1) * t)"


class TestBrauerClassAlgebra:
    def test_two_torsion(self):
        curve = reference_curve()
        cls = brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        assert (cls + cls).is_zero()

    def test_literal_one_entries_dropped(self):
        curve = reference_curve()
        cls = brauer_image(Polynomial.constant(1), 6 * T, curve)
        assert len(cls.symbols) == 1
        assert cls.symbols[0][0] is CurveCoordinate.X_MINUS_Q

    def test_canonical_order_and_equality(self):
        curve = reference_curve()
        a = brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        b = brauer_image(6 * T * (T - 1), 6 * T * (T - 1), curve)
        assert a != b
        assert a == brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        assert hash(a) == hash(brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve))

    def test_construction_and_sum_subtract_nothing(self, monkeypatch):
        # p - q is kept on the split curve, so building a class or adding
        # two does not recompute it.
        p, q = reference_curve().split_p, reference_curve().split_q
        curve = WeierstrassCurve.from_split(p, q)
        calls = []
        original = RationalFunction.__sub__

        def counting(self, other):
            calls.append((self, other))
            return original(self, other)

        monkeypatch.setattr(RationalFunction, "__sub__", counting)
        a = brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        b = BrauerClass(curve, [(CurveCoordinate.X, T + 2)])
        assert len((a + b).symbols) == 3
        assert calls == []

    def test_addition_needs_same_curve(self):
        a = brauer_image(T, T, reference_curve())
        other = WeierstrassCurve.from_split(T, 2 * T)
        b = brauer_image(T, T, other)
        with pytest.raises(ValueError):
            a + b

    def test_substitution_t_to_minus_t_fixes_reference_class(self):
        # the reference surface is symmetric under t -> -t with p and q
        # exchanged, and the class built from (6t(t+1), 6t(t-1)) is fixed
        curve = reference_curve()
        cls = brauer_image(6 * T * (T + 1), 6 * T * (T - 1), curve)
        assert _negated(cls) == cls

    def test_substitution_is_an_involution(self):
        curve = reference_curve()
        cls = brauer_image(6 * T * (T + 1), Polynomial.constant(1), curve)
        assert _negated(cls) != cls
        assert _negated(_negated(cls)) == cls


def _negated(cls: BrauerClass) -> BrauerClass:
    """The class pulled back under t -> -t, with the roots p and q swapped."""
    return swap_roots(BaseChange(-1, 0, 0, 1).brauer_class(cls))


NON_SPLIT = WeierstrassCurve(0, 0, 0, T, Polynomial.constant(1))
EQUAL_ROOTS = WeierstrassCurve.from_split(T, T)
ZERO_ROOT = WeierstrassCurve.from_split(0, T)
NOT_SPLIT_MESSAGE = "descent requires the split form y^2 = x(x-p)(x-q)"
DEGENERATE_MESSAGE = "split curve is degenerate: 0, p, q must be distinct"
COERCE_MESSAGE = "RationalFunction expects polynomial or scalar operands"


class TestTranscendence:
    def test_reference_class_survives(self):
        result = transcendence_test(
            6 * T * (T + 1), 6 * T * (T - 1), reference_curve(), mw_rank_bound=0
        )
        assert result.verdict is TranscendenceVerdict.TRANSCENDENTAL
        assert result.target.as_tuple() == (ct_class(T, T + 1), ct_class(T, T - 1))
        assert result.combination is None

    def test_torsion_image_itself_dies(self):
        curve = reference_curve()
        f, g = descent_pair_functions(CurvePoint.two_torsion_p(), curve)
        result = transcendence_test(f, g, curve, mw_rank_bound=0)
        assert result.verdict is TranscendenceVerdict.ALGEBRAIC_OVER_C
        assert tuple(result.combination) == (1, 0)

    def test_sum_of_torsion_images_dies(self):
        curve = reference_curve()
        fo, go = descent_pair_functions(CurvePoint.two_torsion_origin(), curve)
        result = transcendence_test(fo, go, curve, mw_rank_bound=0)
        assert result.verdict is TranscendenceVerdict.ALGEBRAIC_OVER_C
        assert tuple(result.combination) == (1, 1)

    def test_square_pair_is_trivially_algebraic(self):
        result = transcendence_test(
            Polynomial.constant(1), (T + 5) ** 2, reference_curve(), mw_rank_bound=0
        )
        assert result.verdict is TranscendenceVerdict.ALGEBRAIC_OVER_C
        assert tuple(result.combination) == (0, 0)

    def test_positive_rank_bound_gives_unknown(self):
        result = transcendence_test(
            6 * T * (T + 1), 6 * T * (T - 1), reference_curve(), mw_rank_bound=1
        )
        assert result.verdict is TranscendenceVerdict.UNKNOWN
        assert "rank bound" in result.reason

    # The CLI refuses these at parsing (exit 2); the library refuses them too,
    # instead of reporting that a bound of -1 or True does not pin the kernel.
    @pytest.mark.parametrize("bound", [-1, True, False, 1.0, "0", None])
    def test_rank_bound_must_be_a_nonnegative_int(self, bound):
        with pytest.raises(ValueError) as excinfo:
            transcendence_test(T, T + 1, reference_curve(), mw_rank_bound=bound)
        assert str(excinfo.value) == f"rank bound {bound!r} is not a nonnegative int"

    def test_dependent_torsion_images_give_unknown(self):
        # p = t^2 and p - q = (t^2-1)^2 make the image of (p, 0) zero,
        # so the two torsion images cannot span the kernel
        p = T**2
        q = T**2 - (T**2 - 1) ** 2
        curve = WeierstrassCurve.from_split(p, q)
        dp = descent_image(CurvePoint.two_torsion_p(), curve, CT)
        assert dp.is_zero()
        result = transcendence_test(T, T + 1, curve, mw_rank_bound=0)
        assert result.verdict is TranscendenceVerdict.UNKNOWN
        assert "dependent" in result.reason

    # f and g are checked before the curve, and the curve before any
    # factoring, so each bad input keeps the error it has always had.
    @pytest.mark.parametrize(
        "curve, f, g, error, message",
        [
            (NON_SPLIT, T, T + 1, ValueError, NOT_SPLIT_MESSAGE),
            (EQUAL_ROOTS, T, T + 1, ValueError, DEGENERATE_MESSAGE),
            (ZERO_ROOT, T, T + 1, ValueError, DEGENERATE_MESSAGE),
            (NON_SPLIT, 0, T + 1, ValueError, "0 has no square class"),
            (EQUAL_ROOTS, T, 0, ValueError, "0 has no square class"),
            (NON_SPLIT, 0, "t", ValueError, "0 has no square class"),
            (ZERO_ROOT, T, 1.5, TypeError, COERCE_MESSAGE),
        ],
    )
    def test_bad_inputs_keep_their_errors(self, curve, f, g, error, message):
        with pytest.raises(error) as excinfo:
            transcendence_test(f, g, curve, mw_rank_bound=0)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message



class TestCurvePoint:
    def test_kinds(self):
        assert CurvePoint.zero().kind is PointKind.ZERO
        assert CurvePoint.two_torsion_p().kind is PointKind.TWO_TORSION_P
        assert CurvePoint.two_torsion_q().kind is PointKind.TWO_TORSION_Q
        assert CurvePoint.two_torsion_origin().kind is PointKind.TWO_TORSION_ORIGIN
        affine = CurvePoint.affine(RationalFunction(T), RationalFunction(T))
        assert affine.kind is PointKind.AFFINE
