"""Square classes of Q(t)* and C(t)* and the F2 span machinery.

The span and independence routines are checked against a brute force
enumeration of all subset sums, so the Gaussian elimination inside
never has to be trusted on its own.
"""

import random
from fractions import Fraction

import pytest

from ellbrauer.exactalg import Polynomial, RationalFunction, T
from ellbrauer.squareclass import (
    FieldMode,
    SquareClassVector,
    class_of,
    in_span,
    independent,
)

QT = FieldMode.RATIONAL_CONSTANTS
CT = FieldMode.CONSTANTS_ARE_SQUARES
Q = FieldMode.RATIONALS_ONLY


def _subset_sums(generators):
    """Every F2 combination of the generator pairs, keyed by coefficient mask."""
    out = {}
    for mask in range(2 ** len(generators)):
        first = SquareClassVector.zero(generators[0][0].mode)
        second = SquareClassVector.zero(generators[0][0].mode)
        for i, (a, b) in enumerate(generators):
            if mask >> i & 1:
                first = first + a
                second = second + b
        out[mask] = (first, second)
    return out


class TestClassOf:
    def test_rational_constants_mode(self):
        v = class_of(RationalFunction(12 * T), QT)
        assert v.sign is False
        assert v.primes == frozenset({3})
        assert v.polys == frozenset({T})

    def test_sign_tracked(self):
        v = class_of(RationalFunction(Polynomial.constant(-12)), QT)
        assert v.sign is True
        assert v.primes == frozenset({3})

    def test_constants_are_squares_mode_drops_constants(self):
        v = class_of(RationalFunction(-12 * T * (T + 1) ** 2), CT)
        assert v.sign is False
        assert v.primes == frozenset()
        assert v.polys == frozenset({T})

    def test_reference_numerators(self):
        p = RationalFunction(3 * (T - 1) ** 3 * (T + 3))
        assert class_of(p, QT).primes == frozenset({3})
        assert class_of(p, QT).polys == frozenset({T - 1, T + 3})
        assert class_of(p, CT).polys == frozenset({T - 1, T + 3})

    def test_denominators_count(self):
        v = class_of(RationalFunction(1, 2 * T), QT)
        assert v.primes == frozenset({2})
        assert v.polys == frozenset({T})

    def test_even_exponents_vanish(self):
        v = class_of(RationalFunction(4 * (T - 5) ** 2), QT)
        assert v.is_zero()

    def test_rationals_only_mode(self):
        v = class_of(RationalFunction(Polynomial.constant(-3)), Q)
        assert v.sign is True and v.primes == frozenset({3})
        with pytest.raises(ValueError):
            class_of(RationalFunction(T), Q)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            class_of(RationalFunction(0), QT)

    def test_str(self):
        assert str(class_of(RationalFunction(Polynomial.constant(1)), QT)) == "1"
        assert str(class_of(RationalFunction(Polynomial.constant(-3)), Q)) == "-1 * 3"


class TestGroupLaw:
    def test_homomorphism_random(self):
        rng = random.Random(41)
        pool = [T, T + 1, T - 2, T**2 + 1]
        for mode in (QT, CT):
            for _ in range(40):
                f = _random_ratfunc(rng, pool)
                g = _random_ratfunc(rng, pool)
                assert class_of(f * g, mode) == class_of(f, mode) + class_of(g, mode)

    def test_every_class_is_an_involution(self):
        v = class_of(RationalFunction(-6 * T * (T + 1)), QT)
        assert (v + v).is_zero()
        assert v + SquareClassVector.zero(QT) == v

    def test_squares_are_trivial(self):
        rng = random.Random(43)
        pool = [T, T - 2, T**2 - 2]
        for _ in range(20):
            f = _random_ratfunc(rng, pool)
            assert class_of(f * f, QT).is_zero()

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            class_of(RationalFunction(T), QT) + class_of(RationalFunction(T), CT)

    def test_forget_constants_projects(self):
        rng = random.Random(47)
        pool = [T, T + 1, T**2 + 1]
        for _ in range(30):
            f = _random_ratfunc(rng, pool)
            assert class_of(f, QT).forget_constants() == class_of(f, CT)


class TestModeValidation:
    def test_polys_forbidden_in_rationals_only(self):
        with pytest.raises(ValueError):
            SquareClassVector(Q, False, frozenset(), frozenset({T}))

    def test_constants_forbidden_when_squares(self):
        with pytest.raises(ValueError):
            SquareClassVector(CT, False, frozenset({2}), frozenset())
        with pytest.raises(ValueError):
            SquareClassVector(CT, True, frozenset(), frozenset())

    def test_nonmonic_basis_rejected(self):
        with pytest.raises(ValueError):
            SquareClassVector(QT, False, frozenset(), frozenset({2 * T}))


class TestSpan:
    def _random_vector(self, rng, mode):
        pool = [T, T + 1, T - 2, T**2 + 1, T - 5]
        f = _random_ratfunc(rng, pool)
        return class_of(f, mode)

    def test_in_span_matches_enumeration(self):
        rng = random.Random(53)
        for mode in (QT, CT):
            for _ in range(60):
                generators = [
                    (self._random_vector(rng, mode), self._random_vector(rng, mode))
                    for _ in range(rng.randint(1, 4))
                ]
                target = rng.choice(
                    [
                        (self._random_vector(rng, mode), self._random_vector(rng, mode)),
                        rng.choice(list(_subset_sums(generators).values())),
                    ]
                )
                member, combo = in_span(target, generators)
                sums = _subset_sums(generators)
                assert member == (target in sums.values())
                if member:
                    picked = sum(1 << i for i, c in enumerate(combo) if c)
                    assert sums[picked] == target

    def test_certificate_for_pair_sum(self):
        a = (class_of(RationalFunction(T), CT), class_of(RationalFunction(T + 1), CT))
        b = (class_of(RationalFunction(T - 2), CT), class_of(RationalFunction(T), CT))
        target = (a[0] + b[0], a[1] + b[1])
        member, combo = in_span(target, [a, b])
        assert member and tuple(combo) == (1, 1)

    def test_not_in_span(self):
        a = (class_of(RationalFunction(T), CT), SquareClassVector.zero(CT))
        target = (SquareClassVector.zero(CT), class_of(RationalFunction(T), CT))
        member, combo = in_span(target, [a])
        assert not member and combo is None

    def test_empty_generators(self):
        assert in_span(SquareClassVector.zero(QT), []) == (True, [])
        assert in_span(class_of(RationalFunction(T), QT), []) == (False, None)

    def test_mismatched_tuples_rejected(self):
        a, b = class_of(RationalFunction(T), CT), class_of(RationalFunction(T), QT)
        with pytest.raises(ValueError, match="same length"):
            in_span((a, a), [(a,)])
        with pytest.raises(ValueError, match="same length"):
            independent([(a,), (a, a)])
        with pytest.raises(ValueError, match="mixed field modes"):
            in_span(a, [b])
        with pytest.raises(ValueError, match="mixed field modes"):
            independent([(a, b)])


class TestIndependence:
    def test_matches_enumeration_random(self):
        rng = random.Random(59)
        pool = [T, T + 1, T - 2]
        for _ in range(60):
            vectors = []
            for _ in range(rng.randint(1, 4)):
                f = _random_ratfunc(rng, pool)
                vectors.append((class_of(f, CT), class_of(f * _random_ratfunc(rng, pool), CT)))
            got = independent(vectors)
            brute = all(
                any(not part.is_zero() for part in total)
                for mask, total in _subset_sums(vectors).items()
                if mask != 0
            )
            assert got == brute

    def test_duplicate_vectors_dependent(self):
        v = (class_of(RationalFunction(T), CT), class_of(RationalFunction(T + 1), CT))
        assert independent([v])
        assert not independent([v, v])

    def test_zero_vector_dependent(self):
        zero = (SquareClassVector.zero(CT), SquareClassVector.zero(CT))
        assert not independent([zero])


def _random_ratfunc(rng: random.Random, pool) -> RationalFunction:
    num = Polynomial.constant(Fraction(rng.choice([1, -1, 2, 3, 6]), rng.choice([1, 5])))
    den = Polynomial.constant(1)
    for base in pool:
        num = num * base ** rng.randint(0, 2)
        den = den * base ** rng.randint(0, 1)
    return RationalFunction(num, den)
