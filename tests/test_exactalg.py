"""Polynomials over Q, rational functions, and the two factoring routines."""

import math
import random
from fractions import Fraction

import pytest

from ellbrauer import exactalg
from ellbrauer.exactalg import (
    ONE,
    Polynomial,
    RationalFunction,
    T,
    int_factor,
    poly_extended_gcd,
    poly_factor,
    poly_gcd,
    rat_is_square,
)

# A pool of monic irreducibles used by the randomized checks.  Degrees up
# to three are irreducible exactly when they have no rational root; the
# quintic products below force the divisor interpolation path.
IRREDUCIBLE_POOL = [
    T,
    T + 1,
    T - 2,
    T**2 + 1,
    T**2 - 2,
    T**2 + T + 1,
    T**3 - T - 1,
]


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
        assert Polynomial((0,)).is_zero()

    def test_degree_and_leading(self):
        f = 2 * T**3 - T
        assert f.degree == 3
        assert f.leading() == 2
        assert Polynomial().degree == -1

    def test_arithmetic(self):
        f = (T + 1) * (T - 1)
        assert f == T**2 - 1
        assert f + 1 == T**2
        assert (T + 1) ** 2 == T**2 + 2 * T + 1
        assert 3 - T == Polynomial((3, -1))

    def test_call_is_evaluation(self):
        f = 3 * T**4 - 18 * T**2 + 24 * T - 9
        assert f(1) == 0
        assert f(2) == 15
        assert f(Fraction(1, 2)) == Fraction(3, 16) - Fraction(18, 4) + 12 - 9

    def test_divmod(self):
        f, g = T**5 - 1, T**2 + T + 1
        q, r = divmod(f, g)
        assert q == T**3 - T**2 + 1
        assert r == -T - 2
        assert q * g + r == f

    def test_divmod_property_random(self):
        rng = random.Random(7)
        for _ in range(40):
            f = _random_poly(rng, 6)
            g = _random_poly(rng, 3)
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_derivative(self):
        assert (T**3 - 4 * T).derivative() == 3 * T**2 - 4
        assert Polynomial.constant(5).derivative().is_zero()

    def test_str_canonical(self):
        cases = [
            (Polynomial(), "0"),
            (Polynomial.constant(Fraction(-3, 2)), "-3/2"),
            (T, "t"),
            (-T, "-t"),
            (T**2 - 1, "t^2-1"),
            (Fraction(1, 2) * T, "1/2*t"),
            (2 * T**3 - T, "2*t^3-t"),
            (3 * T**4 - 18 * T**2 + 24 * T - 9, "3*t^4-18*t^2+24*t-9"),
        ]
        for poly, text in cases:
            assert str(poly) == text

    def test_sort_key_orders_by_degree_then_coeffs(self):
        assert (T - 1).sort_key() < T.sort_key() < (T + 1).sort_key()
        assert T.sort_key() < (T**2).sort_key()


class TestRationalFunction:
    def test_reduction_and_monic_denominator(self):
        f = RationalFunction((T**2 - 1) * T, (T - 1) * 2)
        assert f == RationalFunction(T**2 + T, 2)
        assert f.den == ONE
        assert str(RationalFunction(-T, 2)) == "-1/2*t"

    def test_pole_raises(self):
        f = RationalFunction(1, T - 1)
        with pytest.raises(ZeroDivisionError):
            f(1)
        assert f(2) == 1
        g = RationalFunction(T + 5, (3 * T - 2) * (T + 1))
        for pole in (Fraction(2, 3), Fraction(-1)):
            with pytest.raises(ZeroDivisionError):
                g(pole)
        assert g(0) == Fraction(-5, 2)

    @pytest.mark.parametrize(
        "num, den",
        [
            (2 * T + 4, 1),
            (2 * T + 4, -4),
            (Polynomial(), 5),
            (Fraction(3, 7) * T**3 - 1, Fraction(-2, 9)),
        ],
    )
    def test_constant_denominator_normalisation(self, num, den):
        # Same (num, den) as the gcd path takes when a common factor is
        # attached to both sides.
        f = RationalFunction(num, den)
        via_gcd = RationalFunction(num * (T + 1), den * (T + 1))
        assert (f.num, f.den) == (via_gcd.num, via_gcd.den)
        assert f.den == ONE
        assert f.num == num * Fraction(1, den)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(T, Polynomial())

    def test_field_arithmetic(self):
        f = RationalFunction(1, T)
        g = RationalFunction(T, T + 1)
        assert f * g == RationalFunction(1, T + 1)
        assert (f + g) * T * (T + 1) == RationalFunction(T**2 + T + 1)
        assert (f / g) * g == f


class TestGcd:
    def test_gcd_is_monic(self):
        g = poly_gcd(6 * (T - 1) * (T + 2), 4 * (T - 1) * T)
        assert g == T - 1

    def test_gcd_of_coprime_is_one(self):
        assert poly_gcd(T**2 + 1, T - 3) == ONE

    def test_common_factor_random(self):
        rng = random.Random(11)
        for _ in range(30):
            f = _random_poly(rng, 3)
            g = _random_poly(rng, 3)
            h = _random_poly(rng, 2)
            if h.is_zero() or f.is_zero() or g.is_zero():
                continue
            left = poly_gcd(f * h, g * h)
            assert (h.monic()).divides(left)

    def test_extended_gcd_bezout(self):
        rng = random.Random(13)
        for _ in range(30):
            f = _random_poly(rng, 4)
            g = _random_poly(rng, 3)
            if f.is_zero() or g.is_zero():
                continue
            d, s, t = poly_extended_gcd(f, g)
            assert s * f + t * g == d
            assert d == poly_gcd(f, g)


class TestPolyFactor:
    def test_reference_numerator(self):
        fac = poly_factor(3 * (T - 1) ** 3 * (T + 3))
        assert fac.unit == 3
        assert fac.factors == ((T - 1, 3), (T + 3, 1))

    def test_linear_times_quadratic(self):
        fac = poly_factor((T**2 + 1) * (T - 2) * 5)
        assert fac.unit == 5
        assert fac.factors == ((T - 2, 1), (T**2 + 1, 1))

    def test_irreducible_cubic(self):
        fac = poly_factor(T**3 - T - 1)
        assert fac.factors == ((T**3 - T - 1, 1),)

    def test_quintic_needs_divisor_search(self):
        product = (T**2 + T + 1) * (T**3 - T - 1)
        fac = poly_factor(product)
        assert fac.factors == ((T**2 + T + 1, 1), (T**3 - T - 1, 1))

    def test_quartic_into_two_quadratics(self):
        # no rational roots, so only the interpolation search can split it
        product = (T**2 + 1) * (T**2 - 2)
        fac = poly_factor(product)
        assert fac.factors == ((T**2 - 2, 1), (T**2 + 1, 1))

    def test_rational_coefficients(self):
        fac = poly_factor(Fraction(1, 2) * (T - 1) * (T + 1))
        assert fac.unit == Fraction(1, 2)
        assert fac.factors == ((T - 1, 1), (T + 1, 1))

    def test_constant(self):
        fac = poly_factor(Polynomial.constant(7))
        assert fac.unit == 7
        assert fac.factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_factor(Polynomial())

    def test_reassemble_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            chosen = rng.sample(IRREDUCIBLE_POOL, rng.randint(1, 3))
            exponents = [rng.randint(1, 3) for _ in chosen]
            unit = Fraction(rng.choice([1, -1, 2, 3, -5]), rng.choice([1, 2]))
            product = Polynomial.constant(unit)
            for base, e in zip(chosen, exponents):
                product = product * base**e
            fac = poly_factor(product)
            assert fac.unit == unit
            assert dict(fac.factors) == dict(zip(chosen, exponents))
            assert fac.reassemble() == product


# 47# = 614889782588491410, the product of the primes in _small_primes'
# table: a lead it divides sends _lifted_roots past the table, to the first
# prime it finds by trial division.
TABLE_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
PRIMORIAL_47 = math.prod(TABLE_PRIMES)


class TestLiftedRootsPastThePrimeTable:
    @pytest.fixture
    def drawn(self, monkeypatch):
        primes = []
        original = exactalg._small_primes

        def recording():
            for p in original():
                primes.append(p)
                yield p

        monkeypatch.setattr(exactalg, "_small_primes", recording)
        return primes

    def test_root_found_mod_53(self, drawn):
        fac = poly_factor((PRIMORIAL_47 * T - 1) * (T**2 + T + 1))
        assert fac.unit == PRIMORIAL_47
        assert fac.factors == (
            (T - Fraction(1, PRIMORIAL_47), 1),
            (T**2 + T + 1, 1),
        )
        assert drawn == TABLE_PRIMES + [53]

    def test_rootless_cubic_mod_53(self, drawn):
        fac = poly_factor(PRIMORIAL_47 * T**3 - 1)
        assert fac.unit == PRIMORIAL_47
        assert fac.factors == ((T**3 - Fraction(1, PRIMORIAL_47), 1),)
        assert drawn == TABLE_PRIMES + [53]

    def test_content_leaves_an_odd_lead(self, drawn):
        # The primitive model of 47# t^3 - 2 has the odd lead 47#/2, so
        # the prime 2 serves.
        fac = poly_factor(PRIMORIAL_47 * T**3 - 2)
        assert fac.unit == PRIMORIAL_47
        assert fac.factors == ((T**3 - Fraction(2, PRIMORIAL_47), 1),)
        assert drawn == [2]


class TestIntFactor:
    def test_examples(self):
        assert int_factor(-1148) == (-1, ((2, 2), (7, 1), (41, 1)))
        assert int_factor(2310) == (1, ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1)))
        assert int_factor(1) == (1, ())
        assert int_factor(-1) == (-1, ())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            int_factor(0)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 10**6) * rng.choice([1, -1])
            sign, factors = int_factor(n)
            value = sign
            for p, e in factors:
                value *= p**e
            assert value == n
            assert all(int_factor(p) == (1, ((p, 1),)) for p, _ in factors)


class TestRatIsSquare:
    def test_examples(self):
        assert rat_is_square(Fraction(49, 4))
        assert rat_is_square(Fraction(0))
        assert rat_is_square(Fraction(1))
        assert not rat_is_square(Fraction(-4))
        assert not rat_is_square(Fraction(2))
        assert not rat_is_square(Fraction(4, 3))

    def test_squares_random(self):
        rng = random.Random(3)
        for _ in range(50):
            a = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            assert rat_is_square(a * a)
            assert not rat_is_square(-a * a)


def _random_poly(rng: random.Random, max_degree: int) -> Polynomial:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2])) for _ in range(degree + 1)]
    return Polynomial(coeffs)
