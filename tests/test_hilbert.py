"""Hilbert symbols over the completions of Q.

The formulas in ellbrauer.hilbert are checked against an independent
oracle that decides solvability of a x^2 + b y^2 = z^2 by exhaustive
search in a finite quotient:

  * Multiplying a or b by a nonzero square never changes solvability
    (absorb the square into x or y), so each argument is first replaced
    by a small square class representative: p^e * u with e in {0, 1} and
    u either 1 or a fixed non-residue (odd p), or u in {1,3,5,7} (p = 2).
    The representative search uses only enumerated sets of squares, not
    quadratic reciprocity or any Legendre symbol formula.

  * The equation is homogeneous, so a primitive p-adic solution can be
    scaled to put 1 in some coordinate.  For representatives the
    coefficient valuations are at most 1, and a primitive zero modulo
    p^3 (p odd; modulo 2^6 at p = 2) has a partial derivative of
    valuation at most 1 (at most 2 for p = 2), which is exactly the
    margin Hensel's lemma needs to lift it.  Searching the finite ring
    is therefore a sound and complete solvability test.

At the real place the form misses a solution exactly when both
coefficients are negative.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from ellbrauer.hilbert import (
    REAL,
    ProductFormulaReport,
    RationalPlace,
    SymbolValue,
    ZeroArgumentError,
    _jacobi,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    hilbert_symbol,
    is_prime,
    legendre,
    product_formula_check,
    qp_is_square,
)

# ---------------------------------------------------------------------------
# the oracle


@lru_cache(maxsize=None)
def _squares_mod(m: int) -> frozenset:
    return frozenset(x * x % m for x in range(m))


@lru_cache(maxsize=None)
def _non_residue(p: int) -> int:
    residues = _squares_mod(p)
    for r in range(2, p):
        if r not in residues:
            return r
    raise AssertionError(f"no non-residue modulo {p}")


def _unit_rep_odd(value: Fraction, p: int) -> int:
    """1 or a fixed non-residue, matching the unit part of value mod p."""
    num, den = value.numerator, value.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    unit = num * pow(den, -1, p) % p
    return 1 if unit in _squares_mod(p) else _non_residue(p)


def _unit_rep_two(value: Fraction) -> int:
    num, den = abs(value.numerator), value.denominator
    while num % 2 == 0:
        num //= 2
    while den % 2 == 0:
        den //= 2
    rep = num * den % 8
    if value < 0:
        rep = (-rep) % 8
    return rep


def _valuation(value: Fraction, p: int) -> int:
    v = 0
    num, den = value.numerator, value.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _square_class_rep(value: Fraction, p: int) -> int:
    e = _valuation(value, p) % 2
    if p == 2:
        return 2**e * _unit_rep_two(value)
    unit = _unit_rep_odd(value, p)
    return p**e * unit


@lru_cache(maxsize=None)
def _rep_pair_solvable(a_rep: int, b_rep: int, p: int) -> bool:
    """Search a x^2 + b y^2 = z^2 for a solution with a unit coordinate."""
    modulus = 64 if p == 2 else p**3
    squares = _squares_mod(modulus)
    b_squares = frozenset(b_rep * s % modulus for s in squares)
    for y in range(modulus):
        if (a_rep + b_rep * y * y) % modulus in squares:
            return True  # x = 1
    for x in range(modulus):
        if (a_rep * x * x + b_rep) % modulus in squares:
            return True  # y = 1
    for x in range(modulus):
        if (1 - a_rep * x * x) % modulus in b_squares:
            return True  # z = 1
    return False


def oracle_symbol(a: Fraction, b: Fraction, place: RationalPlace) -> int:
    if a == 0 or b == 0:
        raise ValueError("symbol arguments must be nonzero")
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    a_rep = _square_class_rep(Fraction(a), p)
    b_rep = _square_class_rep(Fraction(b), p)
    return 1 if _rep_pair_solvable(a_rep, b_rep, p) else -1


# ---------------------------------------------------------------------------
# oracle self checks


class TestOracleInternals:
    def test_squares_mod_seven(self):
        assert _squares_mod(7) == frozenset({0, 1, 2, 4})

    def test_non_residue(self):
        assert _non_residue(7) == 3
        assert _non_residue(5) == 2

    def test_square_class_reps_odd(self):
        # 50 = 2 * 5^2 and 2 is a non-residue mod 5
        assert _square_class_rep(Fraction(50), 5) == _non_residue(5)
        assert _square_class_rep(Fraction(9), 7) == 1
        assert _square_class_rep(Fraction(21), 7) == 7 * 3
        assert _square_class_rep(Fraction(1, 7), 7) == 7

    def test_square_class_reps_two(self):
        assert _square_class_rep(Fraction(-287), 2) == 1  # -287 = 1 mod 8
        assert _square_class_rep(Fraction(12), 2) == 3
        assert _square_class_rep(Fraction(2), 2) == 2
        assert _square_class_rep(Fraction(1, 2), 2) == 2

    def test_rep_differs_by_a_local_square(self):
        # representatives differ from the input by a square factor, which
        # the form absorbs; spot check that claim at p = 5
        place = RationalPlace.prime(5)
        for a in (Fraction(50), Fraction(-3), Fraction(7, 10)):
            rep = Fraction(_square_class_rep(a, 5))
            assert qp_is_square(a / rep, place)


class TestAgainstOracle:
    PLACES = [REAL] + [RationalPlace.prime(p) for p in (2, 3, 5, 7, 11, 13)]

    def test_small_window(self):
        for place in self.PLACES:
            for a in range(-6, 7):
                for b in range(-6, 7):
                    if a == 0 or b == 0:
                        continue
                    got = hilbert_symbol(a, b, place).sign
                    assert got == oracle_symbol(Fraction(a), Fraction(b), place), (
                        a,
                        b,
                        str(place),
                    )

    def test_fractional_arguments(self):
        rng = random.Random(61)
        for _ in range(200):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            if a == 0 or b == 0:
                continue
            place = rng.choice(self.PLACES)
            assert hilbert_symbol(a, b, place).sign == oracle_symbol(a, b, place)


class TestKnownValues:
    def test_reference_point_symbol_entries(self):
        two = RationalPlace.prime(2)
        assert hilbert_symbol(-14, 36, two).sign == 1
        assert hilbert_symbol(82, 12, two).sign == -1
        assert hilbert_symbol(96, 12, two).sign == 1
        assert hilbert_symbol(1440, 36, two).sign == 1

    def test_odd_places(self):
        assert hilbert_symbol(3, 5, RationalPlace.prime(5)).sign == -1
        assert hilbert_symbol(3, 5, RationalPlace.prime(3)).sign == -1
        assert hilbert_symbol(3, 5, RationalPlace.prime(7)).sign == 1

    def test_real_place(self):
        assert hilbert_symbol(-1, -1, REAL).sign == -1
        assert hilbert_symbol(-1, 2, REAL).sign == 1
        assert hilbert_symbol(Fraction(1, 3), Fraction(-5, 7), REAL).sign == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgumentError, match="require nonzero arguments"):
            hilbert_symbol(0, 3, REAL)

    @pytest.mark.parametrize("a, b", [(0.5, 3), (3, 0.5), (2.0, 3)])
    def test_float_rejected(self, a, b):
        # Fraction(0.1) is not 1/10, so a float has no exact square class
        with pytest.raises(TypeError):
            hilbert_symbol(a, b, RationalPlace.prime(3))


class TestSymbolValue:
    def test_invariant(self):
        assert SymbolValue(1).inv == 0
        assert SymbolValue(-1).inv == Fraction(1, 2)

    def test_multiplication(self):
        assert (SymbolValue(-1) * SymbolValue(-1)).sign == 1
        assert str(SymbolValue(-1)) == "-1"
        assert str(SymbolValue(1)) == "+1"

    def test_only_signs_allowed(self):
        with pytest.raises(ValueError):
            SymbolValue(0)


class TestAlgebraicLaws:
    PLACES = [REAL] + [RationalPlace.prime(p) for p in (2, 3, 5, 7, 11)]

    def test_symmetry(self):
        rng = random.Random(67)
        for _ in range(150):
            a, b, place = _random_pair(rng), _random_pair(rng), rng.choice(self.PLACES)
            assert hilbert_symbol(a, b, place).sign == hilbert_symbol(b, a, place).sign

    def test_bilinearity(self):
        rng = random.Random(71)
        for _ in range(150):
            a, b1, b2 = _random_pair(rng), _random_pair(rng), _random_pair(rng)
            place = rng.choice(self.PLACES)
            lhs = hilbert_symbol(a, b1 * b2, place).sign
            rhs = hilbert_symbol(a, b1, place).sign * hilbert_symbol(a, b2, place).sign
            assert lhs == rhs

    def test_squares_are_invisible(self):
        rng = random.Random(73)
        for _ in range(100):
            a, b = _random_pair(rng), _random_pair(rng)
            place = rng.choice(self.PLACES)
            assert hilbert_symbol(a * 9, b, place).sign == hilbert_symbol(a, b, place).sign

    def test_steinberg_relation(self):
        rng = random.Random(79)
        for _ in range(100):
            a = _random_pair(rng)
            if a in (0, 1):
                continue
            place = rng.choice(self.PLACES)
            assert hilbert_symbol(a, 1 - a, place).sign == 1
            assert hilbert_symbol(a, -a, place).sign == 1


class TestQpIsSquare:
    def test_two_adic(self):
        two = RationalPlace.prime(2)
        assert qp_is_square(-287, two)  # unit congruent to 1 mod 8
        assert qp_is_square(4, two)
        assert qp_is_square(Fraction(1, 4), two)
        assert not qp_is_square(2, two)
        assert not qp_is_square(3, two)
        assert not qp_is_square(-1, two)

    def test_odd(self):
        five = RationalPlace.prime(5)
        assert qp_is_square(Fraction(4, 9), five)
        assert qp_is_square(-1, five)  # 5 = 1 mod 4
        assert not qp_is_square(5, five)
        assert not qp_is_square(2, five)

    def test_real(self):
        assert qp_is_square(Fraction(9, 2), REAL)
        assert not qp_is_square(-1, REAL)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgumentError, match="nonzero elements"):
            qp_is_square(0, REAL)

    @pytest.mark.parametrize("place", [REAL, RationalPlace.prime(2)])
    def test_float_rejected(self, place):
        with pytest.raises(TypeError):
            qp_is_square(0.25, place)


_LARGE_PRIMES = [
    7919, 65537, 1000003, 998244353, 999999937, 1000000007, 1000000009,
    2147483647, 4294967291, 999999999989,
]


class TestLegendre:
    def test_matches_enumerated_residues(self):
        for p in (3, 5, 7, 11, 13, 17):
            residues = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                expected = 1 if a in residues else -1
                assert legendre(a, p) == expected

    def test_multiple_of_p_rejected(self):
        with pytest.raises(ValueError):
            legendre(21, 7)

    @pytest.mark.parametrize("p", [2, 1, 15, 561])
    def test_not_an_odd_prime_rejected(self, p):
        with pytest.raises(ValueError, match="is not an odd prime"):
            legendre(3, p)

    @pytest.mark.parametrize("p", _LARGE_PRIMES)
    def test_euler_criterion(self, p):
        rng = random.Random(p)
        for _ in range(60):
            a = rng.randrange(-10 * p, 10 * p)
            if a % p == 0:
                continue
            euler = pow(a, (p - 1) // 2, p)
            assert legendre(a, p) == (1 if euler == 1 else -1)

    def test_jacobi_is_the_product_over_prime_factors(self):
        rng = random.Random(17)
        flags = _sieve(400)
        for n in range(1, 400, 2):
            factors = [d for d in range(3, n + 1, 2) if n % d == 0 and flags[d]]
            for _ in range(10):
                a = rng.randrange(-5 * n, 5 * n)
                expected = 1
                for p in factors:
                    e = 0
                    m = n
                    while m % p == 0:
                        m //= p
                        e += 1
                    if a % p == 0:
                        expected = 0
                    else:
                        expected *= (1 if pow(a, (p - 1) // 2, p) == 1 else -1) ** e
                assert _jacobi(a, n) == expected, (a, n)


def _sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k of _BASES (Pomerance,
# Selfridge & Wagstaff 1980; Jaeschke 1993; Jiang & Deng 2014; Sorenson &
# Webster 2017).
_PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}


def _all_bases_verdict(n: int) -> bool:
    """Trial division by _BASES, then the strong test to all 13 of them."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    return all(_strong_probable_prime(n, b) for b in _BASES)


def _next_prime(n: int) -> int:
    while not _all_bases_verdict(n):
        n += 1
    return n


class TestIsPrime:
    def test_values(self):
        primes = {2, 3, 5, 7, 11, 13, 97}
        for n in range(-3, 100):
            assert is_prime(n) == (n in primes or (n > 1 and all(n % d for d in range(2, n))))

    def test_sieve(self):
        flags = _sieve(200_000)
        assert [n for n in range(200_000) if is_prime(n) != flags[n]] == []

    @pytest.mark.parametrize("n", [561, 41041, 825265])
    def test_carmichael_numbers(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n, k", [(psi, k) for k, psi in sorted(_PSI.items())])
    def test_strong_pseudoprimes(self, n, k):
        # psi_k passes the strong test to its first k bases, so a test that
        # ran only those on psi_k itself would call it prime.
        assert all(_strong_probable_prime(n, b) for b in _BASES[:k])
        assert not is_prime(n)

    def test_agrees_with_all_thirteen_bases(self):
        # Below psi_13 the 13 bases decide primality, so a sized test must
        # give their verdict: on n log-uniform in [2, psi_13), and on
        # products of two primes near each psi_k and on those primes.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        top = _PSI[13]

        @st.composite
        def log_uniform(draw):
            bits = draw(st.integers(2, top.bit_length()))
            return draw(st.integers(max(2, 2 ** (bits - 1)), min(2**bits, top) - 1))

        @st.composite
        def near_psi(draw):
            psi = draw(st.sampled_from(sorted(set(_PSI.values()))))
            small = draw(st.integers(4, psi.bit_length() // 2))
            p = _next_prime(draw(st.integers(2 ** (small - 1), 2**small)))
            spread = psi // p // 8
            q = _next_prime(psi // p + draw(st.integers(-spread, spread)))
            hypothesis.assume(p * q < top)
            return [p, q, p * q]

        @hypothesis.settings(deadline=None, max_examples=300)
        @hypothesis.given(st.one_of(log_uniform().map(lambda n: [n]), near_psi()))
        def check(numbers):
            for n in numbers:
                assert is_prime(n) == _all_bases_verdict(n), n

        check()

    def test_pseudoprime_to_all_bases(self):
        n = 3317044064679887385961981
        assert n == 1287836182261 * 2575672364521
        # Miller-Rabin to every base accepts it; BPSW rejects it.
        assert all(_strong_probable_prime(n, b) for b in _BASES)
        assert not is_prime(n)

    @pytest.mark.parametrize("n", _LARGE_PRIMES + [2**61 - 1, 2**89 - 1, 2**127 - 1])
    def test_known_primes(self, n):
        assert is_prime(n)
        assert not is_prime(n * n)
        assert not is_prime(n * 1000003)

    def test_strong_lucas_pseudoprimes(self):
        # OEIS A217255: the odd composite nonsquares below 60000 that pass
        # the strong Lucas test with Selfridge's parameters.
        flags = _sieve(60_000)
        passing = [
            n for n in range(43, 60_000, 2)
            if not flags[n] and isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)
        ]
        assert passing == [
            5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
        ]

    def test_strong_lucas_accepts_primes(self):
        flags = _sieve(20_000)
        primes = [n for n in range(43, 20_000) if flags[n]]
        assert all(_strong_lucas_probable_prime(n) for n in primes)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2017)
        for _ in range(400):
            n = rng.randrange(10**9, 10**40)
            if rng.random() < 0.5:
                n = int(sympy.nextprime(n))
            assert is_prime(n) == sympy.isprime(n), n

    def test_place_constructor_validates(self):
        with pytest.raises(ValueError):
            RationalPlace.prime(1)
        with pytest.raises(ValueError):
            RationalPlace.prime(15)
        with pytest.raises(ValueError, match="15 is not prime"):
            RationalPlace(15)

    @pytest.mark.parametrize("p", [3.0, Fraction(3), "3"])
    def test_place_requires_int_prime(self, p):
        with pytest.raises(TypeError, match="needs an int"):
            RationalPlace.prime(p)
        with pytest.raises(TypeError):
            RationalPlace(p)


class TestProductFormula:
    def test_reference_pair(self):
        report = product_formula_check(-14, 36)
        assert isinstance(report, ProductFormulaReport)
        assert report.holds
        assert report.product == 1

    def test_symbols_cover_support(self):
        report = product_formula_check(Fraction(-3, 2), 10)
        names = {str(place) for place, _ in report.symbols}
        assert {"real", "2", "3", "5"} <= names

    @pytest.mark.parametrize("a, b", [(0, 3), (Fraction(5, 2), 0)])
    def test_zero_rejected(self, a, b):
        with pytest.raises(ZeroArgumentError, match="nonzero arguments"):
            product_formula_check(a, b)
        assert issubclass(ZeroArgumentError, ValueError)

    def test_random_pairs(self):
        rng = random.Random(83)
        for _ in range(300):
            a, b = _random_pair(rng), _random_pair(rng)
            assert product_formula_check(a, b).holds

    @pytest.mark.parametrize("a, b", [(0.5, 3), (3, 0.1)])
    def test_float_rejected(self, a, b):
        with pytest.raises(TypeError):
            product_formula_check(a, b)


def _random_pair(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 400), rng.randint(1, 60)) * rng.choice([1, -1])
    return value
