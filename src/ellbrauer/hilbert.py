"""Hilbert symbols (a, b)_v over the completions of Q.

The symbol is +1 when z^2 = a*x^2 + b*y^2 has a nontrivial solution over
the completion at v, and -1 otherwise.  Over R it is a sign condition; at
an odd prime p, writing a = p^alpha * u and b = p^beta * w with units u, w,

    (a, b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (w|p)^alpha

with (.|p) the Legendre symbol; at p = 2, with eps(u) = (u-1)/2 and
omega(u) = (u^2-1)/8 taken mod 2,

    (a, b)_2 = (-1)^(eps(u)*eps(w) + alpha*omega(w) + beta*omega(u)).

Both sides depend only on the square classes of a and b, so the symbol and
the square test run on integers: a rational n/d is represented by n*d,
which differs from it by the square d^2.  The public functions accept int
or Fraction (a float raises TypeError, since 0.1 is not 1/10, and a zero
raises ZeroArgumentError, a ValueError) and pass n*d to private integer
kernels, which brauer also calls directly with the representatives it
builds for points of the surface.  Valuations and unit parts come from
repeated division, without factoring, so the arguments may be large;
at p = 2 the unit is read mod 8, where every odd square is 1.  Legendre
symbols are Jacobi symbols computed by quadratic reciprocity (Cohen,
GTM 138, 1.4), and a place's prime is checked once, when the place is
built.

Primality is decided by trial division by the 13 primes 2..41, then by
strong Miller-Rabin tests to as many of those bases as n's size needs.
With psi_k the least strong pseudoprime to the first k bases, those k
bases decide every n < psi_k.  _MR_TIERS holds psi_k where it grows with
k, from Pomerance, Selfridge & Wagstaff 1980 (psi_1..psi_4), Jaeschke 1993
(psi_5..psi_8, with psi_7 = psi_8), Jiang & Deng 2014 (psi_9 = psi_10 =
psi_11) and Sorenson & Webster 2017 (psi_12, and psi_13 ~ 3.3e24).  So a
4-digit prime takes one or two bases and a 12-digit prime five.  At and
above psi_13 primality is decided by BPSW (Baillie & Wagstaff 1980): a
strong base-2 test and a strong Lucas test with Selfridge's parameters,
which no known composite passes.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from ._valueclass import value_class
from .exactalg import _frac, int_factor

Rat = Union[int, Fraction]


class ZeroArgumentError(ValueError):
    """Raised when a symbol, square test or product formula gets a zero."""


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): psi_k is the least strong pseudoprime to the first k of
# _BASES, so those k decide every n < psi_k; a row where psi_k grows.
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def is_prime(n: int) -> bool:
    """Whether n is prime: exact below the last psi_k, BPSW from there on."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    for psi, k in _MR_TIERS:
        if n < psi:
            return all(_strong_probable_prime(n, b) for b in _BASES[:k])
    return (
        _strong_probable_prime(n, 2)
        and isqrt(n) ** 2 != n
        and _strong_lucas_probable_prime(n)
    )


def _strong_probable_prime(n: int, base: int) -> bool:
    """Strong Fermat test of an odd n > base to the given base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of an odd nonsquare n > 41, with Selfridge's P, Q.

    D is the first of 5, -7, 9, -11, ... with (D|n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some 0 <= r < s.
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            # gcd(|D|, n) is a proper factor of n.
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n for k running over the leading bits of d.
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) % n, (D * U + P * V) % n
            # Halve mod the odd n.
            U = (U + n * (U & 1)) // 2
            V = (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for an odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


@value_class
class RationalPlace:
    """A place of Q: a prime p, or None for the real place."""

    p: int | None

    def __post_init__(self) -> None:
        if self.p is None:
            return
        if not isinstance(self.p, int):
            raise TypeError(f"a prime place needs an int, got {type(self.p).__name__}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @staticmethod
    def real() -> "RationalPlace":
        return RationalPlace(None)

    @staticmethod
    def prime(p: int) -> "RationalPlace":
        return RationalPlace(p)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def sort_key(self) -> tuple:
        return (0,) if self.p is None else (1, self.p)

    def __str__(self) -> str:
        return "real" if self.p is None else str(self.p)


REAL = RationalPlace.real()


@value_class
class SymbolValue:
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("a Hilbert symbol is +1 or -1")

    @property
    def inv(self) -> Fraction:
        """The class in (1/2)Z/Z: 0 for +1, 1/2 for -1."""
        return Fraction(0) if self.sign == 1 else Fraction(1, 2)

    def __mul__(self, other: "SymbolValue") -> "SymbolValue":
        if not isinstance(other, SymbolValue):
            return NotImplemented
        return SymbolValue(self.sign * other.sign)

    def __str__(self) -> str:
        return "+1" if self.sign == 1 else "-1"


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p not dividing a."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if a % p == 0:
        raise ValueError(f"{a} is divisible by {p}")
    return _jacobi(a, p)


def _square_class(x: Rat) -> int:
    """The integer num * den, in the square class of the rational x."""
    x = _frac(x)
    return x.numerator * x.denominator


def _unit_part(n: int, p: int) -> tuple[int, int]:
    """p-adic valuation of a nonzero integer n and the remaining unit."""
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v, n >> v
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _eps(m8: int) -> int:
    return (m8 % 4 - 1) // 2 % 2


def _omega(m8: int) -> int:
    return 0 if m8 in (1, 7) else 1


def _symbol_sign(a: int, b: int, p: int | None) -> int:
    """(a, b)_p for nonzero integers a, b; p is None at the real place."""
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _unit_part(a, p)
    beta, w = _unit_part(b, p)
    if p == 2:
        mu, mw = u % 8, w % 8
        e = _eps(mu) * _eps(mw) + alpha * _omega(mw) + beta * _omega(mu)
        return -1 if e % 2 else 1
    # The place checked that p is prime.
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= _jacobi(u, p)
    if alpha % 2:
        sign *= _jacobi(w, p)
    return sign


def _is_square(a: int, p: int | None) -> bool:
    """Whether a nonzero integer is a square in Q_p; p is None for R."""
    if p is None:
        return a > 0
    v, u = _unit_part(a, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return _jacobi(u, p) == 1


def hilbert_symbol(a: Rat, b: Rat, place: RationalPlace) -> SymbolValue:
    """The Hilbert symbol (a, b) at a place of Q; a zero raises ZeroArgumentError."""
    a, b = _square_class(a), _square_class(b)
    if a == 0 or b == 0:
        raise ZeroArgumentError("Hilbert symbols require nonzero arguments")
    return SymbolValue(_symbol_sign(a, b, place.p))


def qp_is_square(a: Rat, place: RationalPlace) -> bool:
    """Whether a nonzero rational is a square in the completion at the place."""
    a = _square_class(a)
    if a == 0:
        raise ZeroArgumentError("square testing applies to nonzero elements")
    return _is_square(a, place.p)


@value_class
class ProductFormulaReport:
    a: Fraction
    b: Fraction
    symbols: tuple[tuple[RationalPlace, SymbolValue], ...]
    product: int

    @property
    def holds(self) -> bool:
        return self.product == 1


def product_formula_check(a: Rat, b: Rat) -> ProductFormulaReport:
    """Evaluate (a, b)_v at the real place, 2, and all odd primes dividing a, b.

    The symbol is +1 at every other place, so the recorded product is the
    full adelic product.
    """
    a, b = _frac(a), _frac(b)
    if a == 0 or b == 0:
        raise ZeroArgumentError("product formula applies to nonzero arguments")
    primes: set[int] = {2}
    for x in (a, b):
        for n in (x.numerator, x.denominator):
            _, fac = int_factor(n)
            primes.update(p for p, _ in fac)
    places = [REAL] + [RationalPlace(p) for p in sorted(primes)]
    symbols = tuple((v, hilbert_symbol(a, b, v)) for v in places)
    product = 1
    for _, s in symbols:
        product *= s.sign
    return ProductFormulaReport(a, b, symbols, product)
