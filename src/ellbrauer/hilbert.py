"""Hilbert symbols (a, b)_v over the completions of Q.

The symbol is +1 when z^2 = a*x^2 + b*y^2 has a nontrivial solution over
the completion at v, and -1 otherwise.  Over R it is a sign condition; at
an odd prime p, writing a = p^alpha * u and b = p^beta * w with units u, w,

    (a, b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (w|p)^alpha

with (.|p) the Legendre symbol; at p = 2, with eps(u) = (u-1)/2 and
omega(u) = (u^2-1)/8 taken mod 2,

    (a, b)_2 = (-1)^(eps(u)*eps(w) + alpha*omega(w) + beta*omega(u)).

All arguments are exact rationals; valuations and unit parts are computed
without factoring, so the arguments may be large.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from ._valueclass import value_class
from .exactalg import int_factor

Rat = Union[int, Fraction]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


@value_class
class RationalPlace:
    """A place of Q: a prime p, or None for the real place."""

    p: int | None

    @staticmethod
    def real() -> "RationalPlace":
        return RationalPlace(None)

    @staticmethod
    def prime(p: int) -> "RationalPlace":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
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
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    if a % p == 0:
        raise ValueError(f"{a} is divisible by {p}")
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def _val_unit(x: Fraction, p: int) -> tuple[int, Fraction]:
    """p-adic valuation of x and the remaining unit, by repeated division."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_legendre(u: Fraction, p: int) -> int:
    # (num/den | p) = (num*den | p) since den^2 is a square mod p.
    return legendre(u.numerator * u.denominator, p)


def _unit_mod8(u: Fraction) -> int:
    # num/den = num*den mod 8 for odd den, because den^2 = 1 mod 8.
    return (u.numerator * u.denominator) % 8


def _eps(m8: int) -> int:
    return (m8 % 4 - 1) // 2 % 2


def _omega(m8: int) -> int:
    return 0 if m8 in (1, 7) else 1


def hilbert_symbol(a: Rat, b: Rat, place: RationalPlace) -> SymbolValue:
    """The Hilbert symbol (a, b) at a place of Q; a and b must be nonzero."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbols require nonzero arguments")
    if place.is_real:
        return SymbolValue(-1 if a < 0 and b < 0 else 1)
    p = place.p
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p == 2:
        mu, mw = _unit_mod8(u), _unit_mod8(w)
        e = _eps(mu) * _eps(mw) + alpha * _omega(mw) + beta * _omega(mu)
        return SymbolValue(-1 if e % 2 else 1)
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= _unit_legendre(u, p)
    if alpha % 2:
        sign *= _unit_legendre(w, p)
    return SymbolValue(sign)


def qp_is_square(a: Rat, place: RationalPlace) -> bool:
    """Whether a nonzero rational is a square in the completion at the place."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("square testing applies to nonzero elements")
    if place.is_real:
        return a > 0
    p = place.p
    v, u = _val_unit(a, p)
    if v % 2:
        return False
    if p == 2:
        return _unit_mod8(u) == 1
    return _unit_legendre(u, p) == 1


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
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("product formula applies to nonzero arguments")
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
