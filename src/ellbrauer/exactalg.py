"""Exact arithmetic over Q and Q[t].

Polynomials are dense tuples of Fraction coefficients, lowest degree first,
with no trailing zeros, so equality and hashing are structural.  Rational
functions are reduced quotients with a monic denominator.  Everything here
is exact: no floats anywhere.

Evaluation at a rational a/b runs Horner's rule on integers: the
coefficients are brought to their common denominator D and the powers of b
are carried along, so a single Fraction, the integer sum over D * b^deg,
is normalised per call.  A rational function with a constant (hence unit) denominator
is evaluated as its numerator.

Factorization over Q proceeds by squarefree reduction, rational root
extraction, and a bounded divisor-interpolation search for factors of the
rootless part.  The search is exhaustive for the degrees this package
works with (curve coefficient data of moderate degree); it is not meant as
a general-purpose factorizer for large random inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Iterator, Sequence, Union

from ._valueclass import value_class

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Polynomial:
    """Univariate polynomial over Q in the variable t."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()) -> None:
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        return Polynomial((_frac(c),))

    @staticmethod
    def variable() -> "Polynomial":
        return Polynomial((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._coeffs[0] if self._coeffs else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.leading()
        return self if lc == 1 else Polynomial(tuple(c / lc for c in self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Polynomial", self._coeffs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self._coeffs))

    def __add__(self, other: object) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        a, b = self._coeffs, other._coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = _coerce_poly(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        d = other.degree
        lc = other.leading()
        if len(rem) - 1 < d:
            return Polynomial(), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q = c / lc
                quot[i - d] = q
                for j, oc in enumerate(other._coeffs):
                    rem[i - d + j] -= q * oc
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero()

    def __call__(self, x: Scalar) -> Fraction:
        """Value at x = a/b: sum(n_i a^i b^(d-i)) / (D b^d), n_i = c_i D.

        D is the common denominator of the coefficients, built pairwise:
        lcm(*generator) would materialise a tuple per call.
        """
        x = _frac(x)
        cs = self._coeffs
        den = 1
        for c in cs:
            den = lcm(den, c.denominator)
        a, b = x.numerator, x.denominator
        acc = 0
        b_pow = 1
        for c in reversed(cs):
            acc = acc * a + c.numerator * (den // c.denominator) * b_pow
            b_pow *= b
        return Fraction(acc, den * b ** max(len(cs) - 1, 0))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute inner for t."""
        acc = Polynomial()
        for c in reversed(self._coeffs):
            acc = acc * inner + Polynomial((c,))
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self._coeffs))[1:])

    def sort_key(self) -> tuple:
        # Total order: by degree, then coefficient tuple from the constant up.
        return (self.degree, self._coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _coerce_poly(x: object) -> Polynomial | None:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    return None


T = Polynomial.variable()

ONE = Polynomial((1,))


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd in Q[t]; gcd(0, 0) is 0."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_extended_gcd(
    f: Polynomial, g: Polynomial
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Monic g0 = gcd(f, g) together with s, t satisfying s*f + t*g = g0."""
    r0, r1 = f, g
    s0, s1 = ONE, Polynomial()
    t0, t1 = Polynomial(), ONE
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.leading()
    inv = Polynomial((1 / lc,))
    return r0.monic(), s0 * inv, t0 * inv


class RationalFunction:
    """Element of Q(t), stored as num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: object, den: object = 1) -> None:
        n = _coerce_poly(num)
        d = _coerce_poly(den)
        if n is None or d is None:
            raise TypeError("RationalFunction expects polynomial or scalar operands")
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if d.degree > 0:
            g = poly_gcd(n, d)
            if g.degree > 0:
                n, d = n // g, d // g
        lc = d.leading()
        if lc != 1:
            inv = Polynomial((1 / lc,))
            n, d = n * inv, d * inv
        self.num = n
        self.den = d

    @staticmethod
    def coerce(x: object) -> "RationalFunction":
        """x itself if it is a RationalFunction, else x as one."""
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction(x)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num.as_constant() / self.den.as_constant()

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RationalFunction", self.num, self.den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __add__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise TypeError("rational function powers must be integers")
        if n >= 0:
            return RationalFunction(self.num**n, self.den**n)
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return RationalFunction(self.den ** (-n), self.num ** (-n))

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at a rational point; raises ZeroDivisionError at a pole."""
        if self.den.degree == 0:
            return self.num(x)
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of {self} at t = {x}")
        return self.num(x) / d

    def substitute(self, inner: Polynomial) -> "RationalFunction":
        return RationalFunction(self.num.compose(inner), self.den.compose(inner))

    def sort_key(self) -> tuple:
        return (self.num.sort_key(), self.den.sort_key())

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        num = str(self.num)
        if self.num.degree > 0:
            num = f"({num})"
        den = str(self.den)
        if self.den.degree > 0:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _coerce_rf(x: object) -> RationalFunction | None:
    if isinstance(x, RationalFunction):
        return x
    p = _coerce_poly(x)
    return None if p is None else RationalFunction(p)


@value_class
class Factorization:
    """Product unit * prod(base**exp) with monic irreducible bases in sort order."""

    unit: Fraction
    factors: tuple[tuple[Polynomial, int], ...]

    def reassemble(self) -> Polynomial:
        acc = Polynomial((self.unit,))
        for base, exp in self.factors:
            acc = acc * base**exp
        return acc


def poly_factor(f: Polynomial) -> Factorization:
    """Factor a nonzero polynomial into monic irreducibles over Q."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading()
    m = f.monic()
    if m.degree == 0:
        return Factorization(unit, ())
    radical = m // poly_gcd(m, m.derivative())
    irreducibles = _factor_squarefree(radical)
    factors = []
    for base in irreducibles:
        exp = 0
        while True:
            q, r = divmod(m, base)
            if not r.is_zero():
                break
            m = q
            exp += 1
        factors.append((base, exp))
    # All irreducible content is accounted for once the radical's factors
    # are divided out to full multiplicity.
    assert m.degree == 0 and m.as_constant() == 1
    factors.sort(key=lambda fe: fe[0].sort_key())
    return Factorization(unit, tuple(factors))


def _factor_squarefree(h: Polynomial) -> list[Polynomial]:
    """Irreducible factors of a monic squarefree polynomial.

    Linear and quadratic h are settled without the rational root search,
    whose divisor enumeration is exponential in the coefficients' size.
    """
    if h.degree == 1:
        return [h]
    if h.degree == 2:
        b, c = h.coeff(1), h.coeff(0)
        d = b * b - 4 * c
        if not rat_is_square(d):
            return [h]
        root_d = Fraction(isqrt(d.numerator), isqrt(d.denominator))
        return [T - (-b - root_d) / 2, T - (-b + root_d) / 2]
    out: list[Polynomial] = []
    for r in _rational_roots(h):
        out.append(T - r)
        h = h // (T - r)
    out.extend(_factor_rootless(h))
    return out


def _rational_roots(h: Polynomial) -> list[Fraction]:
    """All rational roots of h, via the integer root bound on a primitive model."""
    den = lcm(*(c.denominator for c in h.coeffs))
    ints = [int(c * den) for c in h.coeffs]
    shift = 0
    while ints[shift] == 0:
        shift += 1
    roots = [Fraction(0)] if shift else []
    trailing, leading = abs(ints[shift]), abs(ints[-1])
    seen = set()
    for a in _divisors(trailing):
        for b in _divisors(leading):
            if gcd(a, b) != 1:
                continue
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if cand not in seen:
                    seen.add(cand)
                    if h(cand) == 0:
                        roots.append(cand)
    return sorted(roots)


def _factor_rootless(h: Polynomial) -> list[Polynomial]:
    """Factor a monic squarefree polynomial with no rational roots.

    Degrees 2 and 3 are irreducible outright.  From degree 4 on, any
    proper factor g of the primitive integer model H satisfies
    g(x) | H(x) at every integer x, so searching divisor tuples at
    deg(g) + 1 points and interpolating is exhaustive.
    """
    if h.degree <= 0:
        return []
    if h.degree <= 3:
        return [h]
    split = _divisor_interpolation_split(h)
    if split is None:
        return [h]
    g, cof = split
    return sorted(
        _factor_rootless(g) + _factor_rootless(cof), key=Polynomial.sort_key
    )


def _divisor_interpolation_split(
    h: Polynomial,
) -> tuple[Polynomial, Polynomial] | None:
    den = lcm(*(c.denominator for c in h.coeffs))
    ints = [int(c * den) for c in h.coeffs]
    content = gcd(*ints)
    H = Polynomial([Fraction(c // content) for c in ints])
    xs: list[int] = []
    for k in count():
        x = (k + 1) // 2 * (1 if k % 2 == 0 else -1)
        if H(x) != 0:
            xs.append(x)
        if len(xs) > h.degree // 2:
            break
    values = [int(H(x)) for x in xs]
    div_lists = [_signed_divisors(v) for v in values]
    # Normalizing the first value positive halves the search; g and -g
    # divide H together.
    div_lists[0] = [d for d in div_lists[0] if d > 0]
    for d in range(2, h.degree // 2 + 1):
        pts = xs[: d + 1]
        chosen: list[int] = []

        def search(i: int) -> tuple[Polynomial, Polynomial] | None:
            if i == d + 1:
                cand = _interpolate(pts, chosen)
                if cand is None or cand.degree < 1:
                    return None
                q, r = divmod(H, cand)
                if r.is_zero() and 0 < cand.degree < H.degree:
                    return cand.monic(), q.monic()
                return None
            for v in div_lists[i]:
                # An integer polynomial satisfies g(a) = g(b) mod (a - b).
                if all((v - chosen[j]) % (pts[i] - pts[j]) == 0 for j in range(i)):
                    chosen.append(v)
                    found = search(i + 1)
                    chosen.pop()
                    if found is not None:
                        return found
            return None

        found = search(0)
        if found is not None:
            return found
    return None


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> Polynomial | None:
    """Lagrange interpolation, returning None unless all coefficients are integers."""
    acc = Polynomial()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Polynomial((yi,))
        for j, xj in enumerate(xs):
            if j != i:
                term = term * Polynomial((Fraction(-xj, xi - xj), Fraction(1, xi - xj)))
        acc = acc + term
    if all(c.denominator == 1 for c in acc.coeffs):
        return acc
    return None


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no divisor list")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _signed_divisors(n: int) -> list[int]:
    out = []
    for d in _divisors(n):
        out.append(d)
        out.append(-d)
    return out


def int_factor(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Sign and prime factorization of a nonzero integer, by trial division."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out: list[tuple[int, int]] = []
    for p in _trial_primes():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return sign, tuple(out)


def _trial_primes() -> Iterator[int]:
    yield 2
    yield 3
    k = 5
    while True:
        yield k
        yield k + 2
        k += 6


def rat_is_square(q: Scalar) -> bool:
    """Whether a rational number is a square in Q."""
    q = _frac(q)
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d
