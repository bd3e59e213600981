"""Exact arithmetic over Q and Q[t], and the integer models behind it.

Polynomials are dense tuples of Fraction coefficients, lowest degree first,
with no trailing zeros, so equality is structural; a polynomial equals the
scalar it is constant at, and its hash is computed once and agrees with
scalar equality: a constant hashes as its constant (zero as 0), any other
polynomial as its integer model (below), which equal polynomials share.
Rational functions are reduced quotients with a monic denominator, and one
with denominator 1 hashes as its numerator.  Two rational functions with
the same denominator are added and subtracted over it, (n +- n') / d, with
no cross-multiplication; the product of a polynomial with the constant 1
is the other factor itself, so unit denominators cost no multiplication.
Everything here is exact: no floats anywhere.

Only this module turns polynomials into integers: integer models (the
coefficients times their common denominator D, ``_integer_model``), one
exact division in Z[t] (``_divide``) and the deflation that repeats it
(``_deflate``), and what is built on them: ``deflate_at`` (the valuation
at a finite place, and the residue of the unit part, a Fraction at
degree 1 and a polynomial of lower degree than the place above it),
``coefficient_bits``, ``poly_gcd``, ``poly_factor`` and ``factor_over``.
Integer valuations live here too: ``_unit_part`` splits n into p^v * u,
for ``int_factor`` and for hilbert's symbols and primality tests.

A polynomial builds its integer model on first use and keeps it, as it
keeps its hash.  Evaluation at a rational a/b runs Horner's rule on that
model, carrying the powers of b along (``_horner``, which also gives
``deflate_at`` its residue at a degree-1 place), so a single Fraction,
the integer sum over D * b^deg, is normalised per call.  A rational
function with a constant (hence unit) denominator is evaluated as its
numerator.

Factorization over Q works on the primitive integer model H of f and on
g = gcd(H, H') in Z[t], from the primitive remainder sequence.  The
rational roots of the radical H / g come from Hensel lifting the roots
mod one small prime, in time polynomial in the coefficients' bits; the
rootless rest goes to the Kronecker split, a divisor-interpolation
search.  A factor of multiplicity e divides g e - 1 times; it is built
once, as a monic polynomial that keeps its primitive model.  The split
is exhaustive, and its cost grows with the degree and with the divisors
of the values it interpolates: it is meant for curve coefficient data of
moderate degree.  Three inputs show the limit: t^511 - 1
(``fibers --p t^512 --q t``) and t^24 - 1 (``fibers --p t^24 --q 1``)
do not finish in 10 s, and the degree-7 product
(t^2-20t+27)(2t^2-t+23)(5t^3+20t^2-8t+17) takes seconds (ROADMAP.md's
baseline table times it on one host).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Sequence, Union

from ._valueclass import value_class

Scalar = Union[int, Fraction]
_Ints = Sequence[int]  # an integer model, or a list built from one


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Polynomial:
    """Univariate polynomial over Q in the variable t."""

    __slots__ = ("_coeffs", "_hash", "_model")

    def __init__(self, coeffs: Sequence[Scalar] = ()) -> None:
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)
        self._hash: int | None = None
        self._model: tuple[tuple[int, ...], int] | None = None

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
        # Computed on first use and kept.  A constant hashes as its value;
        # any other polynomial as its integer model, which factoring builds.
        if self._hash is None:
            self._hash = hash(
                _integer_model(self) if len(self._coeffs) > 1 else self.as_constant()
            )
        return self._hash

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
        out = list(self._coeffs) + [0] * (len(other._coeffs) - len(self._coeffs))
        for i, c in enumerate(other._coeffs):
            out[i] -= c
        return Polynomial(out)

    def __rsub__(self, other: object) -> "Polynomial":
        other = _coerce_poly(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other: object) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        a, b = self._coeffs, other._coeffs
        if len(a) == 1 and a[0] == 1:
            return other
        if len(b) == 1 and b[0] == 1:
            return self
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

        The n_i and D are the polynomial's integer model, which is built
        on first use and kept (``_integer_model``).
        """
        x = _frac(x)
        ns, den = _integer_model(self)
        b = x.denominator
        return Fraction(_horner(ns, x.numerator, b), den * b ** max(len(ns) - 1, 0))

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


# A residue at a finite place: in Q at degree 1, a polynomial mod pi above.
_Residue = Union[Fraction, Polynomial]


def _integer_model(poly: Polynomial) -> tuple[tuple[int, ...], int]:
    """The coefficients of poly times their common denominator D, and D.

    The model of a monic polynomial is primitive, with leading coefficient D.
    Polynomials are immutable, so it is built on first use and kept, as
    the hash is.
    """
    if poly._model is None:
        cs = poly._coeffs
        den = 1
        for c in cs:
            den = lcm(den, c.denominator)
        poly._model = tuple([c.numerator * (den // c.denominator) for c in cs]), den
    return poly._model


def _horner(ns: Sequence, a, b):
    """b^m * N(a/b) for N = ns of degree m, by Horner's rule.

    Only + and * are used, so ns, a and b may come from any ring where
    they mix: integers here, and polynomials in brauer.BaseChange.
    """
    acc, b_pow = 0, 1
    for n in reversed(ns):
        acc = acc * a + n * b_pow
        b_pow *= b
    return acc


def _divide(ns: _Ints, ps: _Ints) -> list[int] | None:
    """ns / P in Z[t] when P = ps divides nonzero ns, else None.

    P is primitive, so by Gauss's lemma it divides in Z[t] when it does in
    Q[t].  The division runs from the top down and stops at the first
    quotient coefficient that is not an integer or at a nonzero remainder.
    At degree 1, P = s*t - r, the next quotient coefficient is
    (n_i + r*q) / s; above it, each one updates d remainder coefficients.
    """
    d, lead = len(ps) - 1, ps[-1]
    quot = [0] * (len(ns) - d)
    if d == 1:
        r, q = -ps[0], 0
        for i in range(len(ns) - 1, 0, -1):
            q, rem = divmod(ns[i] + r * q, lead)
            if rem:
                return None
            quot[i - 1] = q
        return None if ns[0] + r * q else quot
    rem = list(ns)
    for i in range(len(ns) - 1, d - 1, -1):
        q, m = divmod(rem[i], lead)
        if m:
            return None
        quot[i - d] = q
        for j in range(d):
            rem[i - d + j] -= q * ps[j]
    return None if any(rem[:d]) else quot


def _deflate(ps: _Ints, ns: _Ints) -> tuple[int, _Ints]:
    """(v, quot) with ns = P^v * quot in Z[t] and P = ps not dividing quot.

    P is primitive of degree d >= 1 and ns is nonzero.
    """
    v = 0
    while (quot := _divide(ns, ps)) is not None:
        ns, v = quot, v + 1
    return v, ns


def deflate_at(
    pi: Polynomial, num: Polynomial, den: Polynomial
) -> tuple[int, Callable[[], _Residue]]:
    """v = v(num) - v(den) at pi, and on call the residue of num/den * pi^-v.

    pi is monic and nonconstant, num and den nonzero.  The residue of poly
    is that of w = poly * pi^-v(poly): w(r) at pi = t - r, by ``_horner``
    on integers, and w mod pi above degree 1.  With integer models
    P = lead * pi, built once for both, and N = D * poly = P^v * quot in
    Z[t], w = quot * lead^v / D.  At degree 1 the two residues are
    divided; above it a constant denominator residue is inverted as a
    rational, and any other by the extended gcd with pi.
    """
    ps, lead = _integer_model(pi)
    nums, dens = ((poly, *_deflated(ps, poly)) for poly in (num, den))

    def reduced(poly: Polynomial, v: int, quot: _Ints | None, d: int) -> _Residue:
        if quot is None:  # poly is already reduced mod pi
            return poly if len(ps) > 2 else poly.as_constant()
        if len(ps) > 2:
            return Polynomial(quot) % pi * Fraction(lead**v, d)
        acc = _horner(quot, -ps[0], lead)
        return Fraction(acc * lead**v, d * lead ** (len(quot) - 1))

    def residue() -> _Residue:
        n, d = reduced(*nums), reduced(*dens)
        if len(ps) == 2:
            return n / d
        if d.is_constant():
            return n * (1 / d.as_constant())
        _, inv, _ = poly_extended_gcd(d, pi)  # pi is irreducible
        return n * inv % pi

    return nums[1] - dens[1], residue


def _deflated(ps: _Ints, poly: Polynomial) -> tuple[int, _Ints | None, int]:
    """(v, quot, D) with D * poly = P^v * quot, P = ps primitive.

    A poly of lower degree than P is not deflated: (0, None, 1).
    """
    if poly.degree < len(ps) - 1:
        return 0, None, 1
    ns, d = _integer_model(poly)
    return (*_deflate(ps, ns), d)


def coefficient_bits(f: Polynomial) -> int:
    """Bits enough for every numerator and denominator of f's coefficients.

    With D the common denominator of the coefficients, this is the bit
    length of max(D, sum |D c|).  It bounds products before they are
    built: the bits of f g are at most those of f plus those of g, and
    the bits of f^n at most n times those of f.
    """
    ns, den = _integer_model(f)
    return max(den, sum(map(abs, ns))).bit_length()


def _coerce_poly(x: object) -> Polynomial | None:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    return None


T = Polynomial.variable()

ONE = Polynomial((1,))


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd in Q[t]; gcd(0, 0) is 0.

    Computed in Z[t] on the primitive integer models of f and g.
    """
    if f.is_zero() or g.is_zero():
        h = g if f.is_zero() else f
        return h.monic() if h else h
    fs, gs = (_primitive(_integer_model(h)[0]) for h in (f, g))
    return _from_primitive(_integer_gcd(fs, gs))


def _primitive(ns: _Ints) -> list[int]:
    """Nonzero ns over the gcd of its coefficients, with a positive lead."""
    c = gcd(*ns)
    return [n // c for n in ns] if ns[-1] > 0 else [-n // c for n in ns]


def _from_primitive(ps: list[int]) -> Polynomial:
    """The monic polynomial of a primitive ps with positive lead L, built as
    is, with ps as its integer model and D = L (see ``_integer_model``)."""
    poly, lead = Polynomial.__new__(Polynomial), ps[-1]
    cs = map(Fraction, ps) if lead == 1 else [Fraction(n, lead) for n in ps]
    poly._coeffs, poly._hash, poly._model = tuple(cs), None, (tuple(ps), lead)
    return poly


def _integer_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd, with a positive lead, of primitive a and b in Z[t].

    The primitive remainder sequence: (a, b) becomes (b, pp(r)), with r
    a's remainder by b after scaling a by powers of b's lead, so no
    quotient leaves Z.  Gauss's lemma keeps the gcd of the primitive
    parts unchanged, and taking pp at each step keeps the coefficients
    from growing (von zur Gathen & Gerhard, Modern Computer Algebra, 6.3).
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        d, lead = len(b) - 1, b[-1]
        rem = list(a)
        while len(rem) > d:
            c = rem.pop()
            if c:
                g = gcd(c, lead)
                scale, c, k = lead // g, c // g, len(rem) - d
                if scale != 1:
                    rem = [scale * n for n in rem]
                for j in range(d):
                    rem[k + j] -= c * b[j]
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return b
        a, b = b, _primitive(rem)
    return [1]


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

    def __init__(self, num: object, den: object = ONE) -> None:
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

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # A unit denominator is the only constant one, and then self
        # equals its numerator.
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __add__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num - other.num, self.den)
        return self + (-other)

    def __rsub__(self, other: object) -> "RationalFunction":
        other = _coerce_rf(other)
        return NotImplemented if other is None else other - self

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
    return factor_over(f, ())


def factor_over(f: Polynomial, bases: Sequence[Polynomial]) -> Factorization:
    """poly_factor(f) for nonzero f, with known irreducibles divided out first.

    bases are monic irreducibles.  Each is divided out of f's integer
    model to full multiplicity (Gauss's lemma: a primitive divisor in Q[t]
    divides in Z[t]), and only a nonconstant cofactor goes to
    ``_factor_model``.  Factorization into monic irreducibles is unique,
    so the result does not depend on which bases are given.
    """
    ns = _integer_model(f)[0]
    factors = []
    for base in bases:
        if base.degree < len(ns):  # else base cannot divide what is left
            exp, ns = _deflate(_integer_model(base)[0], ns)
            if exp:
                factors.append((base, exp))
    if len(ns) > 1:
        factors.extend(_factor_model(_primitive(ns)))
    if bases and len(factors) > 1:  # _factor_model's own list is sorted
        factors.sort(key=lambda fe: fe[0].sort_key())
    return Factorization(f.leading(), tuple(factors))


def _factor_model(hs: list[int]) -> list[tuple[Polynomial, int]]:
    """(base, multiplicity) for the monic irreducible factors of hs, sorted.

    hs is primitive with a positive lead and degree at least 1.  If
    H = prod b^e, then g = gcd(H, H') = prod b^(e - 1): the bases are the
    factors of the radical H / g, and b divides g e - 1 times.  Rational
    roots come from ``_lifted_roots``, or in closed form at degree 2, where
    a square discriminant s^2 gives the primitive parts of 2a t + b +- s.
    """
    g = _integer_gcd(hs, _primitive([i * c for i, c in enumerate(hs)][1:]))
    hs = _divide(hs, g) if len(g) > 1 else hs
    roots = _lifted_roots(hs) if len(hs) > 3 else []
    if len(hs) == 3:
        c, b, a = hs
        disc = b * b - 4 * a * c  # nonzero, as hs is squarefree
        s = isqrt(disc) if disc > 0 else -1
        roots = [_primitive([b + s, 2 * a])] if s * s == disc else []
    bases = []
    for ps in roots:
        if (rest := _divide(hs, ps)) is not None:
            bases.append(_from_primitive(ps))
            hs = rest
    if len(hs) > 1:
        bases += _factor_rootless(_from_primitive(hs))
    out = []
    for base in bases:  # g = 1 takes no division
        v, g = _deflate(_integer_model(base)[0], g) if len(g) > 1 else (0, g)
        out.append((base, v + 1))
    if len(out) > 1:
        out.sort(key=lambda fe: fe[0].sort_key())
    return out


def _lifted_roots(hs: list[int]) -> list[list[int]]:
    """Bases [-a, b] among which is b t - a for each root a/b of squarefree hs.

    hs is primitive with a positive lead and degree at least 2.  A root
    a/b in lowest terms has b | lead, and |a/b| is at most Cauchy's bound
    1 + M/lead, M the largest other |coefficient|; so lead * a/b is an
    integer of absolute value at most lead + M.  Take the least prime p
    not dividing lead at which every root of hs mod p is simple.  a/b
    reduces to one of those roots, and by Hensel's lemma it is the only
    p-adic root above it.  Newton's iteration lifts each root mod p to a
    modulus m > 2 (lead + M), and the residue of lead * x mod m nearest
    zero is then lead * a/b (von zur Gathen & Gerhard, Modern Computer
    Algebra, 15.4).  The work is polynomial in the coefficients' bits.
    """
    lead = hs[-1]
    bound = 2 * (lead + max(map(abs, hs[:-1])))
    dhs = [i * c for i, c in enumerate(hs)][1:]
    for p in _small_primes():
        if lead % p:
            roots = [x for x in range(p) if _eval_mod(hs, x, p) == 0]
            if all(_eval_mod(dhs, x, p) for x in roots):
                break
    out = []
    for x in roots:
        m = p
        while m <= bound:
            m *= m
            step = _eval_mod(hs, x, m) * pow(_eval_mod(dhs, x, m), -1, m)
            x = (x - step) % m
        c = lead * x % m
        out.append(_primitive([m - c if 2 * c > m else -c, lead]))
    return out


def _eval_mod(cs: list[int], x: int, m: int) -> int:
    # Not _horner then % m: reducing at each step keeps every sum below
    # m^2 while Newton's iteration squares m.
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _small_primes() -> Iterator[int]:
    yield from (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for n in count(53, 2):  # past the table, odd n by trial division
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


def _factor_rootless(h: Polynomial) -> list[Polynomial]:
    """Factor a monic squarefree polynomial, linear or with no rational root.

    Degrees 1 to 3 are irreducible outright.  From degree 4 on, any
    proper factor g of the primitive integer model H satisfies
    g(x) | H(x) at every integer x, so searching divisor tuples at
    deg(g) + 1 points and interpolating is exhaustive.
    """
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
    H = Polynomial(_integer_model(h)[0])  # primitive, as h is monic
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
            e, n = _unit_part(n, p)
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return sign, tuple(out)


def _unit_part(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u, for nonzero n."""
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v, n >> v
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


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
