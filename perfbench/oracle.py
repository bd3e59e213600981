"""Independent output checks, run after the timed region.

Each check recomputes the expected answer from the operation's inputs
alone, with sympy for polynomial arithmetic and factorization, and with
Euler's criterion for Legendre and Hilbert symbols.  sympy is a
benchmark-only dependency; the program under test never imports it.
``check`` returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import sympy as sp

T = sp.Symbol("t")

VERDICTS = {
    "transcendental": 0,
    "algebraic over C": 1,
    "unknown": 3,
}


def check(record: dict) -> str | None:
    if "error" in record:
        return record["error"]
    op, out = record["op"], record["output"]
    try:
        return _CHECKS[op["kind"]](op, out)
    except (KeyError, IndexError, ValueError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# --- shared helpers ----------------------------------------------------------

Key = tuple[str, ...]  # coefficients of a monic irreducible, constant first


def _parse(text: str) -> sp.Poly:
    return sp.Poly(sp.sympify(text.replace("^", "**"), locals={"t": T}), T, domain="QQ")


def _poly(coeffs) -> sp.Poly:
    """Polynomial from coefficients (ints or Fraction text), constant first."""
    return sp.Poly([sp.Rational(c) for c in reversed(coeffs)], T, domain="QQ")


def _key(factor: sp.Poly) -> Key:
    return tuple(str(Fraction(str(c))) for c in factor.monic().all_coeffs()[::-1])


@functools.lru_cache(maxsize=None)
def _factors_cached(coeffs: tuple) -> tuple[Fraction, dict[Key, int]]:
    poly = sp.Poly(list(coeffs), T, domain="QQ")
    _, items = poly.factor_list()
    return Fraction(str(poly.LC())), {_key(f): e for f, e in items}


def _factors(poly: sp.Poly) -> tuple[Fraction, dict[Key, int]]:
    """Unit (leading coefficient) and monic irreducible factors with multiplicity."""
    return _factors_cached(tuple(poly.all_coeffs()))


def _odd_factors(poly: sp.Poly) -> frozenset[Key]:
    return frozenset(k for k, e in _factors(poly)[1].items() if e % 2)


def _square_free_class(r: Fraction) -> tuple[bool, list[int]]:
    """Sign and primes of odd exponent of a nonzero rational."""
    primes = []
    for n in (r.numerator, r.denominator):
        primes += [p for p, e in sp.factorint(abs(n)).items() if e % 2]
    return r < 0, sorted(primes)


def _is_rational_square(r: Fraction) -> bool:
    sign, primes = _square_free_class(r)
    return not sign and not primes


def _multiplicity(pi: sp.Poly, f: sp.Poly) -> int:
    e = 0
    while True:
        quo, rem = f.div(pi)
        if not rem.is_zero:
            return e
        f, e = quo, e + 1


def _euler(x: int, p: int) -> int:
    """Legendre symbol (x|p) by Euler's criterion, for x prime to p."""
    return 1 if pow(x % p, (p - 1) // 2, p) == 1 else -1


def _val_unit(x: Fraction, p: int) -> tuple[int, Fraction]:
    v = sp.multiplicity(p, x.numerator) - sp.multiplicity(p, x.denominator)
    return v, x / Fraction(p) ** v


def _hilbert(a: Fraction, b: Fraction, p: int | None) -> int:
    """(a, b)_v at the real place (p None), at 2, or at an odd prime."""
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p == 2:
        u8 = u.numerator * u.denominator % 8
        w8 = w.numerator * w.denominator % 8
        eps = lambda m: (m - 1) // 2 % 2  # noqa: E731
        omega = lambda m: (m * m - 1) // 8 % 2  # noqa: E731
        e = eps(u8) * eps(w8) + alpha * omega(w8) + beta * omega(u8)
        return -1 if e % 2 else 1
    sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    if beta % 2:
        sign *= _euler(u.numerator * u.denominator, p)
    if alpha % 2:
        sign *= _euler(w.numerator * w.denominator, p)
    return sign


def _lines(out: dict) -> list[str]:
    return out["out"].splitlines()


def _value(lines: list[str], key: str) -> str:
    prefix = f"{key} = "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise KeyError(key)


def _place_key(text: str):
    return "infinity" if text == "infinity" else _key(_parse(text))


# --- reference_sampling ------------------------------------------------------

# The reference surface: p = 3(t-1)^3(t+3), q = p(-t).
REF_P = _parse("3*(t-1)^3*(t+3)")
REF_Q = _parse("3*(t+1)^3*(t-3)")


def _check_verify(op: dict, out: dict) -> str | None:
    lines = _lines(out)
    if out["code"] != 0 or not lines or lines[-1] != "ALL CHECKS PASS":
        return f"verify exited {out['code']}, last line {lines[-1:]!r}"
    for p in op["places"]:
        name = "real" if p == 0 else str(p)
        if not any(line.startswith(f"sampling at {name}: ok (") for line in lines):
            return f"no passing sampling line for {name}"
    return None


@functools.lru_cache(maxsize=1)
def _reference_excluded() -> list[str]:
    """Rational t over singular fibers of the reference surface."""
    disc = 16 * REF_P**2 * REF_Q**2 * (REF_P - REF_Q) ** 2
    keys = [k for k in _factors(disc)[1] if len(k) == 2]
    return [str(r) for r in sorted(-Fraction(k[0]) for k in keys)]


def _check_vanishing(op: dict, out: dict) -> str | None:
    if out["excluded"] != _reference_excluded():
        return f"excluded parameters {out['excluded']} != {_reference_excluded()}"
    if out["valid"] < 1 or out["valid"] + out["skipped"] > op["samples"]:
        return f"{out['valid']} valid and {out['skipped']} skipped of {op['samples']}"
    if out["nonzero"] or out["zero"] != out["valid"]:
        return f"{out['nonzero']} nonzero invariants away from 2"
    return None


# --- custom_fibrations -------------------------------------------------------

_FIBER_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


def _kodaira(vc4: int | None, vd: int) -> str | None:
    """Kodaira symbol from minimal valuations (char 0); None for good."""
    a = 10**9 if vc4 is None else vc4
    if vd == 0:
        return None
    if a == 0:
        return f"I_{vd}"
    table = [
        (vd == 2, "II"), (vd == 3 and a == 1, "III"), (vd == 4 and a >= 2, "IV"),
        (vd == 6 and a >= 2, "I_0*"), (vd >= 7 and a == 2, f"I_{vd - 6}*"),
        (vd == 8 and a >= 3, "IV*"), (vd == 9 and a == 3, "III*"),
        (vd == 10 and a >= 4, "II*"),
    ]
    for cond, name in table:
        if cond:
            return name
    raise ValueError(f"valuations ({vc4}, {vd}) outside the Kodaira table")


def _fiber_euler(name: str) -> int:
    if name in _FIBER_EULER:
        return _FIBER_EULER[name]
    n = int(name[2:].rstrip("*"))
    return n + 6 if name.endswith("*") else n


def expected_fibers(p: sp.Poly, q: sp.Poly) -> dict[object, str]:
    """Bad fibers of y^2 = x(x-p)(x-q): place key -> Kodaira symbol."""
    c4 = 16 * (p**2 - p * q + q**2)
    c6 = 32 * (p + q) * (2 * (p + q) ** 2 - 9 * p * q)
    disc = 16 * p**2 * q**2 * (p - q) ** 2
    invariants = [None if f.is_zero else f for f in (c4, c6, disc)]
    out = {}
    for key in list(_factors(disc)[1]) + ["infinity"]:
        if key == "infinity":
            vals = [None if f is None else -f.degree() for f in invariants]
        else:
            pi = _poly(key)
            vals = [None if f is None else _multiplicity(pi, f) for f in invariants]
        vc4, vc6, vd = vals
        n = min([vd // 12] + [v // k for v, k in ((vc4, 4), (vc6, 6)) if v is not None])
        name = _kodaira(None if vc4 is None else vc4 - 4 * n, vd - 12 * n)
        if name is not None:
            out[key] = name
    return out


def _check_fibers(op: dict, out: dict) -> str | None:
    if out["code"] != 0:
        return f"fibers exited {out['code']}: {out['err'].strip()}"
    lines = _lines(out)
    found = {}
    for line in lines:
        if " : " in line:
            place, name = line.split(" : ")
            found[_place_key(place)] = name
    euler, chi = int(_value(lines, "euler number")), int(_value(lines, "chi"))
    if euler <= 0 or euler != 12 * chi:
        return f"euler number {euler} is not 12 * chi = {12 * chi}"
    expected = expected_fibers(_poly(op["p"]), _poly(op["q"]))
    if found != expected:
        return f"fiber table {found} != {expected}"
    degree = lambda key: 1 if key == "infinity" else len(key) - 1  # noqa: E731
    total = sum(degree(k) * _fiber_euler(v) for k, v in expected.items())
    if total != euler:
        return f"fiber Euler numbers sum to {total}, printed {euler}"
    return None


def _class_dict(poly: sp.Poly) -> dict:
    unit, factors = _factors(poly)
    sign, primes = _square_free_class(unit)
    return {
        "sign": sign,
        "primes": primes,
        "polys": sorted(list(k) for k, e in factors.items() if e % 2),
    }


def _transcendence_verdict(p, q, f, g) -> str:
    """Span test over C(t) of (f, g) against the images of (p,0), (q,0)."""
    g1 = (_odd_factors(p - q), _odd_factors(p * (p - q)))
    g2 = (_odd_factors(q * (q - p)), _odd_factors(q - p))
    zero = (frozenset(), frozenset())
    if zero in (g1, g2) or g1 == g2:
        return "unknown"
    both = (g1[0] ^ g2[0], g1[1] ^ g2[1])
    target = (_odd_factors(f), _odd_factors(g))
    return "algebraic over C" if target in (zero, g1, g2, both) else "transcendental"


def _check_descent_image(op: dict, out: list) -> str | None:
    p, q = _poly(op["p"]), _poly(op["q"])
    pair = {
        "p": (p - q, p * (p - q)),
        "q": (q * (q - p), q - p),
        "origin": ((p - q) * q * (q - p), p * (p - q) * (q - p)),
    }[op["point"]]
    want = [_class_dict(f) for f in pair]
    if out != want:
        return f"descent image of {op['point']}: {out} != {want}"
    return None


def _check_transcendence_test(op: dict, out: str) -> str | None:
    p, q = _poly(op["p"]), _poly(op["q"])
    verdict = _transcendence_verdict(p, q, _poly(op["f"]), _poly(op["g"]))
    if out != verdict:
        return f"transcendence verdict {out!r} != {verdict!r}"
    return None


# --- symbol_arithmetic -------------------------------------------------------


def _check_hilbert(op: dict, out: dict) -> str | None:
    p = op["p"]
    if not sp.isprime(p):
        return f"generated place {p} is not prime"
    sign = _hilbert(Fraction(op["a"]), Fraction(op["b"]), p)
    lines = _lines(out)
    want = ("+1", "0") if sign == 1 else ("-1", "1/2")
    if out["code"] != 0 or len(lines) != 2:
        return f"hilbert exited {out['code']} with {len(lines)} lines"
    if not lines[0].endswith(f"_{p} = {want[0]}") or lines[1] != f"invariant = {want[1]}":
        return f"hilbert printed {lines}, expected symbol {want[0]}"
    return None


def _check_product(op: dict, out: dict) -> str | None:
    a, b = Fraction(op["a"]), Fraction(op["b"])
    primes = {2}
    for x in (a, b):
        for n in (x.numerator, x.denominator):
            primes.update(sp.factorint(abs(n)))
    want = [["real", _hilbert(a, b, None)]]
    want += [[str(p), _hilbert(a, b, p)] for p in sorted(primes)]
    if out["symbols"] != want:
        return f"product formula symbols {out['symbols']} != {want}"
    if out["product"] != 1:
        return f"product of symbols is {out['product']}"
    return None


def _class_text(r: Fraction) -> str:
    """How the CLI prints the square class of a rational residue."""
    sign, primes = _square_free_class(r)
    parts = (["-1"] if sign else []) + [str(p) for p in primes]
    return " * ".join(parts) or "1"


def _unit_residue(f: sp.Poly, key, v: int) -> Fraction:
    """Value at a degree-1 place of f * pi^(-v)."""
    if key == "infinity":
        return Fraction(str(f.LC()))
    unit = f.exquo(_poly(key) ** v)
    return Fraction(str(unit.eval(-sp.Rational(key[0]))))


def expected_residues(symbols: list[tuple[sp.Poly, sp.Poly]]) -> dict:
    """Place key -> 'trivial', 'undetermined' or the class text of the residue."""
    places: set = set()
    for f, g in symbols:
        for h in (f, g):
            places.update(_factors(h)[1])
            if h.degree() > 0:
                places.add("infinity")
    out = {}
    for key in places:
        if key == "infinity":
            val = lambda h: -h.degree()  # noqa: E731
        else:
            pi = _poly(key)
            val = lambda h, pi=pi: _multiplicity(pi, h)  # noqa: E731
        product, verdict = Fraction(1), "trivial"
        for f, g in symbols:
            vf, vg = val(f), val(g)
            if vf % 2 == 0 and vg % 2 == 0:
                continue
            if key == "infinity" or len(key) == 2:
                r = Fraction(1)
                if vg % 2:
                    r *= _unit_residue(f, key, vf)
                if vf % 2:
                    r *= _unit_residue(g, key, vg)
                product *= -r if vf % 2 and vg % 2 else r
                continue
            fbar = f.exquo(pi**vf).rem(pi)
            gbar = g.exquo(pi**vg).rem(pi)
            prod = (fbar ** (vg % 2) * gbar ** (vf % 2)).rem(pi)
            if vf % 2 and vg % 2:
                prod = -prod
            if prod.degree() > 0 or not _is_rational_square(Fraction(str(prod.LC()))):
                verdict = "undetermined"
        if verdict == "trivial" and not _is_rational_square(product):
            verdict = _class_text(product)
        out[key] = verdict
    return out


def _check_residues(op: dict, out: dict) -> str | None:
    symbols = [(_parse(f), _parse(g)) for f, g in op["symbols"]]
    expected = expected_residues(symbols)
    lines = _lines(out)
    found = {}
    for line in lines[:-1]:
        place, text = line.split(" : ")
        if text in ("trivially one", "class 1"):
            text = "trivial"
        elif text.startswith("class "):
            text = text[len("class "):]
        found[_place_key(place)] = text
    if found != expected:
        return f"residues {found} != {expected}"
    values = set(expected.values())
    if values - {"trivial", "undetermined"}:
        code, word = 1, "no"
    elif "undetermined" in values:
        code, word = 3, "undetermined"
    else:
        code, word = 0, "yes"
    if out["code"] != code or lines[-1] != f"unramified over the projective line = {word}":
        return f"residues exited {out['code']} with {lines[-1]!r}, expected {code}"
    return None


def _check_transcendence(op: dict, out: dict) -> str | None:
    verdict = _transcendence_verdict(REF_P, REF_Q, _parse(op["f"]), _parse(op["g"]))
    got = _value(_lines(out), "verdict")
    if got != verdict or out["code"] != VERDICTS[verdict]:
        return f"transcendence {got!r} exit {out['code']}, expected {verdict!r}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "vanishing": _check_vanishing,
    "fibers": _check_fibers,
    "descent_image": _check_descent_image,
    "transcendence_test": _check_transcendence_test,
    "hilbert": _check_hilbert,
    "product": _check_product,
    "residues": _check_residues,
    "transcendence": _check_transcendence,
}
