"""Seeded workload generators.

A workload is an endless stream of operations drawn from
``random.Random("<workload>:<seed>")``, so equal seeds give equal streams.
Each operation is a plain JSON-serializable dict: CLI operations carry the
exact argv handed to ``ellbrauer.cli.main``; library operations carry the
integer or rational inputs the worker turns into library objects.  This
module imports nothing from ``ellbrauer`` and nothing outside the standard
library, so the program under test sees only the generated inputs.

The stream is cut into rounds, and every operation carries its round
number.  Within a round every size parameter is stratified (one draw per
stratum, then shuffled), so the cost of a round barely depends on the
seed, and a run made of whole rounds has a steady throughput.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("reference_sampling", "custom_fibrations", "symbol_arithmetic")

# Input-size ranges, quoted in BENCHMARK.json and README.md.
SAMPLE_PLACES = (0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)  # 0 is the real place
VERIFY_SAMPLES = (20, 120)
VERIFY_HEIGHT = (12, 40)
VANISHING_SAMPLES = (40, 300)
VANISHING_HEIGHT = (20, 60)
HILBERT_PRIME_LOG10 = (3.0, 12.0)
PRODUCT_PRIME_LOG10 = (6.0, 12.0)
CONSTANT_PRIME_LOG10 = (9.0, 12.5)

# Curve templates for custom_fibrations: the factor shapes of p and q (L
# linear, Q irreducible quadratic, L2 and L3 repeated linear factors) and
# the degrees of the irreducible factors p - q must have.  Fixing all three
# fixes the shape of the factoring work for each curve.
CURVE_TEMPLATES = (
    (("L", "L"), ("L", "L"), (1, 1)),
    (("L2", "L"), ("L", "Q"), (3,)),
    (("L3", "L"), ("L3", "L"), (1, 3)),
    (("Q", "L"), ("L", "L", "L"), (3,)),
    (("Q", "L"), ("L2",), (1, 2)),
    (("L", "L", "L"), ("Q", "L"), (3,)),
    (("L2", "Q"), ("L", "L"), (4,)),
    (("Q",), ("L", "L", "L", "L"), (4,)),
)


def operations(workload: str, seed: int) -> Iterator[dict]:
    """The endless, seeded operation stream of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    round_of = {
        "reference_sampling": _sampling_round,
        "custom_fibrations": _fibration_round,
        "symbol_arithmetic": _symbol_round,
    }[workload]
    for number in itertools.count():
        batch = round_of(rng)
        rng.shuffle(batch)
        for op in batch:
            yield {**op, "round": number}


def _strata(rng: random.Random, k: int) -> list[float]:
    """k draws from [0, 1), one per stratum of width 1/k, shuffled."""
    out = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(out)
    return out


def _span(lo: float, hi: float, s: float) -> int:
    return round(lo + (hi - lo) * s)


def _log_span(lo10: float, hi10: float, s: float) -> int:
    return int(10 ** (lo10 + (hi10 - lo10) * s))


def _place_name(p: int) -> str:
    return "real" if p == 0 else str(p)


# --- reference_sampling ------------------------------------------------------


def _sampling_round(rng: random.Random) -> list[dict]:
    ops = []
    for i, s in enumerate(_strata(rng, 3)):
        places = rng.sample(SAMPLE_PLACES, 1 + i % 3)
        samples = _span(*VERIFY_SAMPLES, s)
        height = rng.randint(*VERIFY_HEIGHT)
        ops.append({
            "kind": "verify",
            "argv": [
                "verify", "--samples", str(samples), "--height", str(height),
                "--sample-places", ",".join(_place_name(p) for p in places),
            ],
            "places": places,
        })
    for s in _strata(rng, 13):
        ops.append({
            "kind": "vanishing",
            "place": rng.choice(SAMPLE_PLACES),
            "samples": _span(*VANISHING_SAMPLES, s),
            "height": rng.randint(*VANISHING_HEIGHT),
        })
    return ops


# --- custom_fibrations -------------------------------------------------------

Poly = list[int]  # integer coefficients, constant term first


def _mul(f: Poly, g: Poly) -> Poly:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _sub(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _product(polys: list[Poly]) -> Poly:
    out = [1]
    for f in polys:
        out = _mul(out, f)
    return out


def _expr(f: Poly) -> str:
    """Expression text for the CLI grammar, highest degree first."""
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        mag = abs(c)
        var = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts) or "0"
    return text[1:] if text.startswith("+") else text


Factored = tuple[int, tuple[tuple[Poly, int], ...]]  # constant, (monic base, power)


def _factor(rng: random.Random, kind: str) -> tuple[Poly, int]:
    if kind == "Q":
        while True:
            b, c = rng.randint(-2, 2), rng.randint(-2, 4)
            d = b * b - 4 * c
            if d < 0 or math.isqrt(d) ** 2 != d:
                return [c, b, 1], 1
    return [-rng.randint(-3, 3), 1], {"L": 1, "L2": 2, "L3": 3}[kind]


def _shaped(rng: random.Random, shape: tuple[str, ...]) -> Factored:
    const = rng.choice((1, -1, 2, -2, 3, -3))
    return const, tuple(_factor(rng, kind) for kind in shape)


def _expand(fp: Factored) -> Poly:
    const, factors = fp
    return _product([[const]] + [base for base, power in factors for _ in range(power)])


def _render(fp: Factored) -> str:
    const, factors = fp
    return "*".join(
        [str(const)]
        + [f"({_expr(base)})" + (f"^{e}" if e > 1 else "") for base, e in factors]
    )


def _negate_t(fp: Factored) -> Factored:
    """The factored form of f(-t), with monic bases."""
    const, factors = fp
    out = []
    for base, power in factors:
        deg = len(base) - 1
        out.append(([c * (-1) ** (i + deg) for i, c in enumerate(base)], power))
        const *= (-1) ** (deg * power)
    return const, tuple(out)


def _proportional(f: Poly, g: Poly) -> bool:
    return len(f) == len(g) and all(
        a * g[-1] == b * f[-1] for a, b in zip(f, g)
    )


def _curve(rng: random.Random, template) -> tuple[Factored, Factored]:
    pshape, qshape, degrees = template
    for _ in range(10_000):
        p, q = _shaped(rng, pshape), _shaped(rng, qshape)
        pe, qe = _expand(p), _expand(q)
        if not _proportional(pe, qe) and factor_degrees(_sub(pe, qe)) == degrees:
            return p, q
    raise ValueError(f"no curve found for template {template}")


def _divide(f: list[Fraction], g: list[Fraction]) -> tuple[list[Fraction], bool]:
    """Quotient of f by g, and whether the division is exact."""
    rem, quot = list(f), [Fraction(0)] * (len(f) - len(g) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(g) - 1] / g[-1]
        quot[i] = c
        for j, gc in enumerate(g):
            rem[i + j] -= c * gc
    return quot, not any(rem)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def factor_degrees(f: Poly) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors over Q, for degree <= 4."""
    h = [Fraction(c) for c in f]
    degrees = []
    while len(h) > 1:
        a0 = h[0].numerator * h[0].denominator
        an = h[-1].numerator * h[-1].denominator
        candidates = [Fraction(0)] if a0 == 0 else [
            Fraction(s * u, v)
            for u in _divisors(a0) for v in _divisors(an) for s in (1, -1)
        ]
        root = next((r for r in candidates if _divide(h, [-r, Fraction(1)])[1]), None)
        if root is None:
            break
        h = _divide(h, [-root, Fraction(1)])[0]
        degrees.append(1)
    if len(h) == 5 and _quadratic_factor(h):
        degrees += [2, 2]
    elif len(h) > 1:
        degrees.append(len(h) - 1)
    return tuple(sorted(degrees))


def _quadratic_factor(h: list[Fraction]) -> bool:
    """Whether a quartic without rational roots is a product of quadratics.

    A factor a t^2 + b t + c of the primitive integer model H has a | lc(H),
    c | H(0) and a + b + c | H(1), which leaves finitely many candidates.
    """
    den = math.lcm(*(c.denominator for c in h))
    ints = [int(c * den) for c in h]
    at_one = sum(ints)
    for a in _divisors(ints[-1]):
        for c in _divisors(ints[0]):
            for e in _divisors(at_one):
                for sc, se in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    g = [Fraction(sc * c), Fraction(se * e - a - sc * c), Fraction(a)]
                    if _divide(h, g)[1]:
                        return True
    return False


CATALOG_SIZE = 3  # base curves per template
CURVE_SCALES = (1, -1, 2, -2, 3, -3)


@functools.lru_cache(maxsize=1)
def curve_catalog() -> tuple[tuple[dict, ...], ...]:
    """Base curves per template, the same for every seed.

    What factoring a curve costs depends erratically on its coefficients
    (up to tenfold within one template), so curves drawn afresh for each
    seed would make throughput depend on the seed.  Every round instead
    visits each base curve once; the seed picks the order and, per visit,
    a variant that keeps the factoring work: t -> -t and a common scale of
    p and q.

    (f, g) for the transcendence test is c1 * image(p,0) + c2 * image(q,0)
    up to squares and constants, that is ((p-q)^(c1+c2) q^c2,
    p^c1 (p-q)^(c1+c2)): algebraic over C unless the extra linear factor
    of f breaks the span.
    """
    rng = random.Random("custom_fibrations:catalog")
    catalog = []
    for template in CURVE_TEMPLATES:
        entries = []
        for _ in range(CATALOG_SIZE):
            p, q = _curve(rng, template)
            entries.append({
                "p": p,
                "q": q,
                "c1": rng.randint(0, 1),
                "c2": rng.randint(0, 1),
                "extra_root": rng.randint(-9, 9) if rng.random() < 0.5 else None,
                "f_const": rng.choice((1, -1, 2, 5, -6)),
                "square_root": rng.randint(-9, 9) if rng.random() < 0.5 else None,
            })
        catalog.append(tuple(entries))
    return tuple(catalog)


def _curve_ops(entry: dict, negate: bool, scale: int) -> list[dict]:
    sign = -1 if negate else 1
    pf, qf = entry["p"], entry["q"]
    if negate:
        pf, qf = _negate_t(pf), _negate_t(qf)
    pf, qf = (pf[0] * scale, pf[1]), (qf[0] * scale, qf[1])
    p, q = _expand(pf), _expand(qf)
    pq = _sub(p, q)
    c1, c2 = entry["c1"], entry["c2"]
    f = _product([[entry["f_const"]]] + [pq] * ((c1 + c2) % 2) + [q] * c2)
    g = _product([p] * c1 + [pq] * ((c1 + c2) % 2))
    if entry["extra_root"] is not None:
        f = _mul(f, [-sign * entry["extra_root"], 1])
    if entry["square_root"] is not None:
        g = _mul(g, _product([[-sign * entry["square_root"], 1]] * 2))
    ops = [{
        "kind": "fibers",
        "argv": ["fibers", f"--p={_render(pf)}", f"--q={_render(qf)}"],
        "p": p,
        "q": q,
    }]
    for point in ("p", "q", "origin"):
        ops.append({"kind": "descent_image", "p": p, "q": q, "point": point})
    ops.append({"kind": "transcendence_test", "p": p, "q": q, "f": f, "g": g})
    return ops


def _fibration_round(rng: random.Random) -> list[dict]:
    ops = []
    for entries in curve_catalog():
        for entry in entries:
            ops += _curve_ops(entry, rng.random() < 0.5, rng.choice(CURVE_SCALES))
    return ops


# --- symbol_arithmetic -------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_at_least(n: int) -> int:
    n = max(n, 2)
    while not is_probable_prime(n):
        n += 1
    return n


def _rational(rng: random.Random, big: int, power: int) -> str:
    """Text of sign * big^power * u / w with small u, w coprime to big."""
    u, w = rng.randint(1, 999), rng.randint(1, 99)
    num = rng.choice((1, -1)) * big**power * u
    g = math.gcd(num, w)
    num, w = num // g, w // g
    return str(num) if w == 1 else f"{num}/{w}"


def _hilbert_op(rng: random.Random, s: float) -> dict:
    p = _prime_at_least(_log_span(*HILBERT_PRIME_LOG10, s))
    alpha, beta = rng.choice(((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)))
    a, b = _rational(rng, p, alpha), _rational(rng, p, beta)
    # "--" ends the options, so negative rationals stay positional.
    return {
        "kind": "hilbert",
        "argv": ["hilbert", f"--place={p}", "--", a, b],
        "a": a,
        "b": b,
        "p": p,
    }


def _product_op(rng: random.Random, s: float) -> dict:
    big = _prime_at_least(_log_span(*PRODUCT_PRIME_LOG10, s))
    mid = _prime_at_least(rng.randint(10**3, 10**5))
    small = rng.choice((1, 2, 3, 4, 6, 10, 12))
    a = f"{rng.choice((1, -1)) * big * small}/{rng.choice((1, 3, 5, 7, 9))}"
    b = f"{rng.choice((1, -1)) * mid}/{rng.choice((1, 2, 8, 11))}"
    return {"kind": "product", "a": a, "b": b}


def _linear_text(a: int) -> str:
    return f"({_expr([-a, 1])})"


def _residues_op(rng: random.Random, s: float) -> dict:
    """A class literal with one large constant per symbol.

    Each symbol carries at most one constant with a large prime factor,
    so every residue has at most one large prime and trial division
    stays bounded.  Templates cover exit codes 1 (ramified), 0 (the two
    symbols at a cancel) and 3 (a degree-2 place stays undetermined).
    """
    big = _prime_at_least(_log_span(*CONSTANT_PRIME_LOG10, s))
    c = rng.choice((1, -1, 2, 3)) * big
    a, b = rng.sample(range(-9, 10), 2)
    u = rng.randint(2, 9)
    quad = f"(t^2+{rng.choice((1, 2, 3, 5, 6, 7))})"
    la, lb = _linear_text(a), _linear_text(b)
    symbols = [
        [[f"{la}*{lb}", str(c)]],
        [[la, str(c)], [la, f"{c}*{u}^2"]],
        [[quad, str(c)], [lb, str(c)], [lb, f"{c}*{u * u}"]],
    ][rng.randrange(3)]
    literal = " + ".join(f"({f}, {g})" for f, g in symbols)
    return {
        "kind": "residues",
        "argv": ["residues", literal],
        "symbols": symbols,
    }


def _transcendence_op(rng: random.Random, s: float) -> dict:
    big = _prime_at_least(_log_span(*CONSTANT_PRIME_LOG10, s))
    roots = (0, 1, -1, 3, -3, rng.randint(4, 9))
    f = "*".join(_linear_text(r) for r in rng.sample(roots, rng.randint(1, 3)))
    g = "*".join(_linear_text(r) for r in rng.sample(roots, rng.randint(1, 3)))
    f = f"{rng.choice((1, -1)) * big}*{f}"
    return {
        "kind": "transcendence",
        "argv": ["transcendence", f"--f={f}", f"--g={g}"],
        "f": f,
        "g": g,
    }


def _symbol_round(rng: random.Random) -> list[dict]:
    ops = [_hilbert_op(rng, s) for s in _strata(rng, 20)]
    ops += [_product_op(rng, s) for s in _strata(rng, 8)]
    ops += [_residues_op(rng, s) for s in _strata(rng, 8)]
    ops += [_transcendence_op(rng, s) for s in _strata(rng, 4)]
    return ops
