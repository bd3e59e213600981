"""Inputs that must finish within a wall-clock budget.

Each case runs the CLI in-process or calls the library, and asserts both
its output and its elapsed time, in the style of the acceptance suite's
`crit.elapsed` budgets.  The expected fiber table was produced by the
earlier classifier, which factored the full discriminant and took about
47 s; the torsion images are checked against sympy's factorizations.
The Hilbert symbol at the prime 2^61 - 1 took more than 20 s when
primality was decided by trial division, and ((t+1)^30)^30 took 2.8 s to
expand before the parser capped total degree.  Linear and quadratic
factors with 13 to 19 digit coefficients did not finish in 8 s while
every polynomial went through the rational root search, which
enumerates the divisors of the end coefficients.
"""

import contextlib
import io
import time
from fractions import Fraction

import pytest

from ellbrauer.cli import main as cli_main
from ellbrauer.descent import CurvePoint, descent_image, descent_pair_functions
from ellbrauer.elliptic import WeierstrassCurve
from ellbrauer.exactalg import Factorization, Polynomial, T, poly_factor
from ellbrauer.squareclass import FieldMode, SquareClassVector


class _Budget:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        return False


def _cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue().splitlines()


def test_fibers_with_degree_32_discriminant():
    # disc = 16 p^2 q^2 (p - q)^2 has degree 32; p, q and p - q have
    # degree at most 6 and are factored instead.
    with _Budget() as budget:
        code, lines = _cli(
            "fibers", "--p", "(t^4+t+1)*(t^2+1)", "--q", "t^4+3*t^2+7"
        )
    assert code == 0
    assert lines == [
        "t^2+1 : I_2",
        "t^4+t+1 : I_2",
        "t^4+3*t^2+7 : I_2",
        "t^6+t^3-2*t^2+t-6 : I_2",
        "infinity : I_4",
        "euler number = 36",
        "chi = 3",
        "K3 = no",
        "rank upper bound = 21",
        "Mordell-Weil rank bound = 9",
        "semistable = yes",
    ]
    assert budget.elapsed < 2.0


def _sympy_class(f, mode: FieldMode, sympy) -> SquareClassVector:
    """The square class of f in the given mode, factored by sympy."""
    t = sympy.Symbol("t")
    unit = Fraction(1)
    exps: dict[Polynomial, int] = {}
    for poly, sign in ((f.num, 1), (f.den, -1)):
        expr = sum(
            sympy.Rational(c.numerator, c.denominator) * t**i
            for i, c in enumerate(poly.coeffs)
        )
        const, factors = sympy.factor_list(expr, t)
        unit *= Fraction(str(const)) ** sign
        for base, e in factors:
            coeffs = sympy.Poly(base, t).all_coeffs()[::-1]
            b = Polynomial([Fraction(str(c)) for c in coeffs])
            unit *= b.leading() ** (sign * e)
            exps[b.monic()] = exps.get(b.monic(), 0) + e
    polys = frozenset(b for b, e in exps.items() if e % 2)
    if mode is FieldMode.CONSTANTS_ARE_SQUARES:
        return SquareClassVector(mode, False, frozenset(), polys)
    primes = frozenset(
        p for n in (unit.numerator, unit.denominator)
        for p, e in sympy.factorint(abs(n)).items() if e % 2
    )
    return SquareClassVector(mode, unit < 0, primes, polys)


def test_torsion_images_of_the_fibers_curve():
    # Factoring the pair-function products, such as q (q - p) of degree
    # 10, took 35 s for the image of (q, 0) alone.
    sympy = pytest.importorskip("sympy")
    curve = WeierstrassCurve.from_split(
        (T**4 + T + 1) * (T**2 + 1), T**4 + 3 * T**2 + 7
    )
    points = [
        CurvePoint.two_torsion_p(),
        CurvePoint.two_torsion_q(),
        CurvePoint.two_torsion_origin(),
    ]
    modes = [FieldMode.RATIONAL_CONSTANTS, FieldMode.CONSTANTS_ARE_SQUARES]
    with _Budget() as budget:
        images = {
            (point, mode): descent_image(point, curve, mode)
            for mode in modes
            for point in points
        }
    assert budget.elapsed < 2.0
    for (point, mode), image in images.items():
        pair = descent_pair_functions(point, curve)
        expected = tuple(_sympy_class(f, mode, sympy) for f in pair)
        assert image.as_tuple() == expected


def test_hilbert_symbol_at_a_mersenne_prime():
    with _Budget() as budget:
        code, lines = _cli("hilbert", "3", "5", "--place", "2305843009213693951")
    assert code == 0
    assert lines == ["(3, 5)_2305843009213693951 = +1", "invariant = 0"]
    assert budget.elapsed < 1.0


def test_nested_power_over_the_degree_cap_is_usage_error():
    with _Budget() as budget, pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            _cli("fibers", "--p", "((t+1)^30)^30", "--q", "t")
    assert exc.value.code == 2
    assert budget.elapsed < 1.0


# N = 1000000007 * 1000000009 = (10^9 + 8)^2 - 1 is not a square, and
# 4N + 1 = (2*10^9 + 16)^2 - 3 is not either, so t^2 - N and t^2 - t - N
# are irreducible.  The discriminant of (t - 2^40)(t - 2^41) - t is
# (2^40 + 3)^2 - 8, again not a square.
N = 1000000007 * 1000000009


LOW_DEGREE = [
    (T - N, [T - N]),
    (T**2 - N, [T**2 - N]),
    (T**2 - T - N, [T**2 - T - N]),
    ((T - 2**40) * (T - 2**41), [T - 2**41, T - 2**40]),
    ((T - 2**40) * (T - 2**41) - T, [(T - 2**40) * (T - 2**41) - T]),
    (
        (T - Fraction(2**40, 3)) * (T + Fraction(7, 2**41)),
        [T - Fraction(2**40, 3), T + Fraction(7, 2**41)],
    ),
    (T - 2**60, [T - 2**60]),
]


@pytest.mark.parametrize("f, factors", LOW_DEGREE)
def test_low_degree_factors_with_large_coefficients(f, factors):
    with _Budget() as budget:
        result = poly_factor(3 * f)
    assert budget.elapsed < 0.5
    assert result == Factorization(Fraction(3), tuple((g, 1) for g in factors))


@pytest.mark.parametrize("f", [f for f, _ in LOW_DEGREE])
def test_low_degree_factors_match_sympy(f):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t**i
        for i, c in enumerate(f.coeffs)
    )
    _, expected = sympy.factor_list(expr, t)
    bases = {
        Polynomial(
            [Fraction(str(c)) for c in sympy.Poly(base, t).all_coeffs()[::-1]]
        ).monic(): e
        for base, e in expected
    }
    assert dict(poly_factor(f).factors) == bases


@pytest.mark.parametrize(
    "p, q, expected",
    [
        (
            "t - 1000000007*1000000009",
            "t",
            [
                "t-1000000016000000063 : I_2",
                "t : I_2",
                "infinity : I_2*",
                "euler number = 12",
                "chi = 1",
                "K3 = no",
                "rank upper bound = 10",
                "Mordell-Weil rank bound = 0",
                "semistable = no",
            ],
        ),
        (
            "t^2 - 1000000007*1000000009",
            "t",
            [
                "t : I_2",
                "t^2-t-1000000016000000063 : I_2",
                "t^2-1000000016000000063 : I_2",
                "infinity : I_2",
                "euler number = 12",
                "chi = 1",
                "K3 = no",
                "rank upper bound = 8",
                "Mordell-Weil rank bound = 2",
                "semistable = yes",
            ],
        ),
        (
            "(t-2^40)*(t-2^41)",
            "t",
            [
                "t-2199023255552 : I_2",
                "t-1099511627776 : I_2",
                "t : I_2",
                "t^2-3298534883329*t+2417851639229258349412352 : I_2",
                "infinity : I_2",
                "euler number = 12",
                "chi = 1",
                "K3 = no",
                "rank upper bound = 8",
                "Mordell-Weil rank bound = 2",
                "semistable = yes",
            ],
        ),
    ],
)
def test_fibers_with_large_low_degree_factors(p, q, expected):
    with _Budget() as budget:
        code, lines = _cli("fibers", "--p", p, "--q", q)
    assert (code, lines) == (0, expected)
    assert budget.elapsed < 2.0


def test_residues_at_a_large_linear_place():
    # At t = 2^60 the residue is the square 2^60; at t = 0 it is -2^60.
    with _Budget() as budget:
        code, lines = _cli("residues", "(t - 2^60, t)")
    assert code == 1
    assert lines == [
        "t-1152921504606846976 : class 1",
        "t : class -1",
        "infinity : class -1",
        "unramified over the projective line = no",
    ]
    assert budget.elapsed < 2.0
