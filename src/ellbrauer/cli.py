"""Command line front end.

Every subcommand is a thin wrapper over the library, bound by default to
the reference surface y^2 = x (x - p) (x - q) with p = 3(t-1)^3(t+3) and
q = p(-t), and to the Brauer class built from the pair
(6 t (t+1), 6 t (t-1)).

Exit codes:
    0   the computation ran and the checked property holds
    1   the computation ran and the checked property fails
    2   bad usage or unparseable input
    3   the method cannot decide (undetermined residue, unknown verdict,
        degenerate evaluation point)

Each command returns its lines and exit code, and `main` alone prints.
A checked property that holds, fails or is undecided reaches its exit
code through one table, `_VERDICT_EXITS`, and an error through another,
`_EXITS`, with six rows: DegeneratePointError exits 3 ("undetermined:
..." on stderr), ClassificationError 1, and SingularCurveError,
OffSurfaceError (a point off the surface), ZeroArgumentError (a zero
Hilbert symbol argument) and argparse.ArgumentTypeError 2 ("error:
...").  No command catches an error; other exceptions propagate.

Polynomial arguments use a small expression grammar over the variable t:

    expr    := ('+' | '-')? term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' natural)?
    atom    := rational | 't' | '(' expr ')'
    pair    := expr ',' expr
    class   := '(' pair ')' ('+' '(' pair ')')*
    number  := ('+' | '-')? rational

--p, --q, --f and --g are exprs, --symbol is a pair and the CLASS argument
of `residues` is a class; the a and b of `hilbert` and the --x and --t of
`evaluate` and `obstruct` are numbers.  Rational literals look like 3 or
3/2.  Whitespace is ignored.  An error's position counts from the start
of the argument.  Every numerator and denominator, of a literal or of a
coefficient, has at most 1024 bits; a product or power that could exceed
that, like one above degree 512, is refused before it is expanded.
Parentheses nest at most 100 deep.

`main` may be called repeatedly in one process; every call parses with
the one parser that `build_parser` builds on first use.

The only environment variable honored is ELLBRAUER_VERBOSE: when set to
a nonempty value, `verify` prints the evidence behind each passing check
(indented in the human format, `evidence.*` keys in records). Output
stays deterministic either way.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .brauer import (
    REFERENCE_PAIR,
    AdelicPointSpec,
    DegeneratePointError,
    OffSurfaceError,
    SamplingReport,
    SurfacePoint,
    adelic_pairing,
    evaluate_local,
    reference_adelic_point,
    reference_class,
    reference_curve,
)
from .descent import TranscendenceVerdict, descent_image, transcendence_test
from .elliptic import (
    ClassificationError,
    SingularCurveError,
    SplitCurve,
    classify_surface,
)
from .exactalg import Polynomial, T, coefficient_bits
from .hilbert import REAL, RationalPlace, ZeroArgumentError, hilbert_symbol
from .pipeline import TORSION_POINTS, reference_checks
from .residues import QtBrauerClass, check_unramified_P1
from .squareclass import FieldMode, independent

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3

# The exit code of a checked property that holds, fails or is undecided,
# given as a bool or None, or as a verdict of the transcendence test.
_VERDICT_EXITS = {
    True: EXIT_OK, TranscendenceVerdict.TRANSCENDENTAL: EXIT_OK,
    False: EXIT_FAIL, TranscendenceVerdict.ALGEBRAIC_OVER_C: EXIT_FAIL,
    None: EXIT_UNDETERMINED, TranscendenceVerdict.UNKNOWN: EXIT_UNDETERMINED,
}

_MAX_EXPONENT = 512
# Checked before a product or power is expanded, so that nested powers
# such as ((t+1)^30)^30 are refused instead of built.
_MAX_DEGREE = 512
# Checked the same way, and every printed number stays far below Python's
# 4300-digit limit on integer string conversion.
_MAX_BITS = 1024
# No natural of more significant digits than 2^_MAX_BITS fits the limit.
_MAX_DIGITS = len(str(2**_MAX_BITS))
# Each level of parentheses costs the recursive descent four frames, so
# this keeps deep nesting far from Python's recursion limit.
_MAX_NESTING = 100


class ExpressionError(ValueError):
    """Syntax error in a polynomial expression, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"position {position}: {message}")
        self.message = message
        self.position = position


class _ExprParser:
    """Recursive descent over the grammar in the module docstring."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self, production):
        """The whole text as one production, an unbound method of this class."""
        value = production(self)
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExpressionError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return value

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ExpressionError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _class(self) -> list[tuple[Polynomial, Polynomial]]:
        pairs = []
        while True:
            self._expect("(")
            pairs.append(self._pair())
            self._expect(")")
            if self._peek() == "":
                return pairs
            self._expect("+")

    def _pair(self) -> tuple[Polynomial, Polynomial]:
        f = self._expr()
        self._expect(",")
        return f, self._expr()

    def _sign(self) -> int:
        if self._peek() not in ("+", "-"):
            return 1
        self.pos += 1
        return -1 if self.text[self.pos - 1] == "-" else 1

    def _number(self) -> Fraction:
        sign = self._sign()
        return sign * self._rational()

    def _expr(self) -> Polynomial:
        sign = self._sign()
        value = self._term() * sign
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
            self._check_bits(coefficient_bits(value))
        return value

    def _term(self) -> Polynomial:
        value = self._factor()
        while self._peek() == "*":
            self.pos += 1
            rhs = self._factor()
            self._check_degree(value.degree + rhs.degree)
            self._check_bits(coefficient_bits(value) + coefficient_bits(rhs))
            value = value * rhs
        return value

    def _factor(self) -> Polynomial:
        base = self._atom()
        if self._peek() != "^":
            return base
        self.pos += 1
        exponent = self._natural()
        if exponent > _MAX_EXPONENT:
            raise ExpressionError(
                f"exponent {exponent} exceeds the limit {_MAX_EXPONENT}",
                self.pos,
            )
        self._check_degree(base.degree * exponent)
        self._check_bits(coefficient_bits(base) * exponent)
        return base**exponent

    def _check_degree(self, degree: int) -> None:
        if degree > _MAX_DEGREE:
            raise ExpressionError(
                f"degree {degree} exceeds the limit {_MAX_DEGREE}", self.pos
            )

    def _check_bits(self, bits: int) -> None:
        if bits > _MAX_BITS:
            raise ExpressionError(
                f"coefficients may need {bits} bits, over the limit {_MAX_BITS}",
                self.pos,
            )

    def _atom(self) -> Polynomial:
        ch = self._peek()
        if ch == "(":
            if self.depth == _MAX_NESTING:
                raise ExpressionError(
                    f"parentheses nested deeper than {_MAX_NESTING}", self.pos
                )
            self.depth += 1
            self.pos += 1
            inner = self._expr()
            self._expect(")")
            self.depth -= 1
            return inner
        if ch == "t":
            self.pos += 1
            return T
        if ch.isdecimal():
            return Polynomial.constant(self._rational())
        if ch == "":
            raise ExpressionError("unexpected end of expression", self.pos)
        raise ExpressionError(f"unexpected character {ch!r}", self.pos)

    def _natural(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ExpressionError("expected a number", self.pos)
        digits = self.text[start : self.pos].lstrip("0") or "0"
        if len(digits) <= _MAX_DIGITS:
            n = int(digits)
            if n.bit_length() <= _MAX_BITS:
                return n
        raise ExpressionError(
            f"number exceeds the limit of {_MAX_BITS} bits", self.pos
        )

    def _rational(self) -> Fraction:
        numerator = self._natural()
        if self._peek() != "/":
            return Fraction(numerator)
        self.pos += 1
        denominator = self._natural()
        if denominator == 0:
            raise ExpressionError("division by zero in a literal", self.pos)
        return Fraction(numerator, denominator)


def parse_poly(text: str) -> Polynomial:
    return _ExprParser(text).parse(_ExprParser._expr)


def _grammar_arg(production, nonzero: bool):
    """An argparse type reading the whole argument as one production.

    With nonzero, a zero entry anywhere in the value is refused.
    """

    def parse(text: str):
        try:
            value = _ExprParser(text).parse(production)
        except ExpressionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if nonzero and not all(_entries(value)):
            raise argparse.ArgumentTypeError("symbol entries must be nonzero")
        return value

    return parse


def _entries(value) -> list[Polynomial]:
    """The polynomials of a parsed expr, pair or class."""
    if isinstance(value, Polynomial):
        return [value]
    return [entry for part in value for entry in _entries(part)]


def _int_at_least(minimum: int):
    """An argparse type for integers no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    return parse


def _parse_place(text: str) -> RationalPlace:
    if text.strip().lower() == "real":
        return REAL
    try:
        p = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"place must be 'real' or a prime, got {text!r}"
        ) from exc
    try:
        return RationalPlace.prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# One output line: its human text, its record key and its record value.
Line = tuple[str, str, str]


def _line(label: object, key: str, value: object, sep: str = " = ") -> Line:
    """The line `label<sep>value`, recorded as `key = value`.

    A bool reads yes/no for people and true/false in records.
    """
    if isinstance(value, bool):
        return f"{label}{sep}{'yes' if value else 'no'}", key, str(value).lower()
    return f"{label}{sep}{value}", key, str(value)


# What a command hands to main: the lines to print and the exit code.
Output = tuple[list[Line], int]


def _curve_from_args(args: argparse.Namespace) -> SplitCurve:
    if (args.p is None) != (args.q is None):
        raise argparse.ArgumentTypeError("--p and --q must be given together")
    if args.p is None:
        return reference_curve()
    return SplitCurve(args.p, args.q)


def _cmd_fibers(args: argparse.Namespace) -> Output:
    report = classify_surface(_curve_from_args(args))
    lines = [
        _line(f.place, f"fiber.{f.place}", f.kodaira, " : ") for f in report.fibers
    ]
    lines += [
        _line("euler number", "euler_number", report.euler_number),
        _line("chi", "chi", report.chi),
        _line("K3", "k3", report.is_K3),
        _line("rank upper bound", "rank_upper_bound", report.rank_R),
        _line("Mordell-Weil rank bound", "mw_rank_bound", report.mw_rank_bound),
        _line("semistable", "semistable", report.semistable),
    ]
    return lines, EXIT_OK


def _cmd_residues(args: argparse.Namespace) -> Output:
    if args.class_literal is not None and args.symbol:
        raise argparse.ArgumentTypeError(
            "give either a class literal or --symbol flags, not both"
        )
    if args.class_literal is not None:
        cls = QtBrauerClass(args.class_literal)
    elif args.symbol:
        cls = QtBrauerClass(args.symbol)
    else:
        cls = reference_class().restrict_to_origin()
    report = check_unramified_P1(cls)
    lines = [_line(v.place, f"residue.{v.place}", v, " : ") for v in report.verdicts]
    overall = report.overall
    shown = "undetermined" if overall is None else overall
    lines.append(_line("unramified over the projective line", "unramified", shown))
    return lines, _VERDICT_EXITS[overall]


_MODES = {
    "ct": FieldMode.CONSTANTS_ARE_SQUARES,
    "qt": FieldMode.RATIONAL_CONSTANTS,
}


def _cmd_descent(args: argparse.Namespace) -> Output:
    curve = reference_curve()
    mode = _MODES[args.mode]
    lines = []
    images = {}
    for key, label, point in TORSION_POINTS:
        images[key] = descent_image(point, curve, mode)
        lines.append(_line(label, f"image.{key}", images[key], " : "))
    indep = independent([images["p"].as_tuple(), images["q"].as_tuple()])
    lines.append(_line("images of (p,0) and (q,0) independent", "independent", indep))
    return lines, EXIT_OK


def _cmd_transcendence(args: argparse.Namespace) -> Output:
    curve = reference_curve()
    result = transcendence_test(args.f, args.g, curve, args.mw_rank_bound)
    lines = [
        _line("target", "target", result.target),
        _line("generator (p,0)", "generator.p", result.generators[0]),
        _line("generator (q,0)", "generator.q", result.generators[1]),
        _line("verdict", "verdict", result.verdict.value),
    ]
    if result.combination is not None:
        lines.append(_line("combination", "combination", result.combination))
    lines.append(_line("reason", "reason", result.reason))
    return lines, _VERDICT_EXITS[result.verdict]


def _cmd_hilbert(args: argparse.Namespace) -> Output:
    value = hilbert_symbol(args.a, args.b, args.place)
    label = f"({args.a}, {args.b})_{args.place}"
    lines = [_line(label, "symbol", value), _line("invariant", "invariant", value.inv)]
    return lines, EXIT_OK


def _point_from_args(
    args: argparse.Namespace, x: Fraction | None = None, t: Fraction | None = None
) -> SurfacePoint:
    """The point of --x, --t, --place and --zero-section; x, t are defaults."""
    if args.zero_section:
        if args.x is not None or args.t is not None:
            raise argparse.ArgumentTypeError("--zero-section excludes --x and --t")
        return SurfacePoint.zero_section(args.place)
    x = x if args.x is None else args.x
    t = t if args.t is None else args.t
    if x is None or t is None:
        raise argparse.ArgumentTypeError("an affine point needs both --x and --t")
    return SurfacePoint.affine(x, t, args.place)


def _cmd_evaluate(args: argparse.Namespace) -> Output:
    point = _point_from_args(args)
    inv = evaluate_local(reference_class(), point)
    lines = [_line("point", "point", point), _line("invariant", "invariant", inv)]
    return lines, EXIT_OK


def _cmd_obstruct(args: argparse.Namespace) -> Output:
    (reference,) = reference_adelic_point().overrides
    point = _point_from_args(args, reference.x0, reference.t0)
    spec = AdelicPointSpec(() if point.at_zero_section else (point,))
    report = adelic_pairing(reference_class(), spec)
    lines = [
        _line(f"invariant at {place}", f"invariant.{place}", inv)
        for place, inv in report.evaluations
    ]
    lines += [
        _line("note", "note", report.default_note, ": "),
        _line("total", "total", report.total),
        _line("obstructed", "obstructed", report.obstructed),
    ]
    return lines, _VERDICT_EXITS[report.obstructed]


def _cmd_verify(args: argparse.Namespace) -> Output:
    checks = reference_checks(args.sample_places, args.samples, args.height)
    verbose = bool(os.environ.get("ELLBRAUER_VERBOSE", "").strip())
    lines: list[Line] = []
    failures = 0
    for check in checks:
        if check.place is None:
            label, key = f"check {check.name}", "check." + check.name.replace(" ", "_")
        else:
            label, key = f"sampling at {check.place}", f"sampling.{check.place}"
        if check.problems:
            failures += 1
            lines.append((f"{label}: FAIL ({'; '.join(check.problems)})", key, "fail"))
            continue
        summary = f" ({check.summary})" if check.summary else ""
        lines.append((f"{label}: ok{summary}", key, "pass"))
        if verbose:
            evidence_key = "evidence." + key.removeprefix("check.")
            lines.extend((f"  {line}", evidence_key, line) for line in check.evidence)
    if args.sample_places:
        lines.append(_line("note", "note", SamplingReport.note, ": "))
    if failures:
        lines.append((f"FAILED: {failures} check(s)", "result", "fail"))
    else:
        lines.append(("ALL CHECKS PASS", "result", "pass"))
    return lines, _VERDICT_EXITS[not failures]


def _sample_place_list(text: str) -> list[RationalPlace]:
    places = [_parse_place(part) for part in text.split(",")]
    for i, place in enumerate(places):
        if place in places[:i]:
            raise argparse.ArgumentTypeError(f"place {place} is listed twice")
    return places


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    The returned parser is shared by every later call and by `main`; do
    not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="ellbrauer",
        description=(
            "Exact computations with a two torsion Brauer class on a split "
            "elliptic surface over Q(t)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Roots may be zero: `fibers --p 0` reports the vanishing discriminant.
    root_arg = _grammar_arg(_ExprParser._expr, nonzero=False)
    entry_arg = _grammar_arg(_ExprParser._expr, nonzero=True)
    number_arg = _grammar_arg(_ExprParser._number, nonzero=False)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            choices=("human", "records"),
            default="human",
            help="human readable lines or 'key = value' records",
        )
        p.set_defaults(handler=handler)
        return p

    fibers = add(
        "fibers",
        "classify the singular fibers and the surface invariants",
        _cmd_fibers,
    )
    fibers.add_argument(
        "--p", type=root_arg, default=None, metavar="EXPR",
        help="first root polynomial of a custom split curve",
    )
    fibers.add_argument(
        "--q", type=root_arg, default=None, metavar="EXPR",
        help="second root polynomial of a custom split curve",
    )

    residues = add(
        "residues",
        "residues of a Brauer class of Q(t) at every place of support",
        _cmd_residues,
    )
    residues.add_argument(
        "class_literal",
        nargs="?",
        type=_grammar_arg(_ExprParser._class, nonzero=True),
        metavar="CLASS",
        help='formal sum of symbols, written "(f, g) + (f, g)"; '
        "whitespace insignificant",
    )
    residues.add_argument(
        "--symbol",
        type=_grammar_arg(_ExprParser._pair, nonzero=True),
        action="append",
        metavar="F,G",
        help="quaternion symbol entry (repeatable); default is the "
        "reference pair",
    )

    descent = add(
        "descent",
        "square class images of the two torsion sections",
        _cmd_descent,
    )
    descent.add_argument(
        "--mode",
        choices=sorted(_MODES),
        default="ct",
        help="square classes over C(t) (ct) or over Q(t) (qt)",
    )

    trans = add(
        "transcendence",
        "test whether the class survives base change to C",
        _cmd_transcendence,
    )
    trans.add_argument(
        "--f", type=entry_arg, default=REFERENCE_PAIR[0], metavar="EXPR",
        help="entry paired with x - p",
    )
    trans.add_argument(
        "--g", type=entry_arg, default=REFERENCE_PAIR[1], metavar="EXPR",
        help="entry paired with x - q",
    )
    trans.add_argument(
        "--mw-rank-bound", type=_int_at_least(0), default=0, metavar="N",
        help="bound on the Mordell-Weil rank over C(t)",
    )

    hil = add("hilbert", "Hilbert symbol over a completion of Q", _cmd_hilbert)
    hil.add_argument("a", type=number_arg)
    hil.add_argument("b", type=number_arg)
    hil.add_argument(
        "--place", type=_parse_place, required=True, help="'real' or a prime"
    )

    def add_point(name: str, help_text: str, handler, zero_help: str, **place) -> None:
        """A command on the point of --x, --t, --place and --zero-section."""
        p = add(name, help_text, handler)
        p.add_argument("--x", type=number_arg, default=None)
        p.add_argument("--t", type=number_arg, default=None)
        p.add_argument("--place", type=_parse_place, **place)
        p.add_argument("--zero-section", action="store_true", help=zero_help)

    add_point(
        "evaluate",
        "local invariant of the reference class at one point",
        _cmd_evaluate,
        "evaluate at the zero section instead of an affine point",
        required=True, help="'real' or a prime",
    )
    (reference,) = reference_adelic_point().overrides
    add_point(
        "obstruct",
        "pair the reference class against an adelic point",
        _cmd_obstruct,
        "use the zero section at every place",
        default=reference.place, help="place of the non zero section component",
    )

    ver = add(
        "verify",
        "recompute the whole reference pipeline and check every value",
        _cmd_verify,
    )
    ver.add_argument(
        "--samples", type=_int_at_least(1), default=25, metavar="N",
        help="local points to sample per place",
    )
    ver.add_argument(
        "--height", type=_int_at_least(1), default=20, metavar="H",
        help="height budget for sampled coordinates",
    )
    ver.add_argument(
        "--sample-places", type=_sample_place_list,
        default="real,3,5,7",
        metavar="LIST",
        help="comma separated places for the vanishing samples "
        "(default real,3,5,7)",
    )
    return parser


# The exceptions main turns into an exit code, with the prefix of the
# stderr line; a subclass takes the row of its nearest listed ancestor.
_EXITS: dict[type[Exception], tuple[str, int]] = {
    DegeneratePointError: ("undetermined", EXIT_UNDETERMINED),
    ClassificationError: ("error", EXIT_FAIL),
    SingularCurveError: ("error", EXIT_USAGE),
    OffSurfaceError: ("error", EXIT_USAGE),
    ZeroArgumentError: ("error", EXIT_USAGE),
    argparse.ArgumentTypeError: ("error", EXIT_USAGE),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, code = args.handler(args)
    except tuple(_EXITS) as exc:
        prefix, code = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    for human, key, value in lines:
        print(f"{key} = {value}" if args.format == "records" else human)
    return code


if __name__ == "__main__":
    sys.exit(main())
