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

Polynomial arguments use a small expression grammar over the variable t:

    expr    := ('+' | '-')? term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' natural)?
    atom    := rational | 't' | '(' expr ')'

Rational literals look like 3 or 3/2.  Whitespace is ignored.

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

from .brauer import (
    REFERENCE_PAIR,
    AdelicPointSpec,
    DegeneratePointError,
    SamplingReport,
    SurfacePoint,
    adelic_pairing,
    evaluate_local,
    reference_class,
    reference_curve,
)
from .descent import TranscendenceVerdict, descent_image, transcendence_test
from .elliptic import (
    ClassificationError,
    SingularCurveError,
    WeierstrassCurve,
    classify_surface,
)
from .exactalg import Polynomial, T
from .hilbert import REAL, RationalPlace, hilbert_symbol
from .pipeline import TORSION_POINTS, reference_checks
from .residues import QtBrauerClass, check_unramified_P1
from .squareclass import FieldMode, independent

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3

_MAX_EXPONENT = 512
# Checked before a product or power is expanded, so that nested powers
# such as ((t+1)^30)^30 are refused instead of built.
_MAX_DEGREE = 512


class ExpressionError(ValueError):
    """Syntax error in a polynomial expression, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"position {position}: {message}")
        self.message = message
        self.position = position


class _ExprParser:
    """Recursive descent parser producing a Polynomial in t."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def parse(self) -> Polynomial:
        value = self._expr()
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

    def _expr(self) -> Polynomial:
        sign = 1
        if self._peek() in ("+", "-"):
            if self.text[self.pos] == "-":
                sign = -1
            self.pos += 1
        value = self._term() * sign
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Polynomial:
        value = self._factor()
        while self._peek() == "*":
            self.pos += 1
            rhs = self._factor()
            self._check_degree(value.degree + rhs.degree)
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
        return base**exponent

    def _check_degree(self, degree: int) -> None:
        if degree > _MAX_DEGREE:
            raise ExpressionError(
                f"degree {degree} exceeds the limit {_MAX_DEGREE}", self.pos
            )

    def _atom(self) -> Polynomial:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ExpressionError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch == "t":
            self.pos += 1
            return T
        if ch.isdigit():
            return Polynomial.constant(self._rational())
        if ch == "":
            raise ExpressionError("unexpected end of expression", self.pos)
        raise ExpressionError(f"unexpected character {ch!r}", self.pos)

    def _natural(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExpressionError("expected a number", self.pos)
        return int(self.text[start : self.pos])

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
    return _ExprParser(text).parse()


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


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


def _nonzero(entry: Polynomial) -> Polynomial:
    if entry.is_zero():
        raise argparse.ArgumentTypeError("symbol entries must be nonzero")
    return entry


def _parse_symbol(text: str) -> tuple[Polynomial, Polynomial]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"symbol must be two comma separated expressions, got {text!r}"
        )
    try:
        f, g = parse_poly(parts[0]), parse_poly(parts[1])
    except ExpressionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return _nonzero(f), _nonzero(g)


def parse_class_literal(text: str) -> list[tuple[Polynomial, Polynomial]]:
    """Parse a formal sum of symbols written "(f, g) + (f, g) + ...".

    Whitespace is insignificant. Commas and the closing parenthesis are
    matched at depth one, so the entries themselves may contain both.
    """
    pairs: list[tuple[Polynomial, Polynomial]] = []
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def parse_fragment(start: int, stop: int) -> Polynomial:
        try:
            return parse_poly(text[start:stop])
        except ExpressionError as exc:
            raise ExpressionError(exc.message, start + exc.position) from None

    i = skip_ws(0)
    if i >= n:
        raise ExpressionError("expected '('", i)
    while True:
        if i >= n or text[i] != "(":
            raise ExpressionError("expected '('", i)
        depth = 1
        j = i + 1
        comma = None
        while j < n and depth:
            c = text[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "," and depth == 1:
                if comma is not None:
                    raise ExpressionError("unexpected ','", j)
                comma = j
            j += 1
        if depth:
            raise ExpressionError("expected ')'", n)
        if comma is None:
            raise ExpressionError("expected ','", j - 1)
        pairs.append((parse_fragment(i + 1, comma), parse_fragment(comma + 1, j - 1)))
        i = skip_ws(j)
        if i >= n:
            return pairs
        if text[i] != "+":
            raise ExpressionError("expected '+'", i)
        i = skip_ws(i + 1)


def _parse_poly_arg(text: str) -> Polynomial:
    try:
        return parse_poly(text)
    except ExpressionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_entry_arg(text: str) -> Polynomial:
    return _nonzero(_parse_poly_arg(text))


def _parse_class_arg(text: str) -> list[tuple[Polynomial, Polynomial]]:
    try:
        pairs = parse_class_literal(text)
    except ExpressionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return [(_nonzero(f), _nonzero(g)) for f, g in pairs]


# One output line: its human text, its record key and its record value.
Line = tuple[str, str, str]


def _line(label: object, key: str, value: object, sep: str = " = ") -> Line:
    """The line `label<sep>value`, recorded as `key = value`.

    A bool reads yes/no for people and true/false in records.
    """
    if isinstance(value, bool):
        return f"{label}{sep}{'yes' if value else 'no'}", key, str(value).lower()
    return f"{label}{sep}{value}", key, str(value)


def _emit(fmt: str, lines: list[Line]) -> None:
    for human, key, value in lines:
        print(f"{key} = {value}" if fmt == "records" else human)


def _curve_from_args(args: argparse.Namespace) -> WeierstrassCurve:
    if (args.p is None) != (args.q is None):
        raise argparse.ArgumentTypeError("--p and --q must be given together")
    if args.p is None:
        return reference_curve()
    return WeierstrassCurve.from_split(args.p, args.q)


def _cmd_fibers(args: argparse.Namespace) -> int:
    try:
        curve = _curve_from_args(args)
        report = classify_surface(curve)
    except (SingularCurveError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClassificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
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
    _emit(args.format, lines)
    return EXIT_OK


def _cmd_residues(args: argparse.Namespace) -> int:
    if args.class_literal is not None and args.symbol:
        print(
            "error: give either a class literal or --symbol flags, not both",
            file=sys.stderr,
        )
        return EXIT_USAGE
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
    _emit(args.format, lines)
    if overall is None:
        return EXIT_UNDETERMINED
    return EXIT_OK if overall else EXIT_FAIL


_MODES = {
    "ct": FieldMode.CONSTANTS_ARE_SQUARES,
    "qt": FieldMode.RATIONAL_CONSTANTS,
}


def _cmd_descent(args: argparse.Namespace) -> int:
    curve = reference_curve()
    mode = _MODES[args.mode]
    lines = []
    images = {}
    for key, label, point in TORSION_POINTS:
        images[key] = descent_image(point, curve, mode)
        lines.append(_line(label, f"image.{key}", images[key], " : "))
    indep = independent([images["p"].as_tuple(), images["q"].as_tuple()])
    lines.append(_line("images of (p,0) and (q,0) independent", "independent", indep))
    _emit(args.format, lines)
    return EXIT_OK


def _cmd_transcendence(args: argparse.Namespace) -> int:
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
    if result.reason:
        lines.append(_line("reason", "reason", result.reason))
    _emit(args.format, lines)
    if result.verdict is TranscendenceVerdict.TRANSCENDENTAL:
        return EXIT_OK
    if result.verdict is TranscendenceVerdict.ALGEBRAIC_OVER_C:
        return EXIT_FAIL
    return EXIT_UNDETERMINED


def _cmd_hilbert(args: argparse.Namespace) -> int:
    try:
        value = hilbert_symbol(args.a, args.b, args.place)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    label = f"({args.a}, {args.b})_{args.place}"
    lines = [_line(label, "symbol", value), _line("invariant", "invariant", value.inv)]
    _emit(args.format, lines)
    return EXIT_OK


def _point_from_args(args: argparse.Namespace) -> SurfacePoint:
    if args.zero_section:
        if args.x is not None or args.t is not None:
            raise argparse.ArgumentTypeError(
                "--zero-section excludes --x and --t"
            )
        return SurfacePoint.zero_section(args.place)
    if args.x is None or args.t is None:
        raise argparse.ArgumentTypeError(
            "an affine point needs both --x and --t"
        )
    return SurfacePoint.affine(args.x, args.t, args.place)


# evaluate_local raises a plain ValueError only for a point off the surface.
_OFF_SURFACE = "error: {} is not on the surface over its completion"


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cls = reference_class()
    try:
        point = _point_from_args(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        inv = evaluate_local(cls, point)
    except DegeneratePointError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except ValueError:
        print(_OFF_SURFACE.format(point), file=sys.stderr)
        return EXIT_USAGE
    lines = [_line("point", "point", point), _line("invariant", "invariant", inv)]
    _emit(args.format, lines)
    return EXIT_OK


def _cmd_obstruct(args: argparse.Namespace) -> int:
    if args.zero_section:
        spec = AdelicPointSpec(())
    else:
        spec = AdelicPointSpec((SurfacePoint.affine(args.x, args.t, args.place),))
    try:
        report = adelic_pairing(reference_class(), spec)
    except DegeneratePointError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except ValueError:
        print(_OFF_SURFACE.format(spec.overrides[0]), file=sys.stderr)
        return EXIT_USAGE
    lines = [
        _line(f"invariant at {place}", f"invariant.{place}", inv)
        for place, inv in report.evaluations
    ]
    lines += [
        _line("note", "note", report.default_note, ": "),
        _line("total", "total", report.total),
        _line("obstructed", "obstructed", report.obstructed),
    ]
    _emit(args.format, lines)
    return EXIT_OK if report.obstructed else EXIT_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
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
    _emit(args.format, lines)
    return EXIT_FAIL if failures else EXIT_OK


def _sample_place_list(text: str) -> list[RationalPlace]:
    places = [_parse_place(part) for part in text.split(",")]
    for i, place in enumerate(places):
        if place in places[:i]:
            raise argparse.ArgumentTypeError(f"place {place} is listed twice")
    return places


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellbrauer",
        description=(
            "Exact computations with a two torsion Brauer class on a split "
            "elliptic surface over Q(t)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
        "--p", type=_parse_poly_arg, default=None, metavar="EXPR",
        help="first root polynomial of a custom split curve",
    )
    fibers.add_argument(
        "--q", type=_parse_poly_arg, default=None, metavar="EXPR",
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
        type=_parse_class_arg,
        metavar="CLASS",
        help='formal sum of symbols, written "(f, g) + (f, g)"; '
        "whitespace insignificant",
    )
    residues.add_argument(
        "--symbol",
        type=_parse_symbol,
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
        "--f", type=_parse_entry_arg, default=REFERENCE_PAIR[0], metavar="EXPR",
        help="entry paired with x - p",
    )
    trans.add_argument(
        "--g", type=_parse_entry_arg, default=REFERENCE_PAIR[1], metavar="EXPR",
        help="entry paired with x - q",
    )
    trans.add_argument(
        "--mw-rank-bound", type=_int_at_least(0), default=0, metavar="N",
        help="bound on the Mordell-Weil rank over C(t)",
    )

    hil = add("hilbert", "Hilbert symbol over a completion of Q", _cmd_hilbert)
    hil.add_argument("a", type=_parse_rational)
    hil.add_argument("b", type=_parse_rational)
    hil.add_argument(
        "--place", type=_parse_place, required=True, help="'real' or a prime"
    )

    ev = add(
        "evaluate",
        "local invariant of the reference class at one point",
        _cmd_evaluate,
    )
    ev.add_argument("--x", type=_parse_rational, default=None)
    ev.add_argument("--t", type=_parse_rational, default=None)
    ev.add_argument(
        "--place", type=_parse_place, required=True, help="'real' or a prime"
    )
    ev.add_argument(
        "--zero-section", action="store_true",
        help="evaluate at the zero section instead of an affine point",
    )

    ob = add(
        "obstruct",
        "pair the reference class against an adelic point",
        _cmd_obstruct,
    )
    ob.add_argument("--x", type=_parse_rational, default=Fraction(1))
    ob.add_argument("--t", type=_parse_rational, default=Fraction(2))
    ob.add_argument(
        "--place", type=_parse_place, default=RationalPlace.prime(2),
        help="place of the non zero section component",
    )
    ob.add_argument(
        "--zero-section", action="store_true",
        help="use the zero section at every place",
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
