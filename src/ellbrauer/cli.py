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
    SurfacePoint,
    adelic_pairing,
    evaluate_local,
    is_local_point,
    local_points,
    reference_adelic_point,
    reference_class,
    reference_curve,
    sample_vanishing,
)
from .descent import (
    CurvePoint,
    TranscendenceVerdict,
    brauer_image,
    descent_image,
    descent_pair_functions,
    transcendence_test,
)
from .elliptic import (
    ClassificationError,
    SingularCurveError,
    WeierstrassCurve,
    classify_surface,
    invariants,
)
from .exactalg import Polynomial, RationalFunction, T
from .funcfield import Place
from .hilbert import REAL, RationalPlace, hilbert_symbol
from .residues import QtBrauerClass, check_unramified_P1, residue_of_class
from .squareclass import FieldMode, class_of, independent

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3

_MAX_EXPONENT = 512


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
            value = value * self._factor()
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
        return base**exponent

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


def _emit(fmt: str, human: list[str], records: list[tuple[str, str]]) -> None:
    if fmt == "records":
        for key, value in records:
            print(f"{key} = {value}")
    else:
        for line in human:
            print(line)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _truefalse(flag: bool) -> str:
    return "true" if flag else "false"


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
    human = [f"{f.place} : {f.kodaira}" for f in report.fibers]
    human += [
        f"euler number = {report.euler_number}",
        f"chi = {report.chi}",
        f"K3 = {_yesno(report.is_K3)}",
        f"rank upper bound = {report.rank_R}",
        f"Mordell-Weil rank bound = {report.mw_rank_bound}",
        f"semistable = {_yesno(report.semistable)}",
    ]
    records = [(f"fiber.{f.place}", str(f.kodaira)) for f in report.fibers]
    records += [
        ("euler_number", str(report.euler_number)),
        ("chi", str(report.chi)),
        ("k3", _truefalse(report.is_K3)),
        ("rank_upper_bound", str(report.rank_R)),
        ("mw_rank_bound", str(report.mw_rank_bound)),
        ("semistable", _truefalse(report.semistable)),
    ]
    _emit(args.format, human, records)
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
    human = [f"{v.place} : {v}" for v in report.verdicts]
    records = [(f"residue.{v.place}", str(v)) for v in report.verdicts]
    overall = report.overall
    if overall is None:
        human.append("unramified over the projective line = undetermined")
        records.append(("unramified", "undetermined"))
        code = EXIT_UNDETERMINED
    else:
        human.append(f"unramified over the projective line = {_yesno(overall)}")
        records.append(("unramified", _truefalse(overall)))
        code = EXIT_OK if overall else EXIT_FAIL
    _emit(args.format, human, records)
    return code


_TORSION_LABELS = (
    ("identity", "O", CurvePoint.zero()),
    ("p", "(p,0)", CurvePoint.two_torsion_p()),
    ("q", "(q,0)", CurvePoint.two_torsion_q()),
    ("origin", "(0,0)", CurvePoint.two_torsion_origin()),
)

_MODES = {
    "ct": FieldMode.CONSTANTS_ARE_SQUARES,
    "qt": FieldMode.RATIONAL_CONSTANTS,
}


def _cmd_descent(args: argparse.Namespace) -> int:
    curve = reference_curve()
    mode = _MODES[args.mode]
    human = []
    records = []
    images = {}
    for key, label, point in _TORSION_LABELS:
        image = descent_image(point, curve, mode)
        images[key] = image
        human.append(f"{label} : {image}")
        records.append((f"image.{key}", str(image)))
    indep = independent(
        [images["p"].as_tuple(), images["q"].as_tuple()]
    )
    human.append(f"images of (p,0) and (q,0) independent = {_yesno(indep)}")
    records.append(("independent", _truefalse(indep)))
    _emit(args.format, human, records)
    return EXIT_OK


def _cmd_transcendence(args: argparse.Namespace) -> int:
    curve = reference_curve()
    result = transcendence_test(args.f, args.g, curve, args.mw_rank_bound)
    human = [
        f"target = {result.target}",
        f"generator (p,0) = {result.generators[0]}",
        f"generator (q,0) = {result.generators[1]}",
        f"verdict = {result.verdict.value}",
    ]
    records = [
        ("target", str(result.target)),
        ("generator.p", str(result.generators[0])),
        ("generator.q", str(result.generators[1])),
        ("verdict", result.verdict.value),
    ]
    if result.combination is not None:
        human.append(f"combination = {result.combination}")
        records.append(("combination", str(result.combination)))
    if result.reason:
        human.append(f"reason = {result.reason}")
        records.append(("reason", result.reason))
    _emit(args.format, human, records)
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
    human = [
        f"({args.a}, {args.b})_{args.place} = {value}",
        f"invariant = {value.inv}",
    ]
    records = [("symbol", str(value)), ("invariant", str(value.inv))]
    _emit(args.format, human, records)
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


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cls = reference_class()
    try:
        point = _point_from_args(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if not is_local_point(cls.curve, point):
            print(
                f"error: {point} is not on the surface over its completion",
                file=sys.stderr,
            )
            return EXIT_USAGE
        inv = evaluate_local(cls, point)
    except DegeneratePointError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    human = [f"point = {point}", f"invariant = {inv}"]
    records = [("point", str(point)), ("invariant", str(inv))]
    _emit(args.format, human, records)
    return EXIT_OK


def _cmd_obstruct(args: argparse.Namespace) -> int:
    cls = reference_class()
    try:
        if args.zero_section:
            spec = AdelicPointSpec(())
        else:
            point = SurfacePoint.affine(args.x, args.t, args.place)
            if not is_local_point(cls.curve, point):
                print(
                    f"error: {point} is not on the surface over its "
                    "completion",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            spec = AdelicPointSpec((point,))
        report = adelic_pairing(cls, spec)
    except DegeneratePointError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    human = []
    records = []
    for place, inv in report.evaluations:
        human.append(f"invariant at {place} = {inv}")
        records.append((f"invariant.{place}", str(inv)))
    human += [
        f"note: {report.default_note}",
        f"total = {report.total}",
        f"obstructed = {_yesno(report.obstructed)}",
    ]
    records += [
        ("note", report.default_note),
        ("total", str(report.total)),
        ("obstructed", _truefalse(report.obstructed)),
    ]
    _emit(args.format, human, records)
    return EXIT_OK if report.obstructed else EXIT_FAIL


_EXPECTED_FIBERS = {
    "t-3": "I_2",
    "t-1": "I_6",
    "t": "I_2",
    "t+1": "I_6",
    "t+3": "I_2",
    "infinity": "I_6",
}


CheckResult = tuple[list[str], list[str]]


def _check_surface() -> CheckResult:
    curve = reference_curve()
    problems = []
    p, q = curve.split_p, curve.split_q
    c4, c6, disc = invariants(curve)
    if c4**3 - c6**2 != 1728 * disc:
        problems.append("c4^3 - c6^2 != 1728 * discriminant")
    if disc != 16 * (p * q) ** 2 * (p - q) ** 2:
        problems.append("discriminant != 16 p^2 q^2 (p-q)^2")
    if q != p.substitute(-T):
        problems.append("q(t) != p(-t)")
    if p - q != RationalFunction(48 * T):
        problems.append("p(t) - q(t) != 48t")
    report = classify_surface(curve)
    found = {str(f.place): str(f.kodaira) for f in report.fibers}
    if found != _EXPECTED_FIBERS:
        problems.append(f"fiber table {found} != {_EXPECTED_FIBERS}")
    for name, got, want in (
        ("euler number", report.euler_number, 24),
        ("chi", report.chi, 2),
        ("K3", report.is_K3, True),
        ("rank upper bound", report.rank_R, 20),
        ("Mordell-Weil rank bound", report.mw_rank_bound, 0),
        ("semistable", report.semistable, True),
    ):
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")
    evidence = [
        "q(t) = p(-t) and p(t) - q(t) = 48t",
        "fibers " + ", ".join(f"{f.place} {f.kodaira}" for f in report.fibers),
        "euler 24, chi 2, K3, rank bound 20, MW rank bound 0, semistable",
    ]
    return problems, evidence


def _product(polys: list[Polynomial]) -> Polynomial:
    out = Polynomial.constant(1)
    for f in polys:
        out = out * f
    return out


def _expected_image(first: list[Polynomial], second: list[Polynomial]):
    mode = FieldMode.CONSTANTS_ARE_SQUARES
    return (
        class_of(RationalFunction(_product(first)), mode),
        class_of(RationalFunction(_product(second)), mode),
    )


def _check_descent() -> CheckResult:
    curve = reference_curve()
    mode = FieldMode.CONSTANTS_ARE_SQUARES
    problems = []
    expectations = {
        "p": ([T], [T, T - 1, T + 3]),
        "q": ([T, T + 1, T - 3], [T]),
        "origin": ([T + 1, T - 3], [T - 1, T + 3]),
    }
    images = {}
    for key, _, point in _TORSION_LABELS:
        images[key] = descent_image(point, curve, mode)
    for key, (first, second) in expectations.items():
        if images[key].as_tuple() != _expected_image(first, second):
            problems.append(f"descent image at {key} is {images[key]}")
    if not images["identity"].is_zero():
        problems.append("identity has a nontrivial image")
    total = images["p"] + images["q"]
    if total.as_tuple() != images["origin"].as_tuple():
        problems.append("images of (p,0) and (q,0) do not sum to (0,0)")
    if not independent([images["p"].as_tuple(), images["q"].as_tuple()]):
        problems.append("torsion images are dependent")
    evidence = [
        f"image (p,0) = {images['p']}",
        f"image (q,0) = {images['q']}",
        "images sum to the image of (0,0) and are independent",
    ]
    return problems, evidence


def _check_transcendence() -> CheckResult:
    curve = reference_curve()
    result = transcendence_test(*REFERENCE_PAIR, curve, mw_rank_bound=0)
    if result.verdict is not TranscendenceVerdict.TRANSCENDENTAL:
        return [f"verdict = {result.verdict.value}, expected transcendental"], []
    return [], [f"transcendental: {result.reason}"]


def _check_residues() -> CheckResult:
    problems = []
    cls = reference_class().restrict_to_origin()
    report = check_unramified_P1(cls)
    if report.overall is not True:
        problems.append(f"unramifiedness came out {report.overall}")
    single = QtBrauerClass(cls.symbols[:1])
    lone = residue_of_class(single, Place.at_rational(1))
    if lone.is_trivial() is not False:
        problems.append(
            "the first symbol alone should ramify at t - 1; both symbols "
            "are needed"
        )
    evidence = [
        f"residues trivial at all {len(report.verdicts)} support places",
        "the first symbol alone ramifies at t-1, so cancellation is real",
    ]
    return problems, evidence


def _check_local_invariants() -> CheckResult:
    problems = []
    cls = reference_class()
    two = RationalPlace.prime(2)
    witness = SurfacePoint.affine(1, 2, two)
    inv = evaluate_local(cls, witness)
    if inv != Fraction(1, 2):
        problems.append(f"invariant at {witness} = {inv}, expected 1/2")
    torsion_x = reference_curve().split_p(2)
    at_torsion = evaluate_local(
        cls, SurfacePoint.affine(torsion_x, 2, two)
    )
    if at_torsion != 0:
        problems.append(
            f"invariant at the two torsion section over t = 2 is {at_torsion}"
        )
    evidence = [
        f"invariant {inv} at {witness}",
        f"invariant {at_torsion} at the torsion section over t = 2",
    ]
    return problems, evidence


def _check_exactness() -> CheckResult:
    curve = reference_curve()
    images = [
        (label, brauer_image(*descent_pair_functions(torsion, curve), curve))
        for key, label, torsion in _TORSION_LABELS
        if key != "identity"
    ]
    checked = 0
    problems = []
    for prime in (2, 3, 5):
        place = RationalPlace.prime(prime)
        for point in local_points(curve, place, 4, height=12):
            for label, image in images:
                try:
                    inv = evaluate_local(image, point)
                except DegeneratePointError:
                    continue
                checked += 1
                if inv != 0:
                    problems.append(
                        f"image of {label} has invariant {inv} at {point}"
                    )
    if checked < 9:
        problems.append(f"only {checked} exactness evaluations ran")
    evidence = [
        f"{checked} evaluations of torsion images over 2, 3 and 5, all 0"
    ]
    return problems, evidence


def _check_obstruction() -> CheckResult:
    report = adelic_pairing(reference_class(), reference_adelic_point())
    if report.total != Fraction(1, 2) or not report.obstructed:
        return [f"adelic sum = {report.total}, expected 1/2"], []
    return [], ["adelic sum 1/2 at the distinguished 2-adic point"]


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = [
        ("surface", _check_surface),
        ("descent", _check_descent),
        ("transcendence", _check_transcendence),
        ("residues", _check_residues),
        ("local invariants", _check_local_invariants),
        ("exactness", _check_exactness),
        ("obstruction", _check_obstruction),
    ]
    verbose = bool(os.environ.get("ELLBRAUER_VERBOSE", "").strip())
    human = []
    records = []
    failures = 0
    for name, runner in checks:
        problems, evidence = runner()
        key = name.replace(" ", "_")
        if problems:
            failures += 1
            human.append(f"check {name}: FAIL ({'; '.join(problems)})")
            records.append((f"check.{key}", "fail"))
        else:
            human.append(f"check {name}: ok")
            records.append((f"check.{key}", "pass"))
            if verbose:
                human.extend(f"  {line}" for line in evidence)
                records.extend((f"evidence.{key}", line) for line in evidence)
    sampling_note = None
    for prime in args.sample_places:
        place = REAL if prime == 0 else RationalPlace.prime(prime)
        report = sample_vanishing(
            reference_class(), place, samples=args.samples, height=args.height
        )
        sampling_note = report.note
        if report.valid == 0:
            failures += 1
            human.append(f"sampling at {place}: FAIL (no valid points)")
            records.append((f"sampling.{place}", "fail"))
        elif not report.all_zero:
            failures += 1
            t0, x0, inv = report.nonzero[0]
            human.append(
                f"sampling at {place}: FAIL (invariant {inv} at "
                f"t = {t0}, x = {x0})"
            )
            records.append((f"sampling.{place}", "fail"))
        else:
            human.append(
                f"sampling at {place}: ok ({report.valid} points, all "
                "invariants 0)"
            )
            records.append((f"sampling.{place}", "pass"))
            if verbose:
                detail = (
                    f"height {report.height}, "
                    f"{report.skipped_degenerate} degenerate skipped"
                )
                human.append(f"  {detail}")
                records.append((f"evidence.sampling.{place}", detail))
    if sampling_note:
        human.append(f"note: {sampling_note}")
        records.append(("note", sampling_note))
    if failures:
        human.append(f"FAILED: {failures} check(s)")
        records.append(("result", "fail"))
        _emit(args.format, human, records)
        return EXIT_FAIL
    human.append("ALL CHECKS PASS")
    records.append(("result", "pass"))
    _emit(args.format, human, records)
    return EXIT_OK


def _sample_place_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        if part == "real":
            out.append(0)
            continue
        try:
            p = int(part)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"places must be 'real' or primes, got {part!r}"
            ) from exc
        RationalPlace.prime(p)
        out.append(p)
    return out


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
        "--sample-places", type=_sample_place_list, default=[0, 3, 5, 7],
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
