"""Command line behavior: parsing, output shapes, exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ellbrauer import cli, exactalg, pipeline
from ellbrauer.cli import (
    ExpressionError, _ExprParser, build_parser, main, parse_poly,
)
from ellbrauer.brauer import reference_curve
from ellbrauer.exactalg import Polynomial, RationalFunction, T
from ellbrauer.residues import QtBrauerClass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines() + captured.err.splitlines()


class TestExpressionParser:
    def test_reference_numerator(self):
        assert parse_poly("3*(t-1)^3*(t+3)") == 3 * (T - 1) ** 3 * (T + 3)

    def test_plain_forms(self):
        assert parse_poly("t") == T
        assert parse_poly("-t") == -T
        assert parse_poly("7") == Polynomial([7])
        assert parse_poly("1/2*t^2") == Polynomial([0, 0, Fraction(1, 2)])
        assert parse_poly("t^2 - 2*t + 1") == (T - 1) ** 2

    def test_whitespace_insensitive(self):
        assert parse_poly(" ( t + 1 ) ^ 2 ") == (T + 1) ** 2

    def test_printer_round_trip(self):
        rng = random.Random(31)
        for _ in range(40):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            poly = Polynomial(coeffs)
            assert parse_poly(str(poly)) == poly

    @pytest.mark.parametrize(
        "text, position, fragment",
        [
            ("", 0, "unexpected end"),
            ("(t", 2, "expected ')'"),
            ("t t", 2, "unexpected character"),
            ("1/0", 3, "division by zero"),
            ("t^513", 5, "exceeds the limit"),
            ("((t+1)^30)^30", 13, "degree 900 exceeds the limit 512"),
            ("t^300*(t+1)^213", 15, "degree 513 exceeds the limit 512"),
            ("t^^2", 2, "expected a number"),
            ("t^-2", 2, "expected a number"),
            ("x", 0, "unexpected character"),
            ("(2^512)^512", 11, "262656 bits, over the limit 1024"),
            ("(t+3)^512", 9, "1536 bits, over the limit 1024"),
            ("(1/3)^500+(1/5)^400", 19, "1200 bits, over the limit 1024"),
            ("2^500*t+1/3^500", 15, "1293 bits, over the limit 1024"),
            (str(2**1024), 309, "number exceeds the limit of 1024 bits"),
            ("1" * 5000, 5000, "number exceeds the limit of 1024 bits"),
            ("t^" + "9" * 5000, 5002, "number exceeds the limit of 1024 bits"),
            # Digits are what int() reads: superscripts are not numbers.
            ("t^\u00b2", 2, "expected a number"),
            ("\u00b2", 0, "unexpected character '\u00b2'"),
            # Unicode spaces and decimal digits keep the same positions.
            ("t^ \u00a0x", 4, "expected a number"),
            ("1/\u00a0", 3, "expected a number"),
            ("\u0663" * 5000, 5000, "number exceeds the limit of 1024 bits"),
            ("t^\u00a0" + "\u0669" * 400, 403, "number exceeds the limit of 1024 bits"),
            ("\u0663/\u00a0" + "9" * 400, 403, "number exceeds the limit of 1024 bits"),
            ("t^\u0665\u0661\u0663", 5, "exponent 513 exceeds the limit 512"),
            # The 101st parenthesis is refused, in an expr and in a class
            # literal, where the pair's own parenthesis is not an atom's.
            pytest.param(
                "(" * 250 + "t" + ")" * 250, 100, "nested deeper than 100",
                id="expr-nested-250",
            ),
            pytest.param(
                "(" + "(" * 250 + "t" + ")" * 250 + ", 2)", 101,
                "nested deeper than 100", id="class-nested-250",
            ),
        ],
    )
    def test_rejections_carry_positions(self, text, position, fragment):
        # An expr never holds a comma, and a class literal always does.
        production = _ExprParser._class if "," in text else _ExprParser._expr
        with pytest.raises(ExpressionError) as excinfo:
            _ExprParser(text).parse(production)
        assert excinfo.value.position == position
        assert fragment in str(excinfo.value)

    def test_unicode_spaces_and_digits(self):
        # Whitespace is what str.isspace accepts and a digit what
        # str.isdecimal accepts, as int() reads them.
        assert parse_poly("t\u00a0+\u00a01") == T + 1
        assert parse_poly("\u3000t\u2003*\u20092\u0661") == 21 * T
        assert parse_poly("t^\u0663") == T**3

    def test_nesting_limit_is_inclusive(self):
        assert parse_poly("(" * 100 + "t" + ")" * 100) == T

    def test_exponent_limit_is_inclusive(self):
        parse_poly("t^512")

    def test_degree_limit_is_inclusive(self):
        assert parse_poly("(t^2+1)^256").degree == 512
        assert parse_poly("t^300*(t+1)^212").degree == 512

    def test_bit_limit_is_inclusive(self):
        largest = 2**1024 - 1
        assert parse_poly(f"{largest}/{largest - 1}") == Fraction(
            largest, largest - 1
        )
        assert parse_poly("0" * 400 + "7") == 7
        # 512 times the 2 bits of 3: on the limit.
        assert parse_poly("3^512") == 3**512


class TestFibers:
    def test_reference_table(self, capsys):
        code, lines = run(capsys, "fibers")
        assert code == 0
        assert lines[:6] == [
            "t-3 : I_2",
            "t-1 : I_6",
            "t : I_2",
            "t+1 : I_6",
            "t+3 : I_2",
            "infinity : I_6",
        ]
        assert "euler number = 24" in lines
        assert "K3 = yes" in lines

    def test_records_format(self, capsys):
        code, lines = run(capsys, "fibers", "--format", "records")
        assert code == 0
        assert "fiber.infinity = I_6" in lines
        assert "euler_number = 24" in lines
        assert "k3 = true" in lines
        assert "semistable = true" in lines
        for line in lines:
            key, sep, value = line.partition(" = ")
            assert sep and key and value

    def test_custom_curve(self, capsys):
        code, lines = run(capsys, "fibers", "--p", "1", "--q", "t")
        assert code == 0
        assert "t : I_2" in lines
        assert "t-1 : I_2" in lines
        assert "infinity : I_2*" in lines
        assert "euler number = 12" in lines

    def test_singular_input_is_a_usage_error(self, capsys):
        code, lines = run(capsys, "fibers", "--p", "t", "--q", "t")
        assert code == 2
        assert lines[0].startswith("error:")

    def test_lonely_root_flag_rejected(self, capsys):
        code, lines = run(capsys, "fibers", "--p", "t")
        assert code == 2
        assert "together" in lines[0]

    def test_malformed_expression_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fibers", "--p", "t^", "--q", "t"])
        assert excinfo.value.code == 2


class TestResidues:
    def test_reference_class_unramified(self, capsys):
        code, lines = run(capsys, "residues")
        assert code == 0
        assert lines[-1] == "unramified over the projective line = yes"
        assert "infinity : trivially one" in lines
        assert sum(": class 1" in line for line in lines) == 5

    def test_single_symbol_ramifies(self, capsys):
        code, lines = run(
            capsys, "residues", "--symbol=-3*(t-1)^3*(t+3), 6*t*(t+1)"
        )
        assert code == 1
        assert "t-1 : class 3" in lines
        assert "t+1 : class 3" in lines
        assert lines[-1] == "unramified over the projective line = no"

    def test_undetermined_residue_exits_three(self, capsys):
        code, lines = run(capsys, "residues", "--symbol", "2, t^2+1")
        assert code == 3
        assert "t^2+1 : undetermined" in lines
        assert lines[-1] == "unramified over the projective line = undetermined"

    def test_residues_at_a_quadratic_place_multiply_first(self, capsys):
        # (t^2+1, 2) + (t^2+1, 8) is the zero class (t^2+1, 16)
        code, lines = run(capsys, "residues", "(t^2+1, 2) + (t^2+1, 8)")
        assert code == 0
        assert lines == [
            "t^2+1 : trivially one",
            "infinity : trivially one",
            "unramified over the projective line = yes",
        ]

    def test_class_literal_matches_symbol_flags(self, capsys):
        _, from_literal = run(capsys, "residues", "(t, t) + (t-4, t)")
        _, from_flags = run(capsys, "residues", "--symbol", "t,t", "--symbol", "t-4,t")
        assert from_literal == from_flags

    def test_class_literal_spelling_of_the_default(self, capsys):
        literal = "(-3*(t-1)^3*(t+3), 6*t*(t+1)) + (-3*(t+1)^3*(t-3), 6*t*(t-1))"
        code, lines = run(capsys, "residues", literal)
        _, default_lines = run(capsys, "residues")
        assert code == 0
        assert lines == default_lines

    def test_class_literal_and_symbol_flags_conflict(self, capsys):
        code, lines = run(capsys, "residues", "(t, t)", "--symbol", "t,t")
        assert code == 2
        assert "not both" in lines[0]

    @pytest.mark.parametrize(
        "literal, position",
        [
            ("(t, t", 5),
            ("(t, t)+", 7),
            ("t, t", 0),
            # the missing comma is reported where it was expected
            ("(t t)", 3),
            ("(t, t))", 6),
            # errors inside an entry keep their offset into the whole literal
            ("(t^, t)", 3),
            ("(t, 1/0)", 7),
        ],
    )
    def test_class_literal_rejections(self, literal, position, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["residues", literal])
        assert excinfo.value.code == 2
        assert f"position {position}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "symbol, message",
        [
            # errors in the second entry count from the start of the argument
            ("t, t t", "position 5: unexpected character 't'"),
            ("t", "position 1: expected ','"),
            ("t, (t+1, 2)", "position 7: expected ')'"),
        ],
    )
    def test_symbol_rejections(self, symbol, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["residues", "--symbol", symbol])
        assert excinfo.value.code == 2
        assert f"argument --symbol: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["residues", "--symbol=0,t"],
            ["residues", "--symbol=t,0"],
            ["residues", "(t, 0)"],
            ["residues", "(t, t) + (t-t, 1)"],
        ],
    )
    def test_zero_entry_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "symbol entries must be nonzero" in err
        assert "Traceback" not in err


def _literals(st):
    """Random class literals: (pairs, --symbol values, text, positions).

    Entries are nonzero polynomials printed with str, every '(' ',' '+' ')'
    is padded with random whitespace, and positions are those of the
    structural characters '(' ',' ')' '+' in the text.
    """
    poly = st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
        min_size=1,
        max_size=4,
    ).map(Polynomial).filter(bool)
    space = st.text(alphabet=" \t", max_size=2)

    @st.composite
    def literal(draw):
        pairs = draw(st.lists(st.tuples(poly, poly), min_size=1, max_size=4))
        text, symbols, positions = draw(space), [], []
        for i, (f, g) in enumerate(pairs):
            if i:
                positions.append(len(text))
                text += "+" + draw(space)
            symbol = f"{draw(space)}{f}{draw(space)},{draw(space)}{g}{draw(space)}"
            symbols.append(symbol)
            start = len(text)
            positions += [start, start + 1 + symbol.index(","), start + 1 + len(symbol)]
            text += f"({symbol}){draw(space)}"
        return pairs, symbols, text, positions

    return literal()


def test_printed_classes_parse_back():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(deadline=None, max_examples=60)
    @hypothesis.given(_literals(hypothesis.strategies))
    def check(drawn):
        pairs, symbols, text, _ = drawn
        parser = build_parser()
        literal = parser.parse_args(["residues", text]).class_literal
        flags = [f"--symbol={symbol}" for symbol in symbols]
        from_flags = parser.parse_args(["residues", *flags]).symbol
        assert QtBrauerClass(literal) == QtBrauerClass(pairs)
        assert QtBrauerClass(from_flags) == QtBrauerClass(pairs)

    check()


def test_corrupted_literals_report_a_position():
    # No valid literal survives these corruptions: a character outside the
    # grammar replaces one or is inserted, or a structural one is deleted.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, max_examples=60)
    @hypothesis.given(_literals(st), st.data())
    def check(drawn, data):
        text, positions = drawn[2], drawn[3]
        foreign = data.draw(st.sampled_from("x#@!;&"))
        i = data.draw(st.integers(0, len(text) - 1))
        j = data.draw(st.integers(0, len(text)))
        corrupted = [text[:i] + foreign + text[i + 1 :], text[:j] + foreign + text[j:]]
        corrupted += [text[:k] + text[k + 1 :] for k in positions]
        for bad in corrupted:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
                main(["residues", "--", bad])
            assert exc.value.code == 2
            match = re.search(r"argument CLASS: position (\d+): ", err.getvalue())
            assert match, err.getvalue()
            assert 0 <= int(match.group(1)) <= len(bad)

    check()


class TestDescent:
    def test_constant_square_images(self, capsys):
        code, lines = run(capsys, "descent")
        assert code == 0
        assert lines == [
            "O : (1, 1)",
            "(p,0) : (t, (t-1) * t * (t+3))",
            "(q,0) : ((t-3) * t * (t+1), t)",
            "(0,0) : ((t-3) * (t+1), (t-1) * (t+3))",
            "images of (p,0) and (q,0) independent = yes",
        ]

    def test_rational_mode_keeps_constants(self, capsys):
        code, lines = run(capsys, "descent", "--mode", "qt", "--format", "records")
        assert code == 0
        assert "image.p = (3 * t, (t-1) * t * (t+3))" in lines
        assert "image.q = (-1 * (t-3) * t * (t+1), -1 * 3 * t)" in lines
        assert "independent = true" in lines


class TestTranscendence:
    def test_reference_class_is_transcendental(self, capsys):
        code, lines = run(capsys, "transcendence")
        assert code == 0
        assert "verdict = transcendental" in lines
        assert any(line.startswith("reason = ") for line in lines)

    def test_torsion_image_is_algebraic(self, capsys):
        code, lines = run(capsys, "transcendence", "--f", "t", "--g", "(t-1)*t*(t+3)")
        assert code == 1
        assert "verdict = algebraic over C" in lines
        assert "combination = (1, 0)" in lines

    def test_loose_rank_bound_gives_unknown(self, capsys):
        code, lines = run(capsys, "transcendence", "--mw-rank-bound", "1")
        assert code == 3
        assert "verdict = unknown" in lines
        assert any("rank bound 1" in line for line in lines)

    def test_negative_rank_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transcendence", "--mw-rank-bound=-1"])
        assert excinfo.value.code == 2
        assert "must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--f=0", "--g=0", "--f=t-t"])
    def test_zero_entry_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transcendence", flag])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "symbol entries must be nonzero" in err


class TestHilbert:
    def test_known_values(self, capsys):
        code, lines = run(capsys, "hilbert", "-14", "36", "--place", "2")
        assert code == 0
        assert lines == ["(-14, 36)_2 = +1", "invariant = 0"]

        code, lines = run(capsys, "hilbert", "82", "12", "--place", "2")
        assert code == 0
        assert lines == ["(82, 12)_2 = -1", "invariant = 1/2"]

    def test_real_place(self, capsys):
        code, lines = run(capsys, "hilbert", "-1", "-1", "--place", "real")
        assert code == 0
        assert lines[0] == "(-1, -1)_real = -1"

    def test_fractional_arguments_after_double_dash(self, capsys):
        code, lines = run(capsys, "hilbert", "--place", "real", "--", "-1/2", "-1")
        assert code == 0
        assert lines[0] == "(-1/2, -1)_real = -1"

    def test_records(self, capsys):
        code, lines = run(
            capsys, "hilbert", "82", "12", "--place", "2", "--format", "records"
        )
        assert code == 0
        assert lines == ["symbol = -1", "invariant = 1/2"]

    def test_zero_argument_rejected(self, capsys):
        code, lines = run(capsys, "hilbert", "0", "5", "--place", "3")
        assert code == 2
        assert lines[0].startswith("error:")

    def test_composite_place_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["hilbert", "3", "5", "--place", "9"])
        assert excinfo.value.code == 2

    def test_unicode_digits(self, capsys):
        code, lines = run(capsys, "hilbert", "--place=3", "--", "\u0663", "2")
        assert (code, lines) == run(capsys, "hilbert", "--place=3", "--", "3", "2")
        assert lines[0] == "(3, 2)_3 = -1"

    def test_signed_rationals_with_whitespace(self, capsys):
        code, lines = run(capsys, "hilbert", "--place", "3", "--", " - 3 / 2", "+5")
        assert code == 0
        assert lines[0] == "(-3/2, 5)_3 = -1"


# Numbers are read with the grammar's rational production plus a sign, so
# decimal and exponent forms are refused where they stop matching it.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["hilbert", "--place", "3", "--", "1.5", "2"], "argument a: position 1:"),
        (["hilbert", "--place", "3", "--", "2", "1e3"], "argument b: position 1:"),
        (["hilbert", "--place", "3", "--", "1/0", "2"], "position 3: division"),
        (["evaluate", "--x", "1", "--t", "2.0", "--place", "2"], "--t: position 1:"),
        (["obstruct", "--x", "1E2"], "--x: position 1: unexpected character 'E'"),
        (["obstruct", "--t", "-"], "--t: position 1: expected a number"),
        (["hilbert", "--place", "3", "--", "\u00b2", "5"], "a: position 0: expected a"),
        (["fibers", "--p", "t^\u00b2", "--q", "t"], "--p: position 2: expected a"),
    ],
)
def test_numbers_outside_the_grammar_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


class TestEvaluate:
    def test_distinguished_point(self, capsys):
        code, lines = run(capsys, "evaluate", "--x", "1", "--t", "2", "--place", "2")
        assert code == 0
        assert lines == ["point = (x = 1, t = 2) at 2", "invariant = 1/2"]

    def test_zero_section(self, capsys):
        code, lines = run(capsys, "evaluate", "--zero-section", "--place", "7")
        assert code == 0
        assert lines[-1] == "invariant = 0"

    def test_non_point_exits_two(self, capsys):
        code, lines = run(capsys, "evaluate", "--x", "2", "--t", "2", "--place", "5")
        assert code == 2
        assert "not on the surface" in lines[0]

    def test_degenerate_point_exits_three(self, capsys):
        code, lines = run(capsys, "evaluate", "--x", "7", "--t", "0", "--place", "real")
        assert code == 3
        assert lines[0].startswith("undetermined:")

    def test_zero_section_excludes_coordinates(self, capsys):
        code, lines = run(
            capsys, "evaluate", "--zero-section", "--x", "1", "--t", "2", "--place", "2"
        )
        assert code == 2
        assert "--zero-section excludes --x and --t" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [["evaluate", "--x", "1", "--t", "2", "--place", "2"], ["obstruct"]],
)
def test_point_evaluates_p_and_q_once(capsys, monkeypatch, argv):
    curve = reference_curve()
    calls = []
    original = RationalFunction.__call__

    def counting(self, x):
        if self is curve.split_p or self is curve.split_q:
            calls.append(x)
        return original(self, x)

    monkeypatch.setattr(RationalFunction, "__call__", counting)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [2, 2]


class TestObstruct:
    @pytest.mark.parametrize(
        "extra", [["--x", "5", "--t", "7"], ["--x", "5"], ["--t", "7"]]
    )
    def test_zero_section_excludes_coordinates(self, capsys, extra):
        code, lines = run(capsys, "obstruct", "--zero-section", *extra)
        assert code == 2
        assert lines == ["error: --zero-section excludes --x and --t"]

    def test_one_coordinate_keeps_the_other_default(self, capsys):
        code, lines = run(capsys, "obstruct", "--t", "2", "--place", "3")
        assert code == 1
        assert "invariant at 3 = 0" in lines


    def test_default_adelic_point(self, capsys):
        code, lines = run(capsys, "obstruct")
        assert code == 0
        assert lines == [
            "invariant at 2 = 1/2",
            "note: every place without an override holds the zero section,"
            " where the invariant is 0",
            "total = 1/2",
            "obstructed = yes",
        ]

    def test_zero_section_adelic_point(self, capsys):
        code, lines = run(capsys, "obstruct", "--zero-section")
        assert code == 1
        assert "total = 0" in lines
        assert "obstructed = no" in lines

    def test_custom_override_at_odd_place(self, capsys):
        code, lines = run(capsys, "obstruct", "--x", "1", "--t", "2", "--place", "3")
        assert code == 1
        assert "invariant at 3 = 0" in lines
        assert "obstructed = no" in lines

    def test_records(self, capsys):
        code, lines = run(capsys, "obstruct", "--format", "records")
        assert code == 0
        assert lines[0] == "invariant.2 = 1/2"
        assert lines[1].startswith("note = ")
        assert lines[2:] == ["total = 1/2", "obstructed = true"]


class TestVerify:
    def test_full_pipeline(self, capsys):
        code, lines = run(capsys, "verify")
        assert code == 0
        assert lines[-1] == "ALL CHECKS PASS"
        for name in (
            "surface",
            "descent",
            "transcendence",
            "residues",
            "local invariants",
            "exactness",
            "obstruction",
        ):
            assert f"check {name}: ok" in lines
        for place in ("real", "3", "5", "7"):
            assert f"sampling at {place}: ok (25 points, all invariants 0)" in lines
        assert any(line.startswith("note: sampling gives evidence") for line in lines)

    def test_exactness_builds_each_torsion_image_once(self, capsys, monkeypatch):
        built = []
        active = []
        original_image = pipeline.brauer_image
        original_check = pipeline._check_exactness

        def counting_image(*args):
            built.append(bool(active))
            return original_image(*args)

        def marked_check():
            active.append(True)
            try:
                return original_check()
            finally:
                active.clear()

        monkeypatch.setattr(pipeline, "brauer_image", counting_image)
        monkeypatch.setattr(pipeline, "_check_exactness", marked_check)
        code, lines = run(capsys, "verify")
        assert code == 0
        assert "check exactness: ok" in lines
        assert built.count(True) == 3

    def test_small_sample_run(self, capsys):
        code, lines = run(
            capsys,
            "verify",
            "--samples", "5",
            "--height", "8",
            "--sample-places", "3",
        )
        assert code == 0
        assert "sampling at 3: ok (5 points, all invariants 0)" in lines
        assert not any("sampling at 7" in line for line in lines)
        assert not any(line.startswith("  ") for line in lines)

    @pytest.mark.parametrize(
        "flag, value", [("--samples", "0"), ("--samples", "-1"), ("--height", "0")]
    )
    def test_nonpositive_budget_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", flag, value, "--sample-places", "3"])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_verbose_toggle_adds_evidence(self, capsys, monkeypatch):
        monkeypatch.setenv("ELLBRAUER_VERBOSE", "1")
        code, lines = run(
            capsys, "verify", "--samples", "5", "--height", "8",
            "--sample-places", "3",
        )
        assert code == 0
        assert "  q(t) = p(-t) and p(t) - q(t) = 48t" in lines
        assert "  adelic sum 1/2 at the distinguished 2-adic point" in lines
        assert lines[-1] == "ALL CHECKS PASS"

    def test_verbose_records_keys(self, capsys, monkeypatch):
        monkeypatch.setenv("ELLBRAUER_VERBOSE", "1")
        code, lines = run(
            capsys, "verify", "--samples", "5", "--height", "8",
            "--sample-places", "3", "--format", "records",
        )
        assert code == 0
        assert any(line.startswith("evidence.surface = ") for line in lines)
        assert any(line.startswith("evidence.sampling.3 = ") for line in lines)


_NOTE = (
    "sampling gives evidence over the tested points only; vanishing on all"
    " local points is not decided by this computation"
)
_SAMPLED_RUN = ("verify", "--samples", "5", "--height", "8", "--sample-places", "real,3")

_PLAIN = f"""\
check surface: ok
check descent: ok
check transcendence: ok
check residues: ok
check local invariants: ok
check exactness: ok
check obstruction: ok
sampling at real: ok (5 points, all invariants 0)
sampling at 3: ok (5 points, all invariants 0)
note: {_NOTE}
ALL CHECKS PASS
"""

_RECORDS = f"""\
check.surface = pass
check.descent = pass
check.transcendence = pass
check.residues = pass
check.local_invariants = pass
check.exactness = pass
check.obstruction = pass
sampling.real = pass
sampling.3 = pass
note = {_NOTE}
result = pass
"""

_VERBOSE = f"""\
check surface: ok
  q(t) = p(-t) and p(t) - q(t) = 48t
  fibers t-3 I_2, t-1 I_6, t I_2, t+1 I_6, t+3 I_2, infinity I_6
  euler 24, chi 2, K3, rank bound 20, MW rank bound 0, semistable
check descent: ok
  image (p,0) = (t, (t-1) * t * (t+3))
  image (q,0) = ((t-3) * t * (t+1), t)
  images sum to the image of (0,0) and are independent
check transcendence: ok
  transcendental: target lies outside the span of the torsion images
check residues: ok
  residues trivial at all 6 support places
  the first symbol alone ramifies at t-1, so cancellation is real
check local invariants: ok
  invariant 1/2 at (x = 1, t = 2) at 2
  invariant 0 at the torsion section over t = 2
check exactness: ok
  36 evaluations of torsion images over 2, 3 and 5, all 0
check obstruction: ok
  adelic sum 1/2 at the distinguished 2-adic point
sampling at real: ok (5 points, all invariants 0)
  height 8, 0 degenerate skipped
sampling at 3: ok (5 points, all invariants 0)
  height 8, 0 degenerate skipped
note: {_NOTE}
ALL CHECKS PASS
"""

_VERBOSE_RECORDS = f"""\
check.surface = pass
evidence.surface = q(t) = p(-t) and p(t) - q(t) = 48t
evidence.surface = fibers t-3 I_2, t-1 I_6, t I_2, t+1 I_6, t+3 I_2, infinity I_6
evidence.surface = euler 24, chi 2, K3, rank bound 20, MW rank bound 0, semistable
check.descent = pass
evidence.descent = image (p,0) = (t, (t-1) * t * (t+3))
evidence.descent = image (q,0) = ((t-3) * t * (t+1), t)
evidence.descent = images sum to the image of (0,0) and are independent
check.transcendence = pass
evidence.transcendence = transcendental: target lies outside the span of the torsion images
check.residues = pass
evidence.residues = residues trivial at all 6 support places
evidence.residues = the first symbol alone ramifies at t-1, so cancellation is real
check.local_invariants = pass
evidence.local_invariants = invariant 1/2 at (x = 1, t = 2) at 2
evidence.local_invariants = invariant 0 at the torsion section over t = 2
check.exactness = pass
evidence.exactness = 36 evaluations of torsion images over 2, 3 and 5, all 0
check.obstruction = pass
evidence.obstruction = adelic sum 1/2 at the distinguished 2-adic point
sampling.real = pass
evidence.sampling.real = height 8, 0 degenerate skipped
sampling.3 = pass
evidence.sampling.3 = height 8, 0 degenerate skipped
note = {_NOTE}
result = pass
"""

_FAILING = f"""\
check surface: ok
check descent: ok
check transcendence: ok
check residues: ok
check local invariants: ok
check exactness: ok
check obstruction: ok
sampling at 2: FAIL (invariant 1/2 at t = -2, x = 1)
note: {_NOTE}
FAILED: 1 check(s)
"""


def test_warm_verify_factors_no_constant(capsys, monkeypatch):
    # The square class of a constant is read off the constant itself:
    # poly_factor hands a constant back as its unit, so only nonconstant
    # polynomials reach the factor search.
    assert run(capsys, "verify")[0] == 0
    degrees = []
    original = exactalg._factor_model

    def counting(model):
        # the primitive integer model, lowest degree first
        degrees.append(len(model) - 1)
        return original(model)

    monkeypatch.setattr(exactalg, "_factor_model", counting)
    assert run(capsys, "verify")[0] == 0
    assert degrees
    assert 0 not in degrees


class TestVerifyOutput:
    """The whole verify output, byte for byte, in every rendering."""

    @pytest.mark.parametrize(
        "verbose, extra, expected",
        [
            ("", (), _PLAIN),
            ("", ("--format", "records"), _RECORDS),
            ("1", (), _VERBOSE),
            ("1", ("--format", "records"), _VERBOSE_RECORDS),
        ],
        ids=["plain", "records", "verbose", "verbose-records"],
    )
    def test_sampled_run(self, capsys, monkeypatch, verbose, extra, expected):
        monkeypatch.setenv("ELLBRAUER_VERBOSE", verbose)
        code = main([*_SAMPLED_RUN, *extra])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, expected, "")

    def test_failing_sampling_place(self, capsys, monkeypatch):
        monkeypatch.delenv("ELLBRAUER_VERBOSE", raising=False)
        code = main(["verify", "--sample-places", "2", "--samples", "30"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, _FAILING, "")

    @pytest.mark.parametrize(
        "places, message",
        [
            ("3,4", "4 is not prime"),
            ("real,x", "place must be 'real' or a prime, got 'x'"),
            ("3,3,real", "place 3 is listed twice"),
            ("real,5,REAL", "place real is listed twice"),
        ],
    )
    def test_bad_sample_place_is_usage_error(self, capsys, places, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--sample-places", places])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --sample-places: {message}" in err
        assert "_sample_place_list" not in err


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # Building the parser costs several times what a hilbert run computes.
    progs = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    build_parser()
    one_build = list(progs)
    build_parser.cache_clear()
    progs.clear()
    assert main(["hilbert", "82", "12", "--place", "2"]) == 0
    assert main(["descent"]) == 0
    assert main(["residues", "--symbol", "2, t^2+1"]) == 3
    with pytest.raises(SystemExit) as excinfo:
        main(["hilbert", "3", "5", "--place", "9"])
    assert excinfo.value.code == 2
    assert main(["evaluate", "--zero-section", "--place", "7"]) == 0
    capsys.readouterr()
    # The top-level parser and one per subcommand.
    assert len(one_build) == 1 + len(GOLDEN_SUBCOMMANDS)
    assert progs == one_build


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_error_outside_the_exit_table_propagates(self, capsys, monkeypatch):
        # main's exit table has no ValueError row: a plain ValueError is a
        # fault to surface, not a usage error to report.
        def failing(curve):
            raise ValueError("not in the exit table")

        monkeypatch.setattr(cli, "classify_surface", failing)
        with pytest.raises(ValueError, match="not in the exit table"):
            main(["fibers"])
        assert capsys.readouterr() == ("", "")


# Every subcommand, its success paths and the error paths the handlers
# report themselves.  Each runs in both formats; verify also runs with
# ELLBRAUER_VERBOSE=1.  The expected stdout, stderr and exit code of
# every run are in cli_golden.json, written by `python tests/test_cli.py`.
GOLDEN_FILE = Path(__file__).with_name("cli_golden.json")
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_SUBCOMMANDS = {
    "fibers", "residues", "descent", "transcendence",
    "hilbert", "evaluate", "obstruct", "verify",
}
GOLDEN_COMMANDS = [
    ["fibers"],
    ["fibers", "--p", "1", "--q", "t"],
    ["fibers", "--p", "t^2+1", "--q", "t"],
    ["fibers", "--p", "0", "--q", "t"],
    ["fibers", "--p", "1", "--q", "2"],
    ["fibers", "--p", "t"],
    ["residues"],
    ["residues", "--symbol=-3*(t-1)^3*(t+3), 6*t*(t+1)"],
    ["residues", "--symbol", "2, t^2+1"],
    ["residues", "(t, t) + (t-4, t)"],
    ["residues", "(t, t)", "--symbol", "t,t"],
    ["descent"],
    ["descent", "--mode", "qt"],
    ["transcendence"],
    ["transcendence", "--f", "t", "--g", "(t-1)*t*(t+3)"],
    ["transcendence", "--mw-rank-bound", "1"],
    ["hilbert", "-14", "36", "--place", "2"],
    ["hilbert", "--place", "real", "--", "-1/2", "-1"],
    ["hilbert", "0", "5", "--place", "3"],
    ["evaluate", "--x", "1", "--t", "2", "--place", "2"],
    ["evaluate", "--zero-section", "--place", "7"],
    ["evaluate", "--x", "1", "--t", "2", "--place", "real"],
    ["evaluate", "--x", "1", "--t", "1", "--place", "2"],
    ["evaluate", "--place", "2"],
    ["obstruct"],
    ["obstruct", "--zero-section"],
    ["obstruct", "--x", "1", "--t", "2", "--place", "3"],
    ["obstruct", "--x", "0", "--t", "1"],
    ["verify"],
    ["verify", "--sample-places", "3,real", "--samples", "4", "--height", "6"],
    ["verify", "--sample-places", "2", "--samples", "30"],
]
def _with_format(argv, fmt):
    return [argv[0], "--format", fmt, *argv[1:]]


GOLDEN_RUNS = [
    (_with_format(argv, fmt), verbose)
    for argv in GOLDEN_COMMANDS
    for fmt in ("human", "records")
    for verbose in (("", "1") if argv[0] == "verify" else ("",))
]


def _golden_id(argv, verbose):
    return " ".join(argv) + (" [verbose]" if verbose else "")


def _capture(argv, verbose):
    """Exit code, stdout lines and stderr lines of one in-process run."""
    saved = os.environ.pop("ELLBRAUER_VERBOSE", None)
    if verbose:
        os.environ["ELLBRAUER_VERBOSE"] = verbose
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.environ.pop("ELLBRAUER_VERBOSE", None)
        if saved is not None:
            os.environ["ELLBRAUER_VERBOSE"] = saved
    return {
        "exit": code,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue().splitlines(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


class TestGoldenMatrix:
    @pytest.mark.parametrize(
        "argv, verbose", GOLDEN_RUNS, ids=[_golden_id(*run) for run in GOLDEN_RUNS]
    )
    def test_run_matches_golden(self, golden, argv, verbose):
        assert _capture(argv, verbose) == golden[_golden_id(argv, verbose)]

    def test_golden_covers_exactly_the_matrix(self, golden):
        assert sorted(golden) == sorted(_golden_id(*run) for run in GOLDEN_RUNS)

    def test_every_subcommand_and_error_exit_is_covered(self, golden):
        assert {argv[0] for argv in GOLDEN_COMMANDS} == GOLDEN_SUBCOMMANDS
        assert {entry["exit"] for entry in golden.values()} == {0, 1, 2, 3}

    def test_one_process_runs_the_matrix_both_ways(self, golden):
        # main reuses one parser, so no run may leave state for the next.
        build_parser.cache_clear()
        for runs in (GOLDEN_RUNS, GOLDEN_RUNS[::-1]):
            for argv, verbose in runs:
                assert _capture(argv, verbose) == golden[_golden_id(argv, verbose)]
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        "argv", [["verify"], ["hilbert", "-14", "36", "--place", "2"]]
    )
    def test_fresh_interpreter(self, golden, argv):
        # The one-call-per-process path of the installed command.
        env = dict(os.environ)
        env.pop("ELLBRAUER_VERBOSE", None)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "ellbrauer.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        assert {
            "exit": proc.returncode,
            "stdout": proc.stdout.splitlines(),
            "stderr": proc.stderr.splitlines(),
        } == golden[_golden_id(_with_format(argv, "human"), "")]

    @pytest.mark.parametrize("verbose", ["", "1"])
    def test_one_record_per_human_line(self, golden, verbose):
        for argv in GOLDEN_COMMANDS:
            human = golden.get(_golden_id(_with_format(argv, "human"), verbose))
            if human is None:
                continue
            records = golden[_golden_id(_with_format(argv, "records"), verbose)]
            assert len(records["stdout"]) == len(human["stdout"]), argv
            assert all(" = " in line for line in records["stdout"]), argv


if __name__ == "__main__":
    GOLDEN_FILE.write_text(
        json.dumps(
            {_golden_id(*run): _capture(*run) for run in GOLDEN_RUNS}, indent=1
        )
        + "\n"
    )
