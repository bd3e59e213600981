"""Frozen value classes: construction, immutability, equality and import cost."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellbrauer
from ellbrauer._valueclass import value_class
from ellbrauer.elliptic import KodairaType
from ellbrauer.funcfield import INFINITY
from ellbrauer.hilbert import REAL, RationalPlace, SymbolValue
from ellbrauer.pipeline import Check


@value_class
class Pair:
    a: int
    b: str = "x"


@value_class
class OtherPair:
    a: int
    b: str = "x"


@value_class
class Checked:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative")


def test_positional_keyword_and_default_arguments():
    assert Pair(1).b == "x"
    assert Pair(1, "y") == Pair(a=1, b="y") == Pair(b="y", a=1)
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, "y", 3)
    with pytest.raises(TypeError):
        Pair(1, c=2)


def test_post_init_runs():
    assert Checked(2).n == 2
    with pytest.raises(ValueError):
        Checked(-1)
    with pytest.raises(ValueError):
        SymbolValue(0)


def test_frozen():
    pair = Pair(1)
    with pytest.raises(AttributeError):
        pair.a = 2
    with pytest.raises(AttributeError):
        del pair.a
    with pytest.raises(AttributeError):
        pair.c = 3
    with pytest.raises(AttributeError):
        KodairaType.I(2).n = 3
    assert pair == Pair(1)


def test_equal_values_hash_equal():
    assert hash(Pair(1, "y")) == hash(Pair(1, "y")) == hash((1, "y"))
    assert len({RationalPlace.prime(3), RationalPlace.prime(3), REAL}) == 2
    assert {KodairaType.I(2): 1}[KodairaType("I", 2)] == 1


def test_different_classes_with_equal_fields_are_unequal():
    assert Pair(1) != OtherPair(1)
    assert not Pair(1) == OtherPair(1)
    # Both mark their infinite place with a single field equal to None.
    assert INFINITY.pi is None and REAL.p is None
    assert INFINITY != REAL


def test_unhashable_field_makes_the_value_unhashable():
    with pytest.raises(TypeError):
        hash(Check("surface", [], []))


def test_repr_names_the_fields():
    assert repr(Pair(1)) == "Pair(a=1, b='x')"
    assert repr(SymbolValue(-1)) == "SymbolValue(sign=-1)"
    assert repr(RationalPlace.prime(3)) == "RationalPlace(p=3)"


def test_default_after_field_without_one_is_rejected():
    with pytest.raises(TypeError):

        @value_class
        class Bad:
            a: int = 0
            b: int


def test_package_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, ellbrauer, ellbrauer.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(ellbrauer.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
