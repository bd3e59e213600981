"""The public names of the package resolve, and the benchmark's stay exported."""

import ellbrauer
import ellbrauer.cli

# Looked up on the package by perfbench/worker.py on every operation.
BENCHMARK_NAMES = [
    "sample_vanishing",
    "reference_class",
    "REAL",
    "RationalPlace",
    "WeierstrassCurve",
    "Polynomial",
    "transcendence_test",
    "CurvePoint",
    "descent_image",
    "FieldMode",
    "product_formula_check",
]


def test_every_exported_name_resolves():
    missing = [name for name in ellbrauer.__all__ if not hasattr(ellbrauer, name)]
    assert missing == []
    assert len(set(ellbrauer.__all__)) == len(ellbrauer.__all__)


def test_benchmark_names_stay_exported():
    for name in BENCHMARK_NAMES:
        assert name in ellbrauer.__all__
        assert getattr(ellbrauer, name) is not None
    assert callable(ellbrauer.cli.main)


def test_both_symbol_classes_stay_exported():
    for name in ("BrauerClass", "QtBrauerClass", "CurveCoordinate"):
        assert name in ellbrauer.__all__
    assert ellbrauer.BrauerClass is not ellbrauer.QtBrauerClass
