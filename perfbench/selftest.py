"""The benchmark's own tests.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the program's test suite, which
collects from the repository root, does not pick it up.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _take(workload: str, seed: int, n: int = 60) -> list[dict]:
    return list(itertools.islice(workloads.operations(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    assert _take(workload, 7) == _take(workload, 7)
    assert _take(workload, 7) != _take(workload, 8)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_factor_degrees():
    assert workloads.factor_degrees([1, 0, 1]) == (2,)
    assert workloads.factor_degrees([4, 0, 0, 0, 1]) == (2, 2)  # t^4 + 4
    assert workloads.factor_degrees([1, 1, 0, 0, 1]) == (4,)
    assert workloads.factor_degrees([0, -1, 0, 1]) == (1, 1, 1)


def test_tracer_self_times_and_uninstall():
    import ellbrauer

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed_wrappers()
        t = ellbrauer.Polynomial.variable()
        tracer.run_op(0, lambda: ellbrauer.poly_factor((t**2 - 1) * (t**2 + 1)))
        tracer.run_op(1, lambda: ellbrauer.poly_factor((t**2 - 1) * (t**2 + 1)))
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    totals = tracer.layer_totals()
    assert totals["exactalg.poly_factor"]["calls"] == 2
    assert totals["exactalg.divmod"]["calls"] > 0
    assert sum(tracer.self_times()) == tracer.root_wall_ns()
    # The second op factors the same input again, but in a new op.
    assert tracer.factor_repeats == 0


def _record(op: dict, output) -> dict:
    return {"op": op, "output": output, "wall_ns": 1}


def test_oracle_rejects_wrong_outputs():
    hilbert = next(
        op for op in workloads.operations("symbol_arithmetic", 1)
        if op["kind"] == "hilbert"
    )
    sign = oracle._hilbert(
        oracle.Fraction(hilbert["a"]), oracle.Fraction(hilbert["b"]), hilbert["p"]
    )
    right, wrong = ("+1", "-1") if sign == 1 else ("-1", "+1")
    text = "({a}, {b})_{p} = {s}\ninvariant = {i}\n"
    good = text.format(a=hilbert["a"], b=hilbert["b"], p=hilbert["p"], s=right,
                       i="0" if sign == 1 else "1/2")
    bad = text.format(a=hilbert["a"], b=hilbert["b"], p=hilbert["p"], s=wrong,
                      i="1/2" if sign == 1 else "0")
    assert oracle.check(_record(hilbert, {"code": 0, "out": good, "err": ""})) is None
    assert oracle.check(_record(hilbert, {"code": 0, "out": bad, "err": ""}))

    fibers = {"kind": "fibers", "p": [0, 1], "q": [1]}  # y^2 = x(x - t)(x - 1)
    table = "t-1 : I_2\nt : I_2\ninfinity : I_2*\neuler number = 12\nchi = 1\n"
    assert oracle.check(_record(fibers, {"code": 0, "out": table, "err": ""})) is None
    swapped = table.replace("t : I_2", "t : I_3")
    assert oracle.check(_record(fibers, {"code": 0, "out": swapped, "err": ""}))

    residues = {"kind": "residues", "symbols": [["t", "3"]]}
    out = "t : class 3\ninfinity : class 3\nunramified over the projective line = no\n"
    assert oracle.check(_record(residues, {"code": 1, "out": out, "err": ""})) is None
    assert oracle.check(_record(residues, {"code": 0, "out": out, "err": ""}))


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    line = json.loads(proc.stdout.splitlines()[-1])
    saved = json.loads(
        (ROOT / ".perfbench" / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    return line, saved


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run(workload):
    line, _ = _run(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["failed"] == 0 and line["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload):
    line, saved = _run(workload, 1)
    assert line["failed"] == 0 and line["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    # Self times telescope to the wall time of the root spans.
    worker = saved["worker"]
    assert worker["self_ns_total"] == worker["root_ns_total"] > 0
