"""Run one workload in a fresh interpreter and report per-operation results.

Usage: python3 perfbench/worker.py --root DIR --workload NAME --seed N
       --seconds S --trace 0|1 [--spans FILE]

The worker imports ellbrauer from DIR/src and refuses to run if the import
resolves anywhere else.  It runs a closed loop with a single client: the
next operation starts when the previous one returns.  The loop stops at
the first round boundary after S seconds once MIN_OPS operations have
completed, and at the first round boundary after HARD_CAP_S seconds in
any case.  Every operation has a wall budget of OP_BUDGET_S seconds.

The machine this runs on may be shared, and then its speed can drift by
half within a minute.  So the loop also times a fixed calibration kernel
(KERNELS) between operations, at least every CALIBRATE_EVERY_S seconds,
and each operation carries the mean of the kernel times just before and
just after it.  Its scaled time is its wall time on a machine where the
kernel takes REFERENCE_KERNEL_NS.

With --trace 0 nothing is wrapped, and the worker asserts that.  With
--trace 1 the tracer wraps the package, the operations run traced, the
wrappers come off, and the same operations run once more untraced to
measure the tracing overhead.  The worker prints one JSON document; run.py
checks the outputs and computes the metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
HARD_CAP_S = 60.0
OP_BUDGET_S = 10.0
CALIBRATE_EVERY_S = 0.05
REFERENCE_KERNEL_NS = 1_000_000

# Functions reported with .calls and .self_s, by layer (module).
LAYERS = {
    "exactalg": ("poly_factor", "int_factor", "poly_gcd", "divmod", "eval"),
    "funcfield": ("places_of_support", "valuation"),
    "squareclass": ("class_of", "in_span"),
    "hilbert": (
        "hilbert_symbol", "qp_is_square", "is_prime", "legendre",
        "product_formula_check",
    ),
    "residues": ("check_unramified_P1", "tame_symbol"),
    "elliptic": ("classify_surface", "kodaira_type_at", "invariants", "minimalize_at"),
    "descent": ("descent_image", "transcendence_test"),
    "brauer": ("local_points", "evaluate_local", "excluded_parameters"),
    "cli": ("parse_poly",),
}


class OpTimeout(Exception):
    """An operation exceeded its wall budget."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_BUDGET_S} s")


def fraction_kernel() -> None:
    """Exact Fraction arithmetic, the work of polynomial evaluation."""
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)


def division_kernel() -> None:
    """An integer trial-division loop, the work of is_prime and int_factor."""
    n = 1000003 * 1000033
    for d in range(3, 30000, 2):
        if n % d == 0:
            break


# On a loaded machine code slows down by how much it leans on the
# interpreter versus integer arithmetic, so each workload is scaled by the
# kernel that resembles its dominant work.
KERNELS = {
    "reference_sampling": fraction_kernel,
    "custom_fibrations": fraction_kernel,
    "symbol_arithmetic": division_kernel,
}


def calibrate(kernel) -> int:
    """Nanoseconds the kernel takes now: the best of three runs."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        kernel()
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def import_program(root: Path):
    """Import ellbrauer from root/src and check that it came from there."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ellbrauer
    import ellbrauer.cli

    origin = Path(ellbrauer.__file__).resolve()
    if not origin.is_relative_to(src):
        raise SystemExit(
            f"ellbrauer imported from {origin}, not from the checkout {src}"
        )
    return ellbrauer


def _place(eb, p: int):
    return eb.REAL if p == 0 else eb.RationalPlace.prime(p)


def execute(eb, op: dict):
    """Run one operation and return its raw result.

    Every library name is looked up on the package at call time, so the
    tracer's wrappers apply when installed.
    """
    if "argv" in op:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = eb.cli.main(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}
    kind = op["kind"]
    if kind == "vanishing":
        return eb.sample_vanishing(
            eb.reference_class(), _place(eb, op["place"]), op["samples"], op["height"]
        )
    if kind in ("descent_image", "transcendence_test"):
        curve = eb.WeierstrassCurve.from_split(
            eb.Polynomial(op["p"]), eb.Polynomial(op["q"])
        )
        if kind == "transcendence_test":
            return eb.transcendence_test(
                eb.Polynomial(op["f"]), eb.Polynomial(op["g"]), curve, 0
            )
        point = {
            "p": eb.CurvePoint.two_torsion_p,
            "q": eb.CurvePoint.two_torsion_q,
            "origin": eb.CurvePoint.two_torsion_origin,
        }[op["point"]]()
        return eb.descent_image(point, curve, eb.FieldMode.RATIONAL_CONSTANTS)
    if kind == "product":
        return eb.product_formula_check(Fraction(op["a"]), Fraction(op["b"]))
    raise ValueError(f"unknown operation kind {kind!r}")


def _square_class(vec) -> dict:
    return {
        "sign": vec.sign,
        "primes": sorted(vec.primes),
        "polys": sorted([str(c) for c in f.coeffs] for f in vec.polys),
    }


def summarize(op: dict, raw):
    """The JSON-serializable output of an operation, for the checks."""
    if "argv" in op:
        return raw
    kind = op["kind"]
    if kind == "vanishing":
        return {
            "valid": raw.valid,
            "zero": raw.zero_count,
            "nonzero": len(raw.nonzero),
            "skipped": raw.skipped_degenerate,
            "excluded": [str(t) for t in raw.excluded_params],
        }
    if kind == "descent_image":
        return [_square_class(v) for v in raw.as_tuple()]
    if kind == "transcendence_test":
        return raw.verdict.value
    return {
        "symbols": [[str(place), value.sign] for place, value in raw.symbols],
        "product": raw.product,
    }


def run_loop(eb, ops_iter, seconds: float | None, call, kernel) -> list[dict]:
    """Closed loop over ops_iter; call(index, thunk) runs one operation.

    With seconds None the loop runs ops_iter to its end.  Each record
    holds the op, its output or error, wall_ns, cal_ns (kernel time) and
    scaled_ns.
    """
    records: list[dict] = []
    uncalibrated: list[dict] = []  # records still waiting for the next kernel time
    clock = time.perf_counter_ns
    begin = clock()
    calibrated_at = None
    kernel_ns = 0

    def close(after_ns: int) -> None:
        for record in uncalibrated:
            record["cal_ns"] = (record["cal_ns"] + after_ns) / 2
            record["scaled_ns"] = record["wall_ns"] * REFERENCE_KERNEL_NS / record["cal_ns"]
        uncalibrated.clear()

    for index, op in enumerate(ops_iter):
        if seconds is not None and records and op["round"] != records[-1]["op"]["round"]:
            elapsed = (clock() - begin) / 1e9
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(records) >= MIN_OPS):
                break
        if calibrated_at is None or clock() - calibrated_at >= CALIBRATE_EVERY_S * 1e9:
            kernel_ns = calibrate(kernel)
            calibrated_at = clock()
            close(kernel_ns)
        record = {"op": op, "cal_ns": kernel_ns}
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        t0 = clock()
        try:
            raw = call(index, lambda: execute(eb, op))
        except Exception as exc:  # an operation failure is a result, not a crash
            t1 = clock()
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            t1 = clock()
            record["output"] = summarize(op, raw)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        record["wall_ns"] = t1 - t0
        records.append(record)
        uncalibrated.append(record)
    close(calibrate(kernel))
    return records


def layer_metrics(tracer: tracing.Tracer, records: list[dict], replay: list[dict]) -> dict:
    """Per-layer metrics of a traced run; calls and self time are per op.

    Times are scaled like the operations they ran in.
    """
    weights = [REFERENCE_KERNEL_NS / r["cal_ns"] for r in records]
    totals = tracer.layer_totals(weights)
    empty = {"calls": 0, "self_ns": 0, "max_ns": 0}
    ops = len(records)

    def get(name: str) -> dict:
        return totals.get(name, empty)

    out = {}
    for layer, functions in LAYERS.items():
        for function in functions:
            entry = get(f"{layer}.{function}")
            out[f"{layer}.{function}.calls"] = entry["calls"] / ops
            out[f"{layer}.{function}.self_s"] = entry["self_ns"] / 1e9 / ops
    factor = get("exactalg.poly_factor")
    out["exactalg.poly_factor.max_s"] = factor["max_ns"] / 1e9
    out["exactalg.poly_factor.repeat_ratio"] = _ratio(
        tracer.factor_repeats, factor["calls"]
    )
    out["brauer.local_points.accept_ratio"] = _ratio(
        tracer.points_returned,
        tracer.nested_calls("hilbert.qp_is_square", "brauer.local_points"),
    )
    out["brauer.sample_vanishing.degenerate_ratio"] = _ratio(
        tracer.points_degenerate, tracer.points_sampled
    )
    out["cli.main.self_s"] = get("cli.main")["self_ns"] / 1e9 / ops
    out["trace.overhead_ratio"] = _ratio(
        sum(r["scaled_ns"] for r in records), sum(r["scaled_ns"] for r in replay)
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    eb = import_program(args.root)
    # Lazy set-up every CLI invocation pays; setup_s measures it.
    eb.cli.build_parser()
    eb.reference_class()
    signal.signal(signal.SIGALRM, _on_alarm)
    ops = workloads.operations(args.workload, args.seed)
    untraced = lambda index, thunk: thunk()  # noqa: E731
    kernel = KERNELS[args.workload]

    result = {"python": sys.version.split()[0], "origin": eb.__file__}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # Half the time traced, about half replaying untraced.
            records = run_loop(eb, ops, args.seconds / 2, tracer.run_op, kernel)
        finally:
            tracer.uninstall()
        leftover = tracing.installed_wrappers()
        if leftover:
            raise SystemExit(f"wrappers left installed: {leftover}")
        replay = run_loop(eb, [r["op"] for r in records], None, untraced, kernel)
        result["layers"] = layer_metrics(tracer, records, replay)
        result["self_ns_total"] = sum(tracer.self_times())
        result["root_ns_total"] = tracer.root_wall_ns()
        if args.spans is not None:
            tracer.write(args.spans)
    else:
        leftover = tracing.installed_wrappers()
        if leftover:
            raise SystemExit(f"untraced run found wrappers: {leftover}")
        records = run_loop(eb, ops, args.seconds, untraced, kernel)
    result["records"] = records
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
