"""ellbrauer benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: set-up time over fresh
interpreters, then a timed closed-loop run of the workload in a fresh
worker process, untraced.  --trace 1 runs the workload traced in a fresh
worker and reports per-layer metrics instead.  Either way every operation's
output is checked after the run, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A readable
summary with sample counts, raw wall times and fail_rate goes to stderr,
and the full record, with the commit and Python version, to .perfbench/
in the checkout.

Times are scaled by a calibration kernel timed next to them (see
worker.py), so that drift in the speed of a shared machine cancels out.

The program is imported from src/ of the checkout that holds this file,
with PYTHONPATH, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import REFERENCE_KERNEL_NS, calibrate, division_kernel  # noqa: E402

SETUP_RUNS = 9
SETUP_SNIPPET = """
import pathlib, sys
import ellbrauer, ellbrauer.cli
src = pathlib.Path(sys.argv[1]).resolve()
if not pathlib.Path(ellbrauer.__file__).resolve().is_relative_to(src):
    sys.exit(f"ellbrauer imported from {ellbrauer.__file__}, not {src}")
ellbrauer.cli.build_parser()
ellbrauer.reference_class()
"""

UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def identity(root: Path) -> dict:
    """Which code is measured: git commit if any, digest of src/, Python."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
    }


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """(scaled, wall) seconds of fresh interpreters paying the CLI's set-up.

    They run one at a time, each between two timings of the division
    kernel, whose slowdown on a loaded machine tracks that of interpreter
    start-up.  The first, untimed run writes the bytecode cache, as any
    first use does.
    """
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(root / "src")]
    samples = []
    for i in range(SETUP_RUNS + 1):
        before = calibrate(division_kernel)
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            cmd, cwd=root, env=_env(root), capture_output=True, text=True,
            timeout=60, check=False,
        )
        wall = time.perf_counter_ns() - t0
        kernel = (before + calibrate(division_kernel)) / 2
        if proc.returncode != 0:
            raise SystemExit(f"set-up run failed: {proc.stderr.strip()}")
        if i:
            samples.append((wall * REFERENCE_KERNEL_NS / kernel / 1e9, wall / 1e9))
    return samples


def run_worker(root: Path, args: argparse.Namespace, spans: Path | None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd, cwd=root, env=_env(root), capture_output=True, text=True,
        timeout=160, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def p90_nearest_rank(values: list[float]) -> tuple[float, int]:
    """90th percentile by nearest rank, and how many samples lie above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def latency_metrics(times_ms: list[float]) -> tuple[float, float, float, int]:
    """ops_per_s, op_p50_ms, op_p90_ms and the samples above the p90."""
    p90, above = p90_nearest_rank(times_ms)
    return len(times_ms) / (sum(times_ms) / 1e3), statistics.median(times_ms), p90, above


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, their unscaled values and their sample counts."""
    records = result["records"]
    scaled = latency_metrics([r["scaled_ns"] / 1e6 for r in records])
    wall = latency_metrics([r["wall_ns"] / 1e6 for r in records])
    names = ("ops_per_s", "op_p50_ms", "op_p90_ms")
    metrics = dict(zip(names, scaled))
    raw = dict(zip(names, wall))
    metrics["setup_s"] = statistics.median(s for s, _ in setup)
    raw["setup_s"] = statistics.median(w for _, w in setup)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = result["maxrss_kib"] / 1024
    n = len(records)
    samples = {
        "ops_per_s": f"{n} ops",
        "op_p50_ms": f"{n} ops",
        "op_p90_ms": f"{n} ops, {scaled[3]} above",
        "setup_s": f"median of {len(setup)} interpreters",
        "peak_rss_mb": "1 worker process",
    }
    return metrics, raw, samples


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(".max_s"):
        return "s"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ellbrauer" / "__init__.py").is_file():
        print(f"error: no ellbrauer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    ident = identity(ROOT)
    if args.trace:
        result = run_worker(ROOT, args, out_dir / f"spans-{args.workload}.tsv")
    else:
        setup = measure_setup(ROOT)
        result = run_worker(ROOT, args, None)
    records = result["records"]

    import oracle  # sympy loads only after the measured processes have ended

    failures = []
    for index, record in enumerate(records):
        reason = oracle.check(record)
        if reason is not None:
            failures.append({"index": index, "op": record["op"], "reason": reason})

    if args.trace:
        values = result["layers"]
        raw = {}
        units = {name: _layer_unit(name) for name in values}
        samples = {name: f"{len(records)} ops traced" for name in values}
    else:
        values, raw, samples = end_to_end(result, setup)
        units = UNITS
    attempted = len(records)
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }

    print(
        f"# {args.workload} seed {args.seed} trace {args.trace}: "
        f"commit {ident['commit']} src {ident['src_sha256'][:12]} "
        f"python {ident['python']}",
        file=sys.stderr,
    )
    for name, value in values.items():
        unscaled = f", unscaled {raw[name]:.6g}" if name in raw else ""
        print(f"{name:48s} {value:14.6g} {units[name]:9s} ({samples[name]}{unscaled})",
              file=sys.stderr)
    print(f"{'fail_rate':48s} {len(failures) / attempted:14.6g} ratio     "
          f"({len(failures)} of {attempted} ops)", file=sys.stderr)
    for failure in failures[:5]:
        print(f"FAILED op {failure['index']}: {failure['reason']}", file=sys.stderr)

    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "identity": ident,
        "args": vars(args),
        "result": line,
        "unscaled": raw,
        "samples": samples,
        "failures": failures,
        "ops": [
            {k: r[k] for k in ("wall_ns", "cal_ns", "scaled_ns")} for r in records
        ],
        "worker": {k: v for k, v in result.items() if k not in ("records", "layers")},
    }, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
