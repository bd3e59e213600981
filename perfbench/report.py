"""Print every benchmark metric for every workload, by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs perfbench/run.py once per workload, one run at a time, and prints a
table of the end-to-end metrics with their sample counts and fail_rate
(failed ops / attempted ops).  With --trace it also makes the traced run
of each workload and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    for trace in (0, 1) if args.trace else (0,):
        for workload in workloads.WORKLOADS:
            line, summary = run(workload, args.seed, args.seconds, trace)
            print(f"== {workload} ({'traced' if trace else 'untraced'})")
            # run.py's summary names each metric with its value, unit and
            # sample count, fail_rate included.
            print(summary.rstrip())
            print(f"correct = {line['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
