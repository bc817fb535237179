#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the run is
correct and prints every metric ``BENCHMARK.json`` names, each with a
unit; then that a deliberately corrupted reference value is counted as a
failed operation, so the reference check cannot go silently dead.  Exits
non-zero on the first violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.workloads import TINY  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = bench.run(workload, seed=7, seconds=0.5, trace=trace, scale=TINY)
            where = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: not correct: {result['errors'][:3]}")
            metrics = result["metrics"]
            for name in wanted[trace]:
                metric = metrics.get(name)
                if metric is None:
                    problems.append(f"{where}: metric {name} missing")
                elif not metric.get("unit"):
                    problems.append(f"{where}: metric {name} has no unit")
            print(f"{where}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")
        corrupted = bench.run(workload, seed=7, seconds=0.5, trace=0, scale=TINY,
                              corrupt=True)
        if corrupted["failed"] < 1 or corrupted["correct"] or corrupted["error_rate"] <= 0:
            problems.append(f"{workload}: corrupted reference not counted as an error")
        else:
            print(f"{workload} corrupted: error_rate {corrupted['error_rate']:.3g} "
                  f"({corrupted['errors'][0][:80]})")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
