#!/usr/bin/env python3
"""pegkit benchmark: seeded closed-loop workloads with checked results.

    python3 perfbench/run.py --workload parse-large --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; pegkit is imported from the
checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` installs span wrappers around pegkit's modules and reports
the per-layer metrics, the GC / input-size probe and the memo-size
calibration.  The untraced times are scaled to the reference machine's
speed by a pegkit-free kernel timed around each block of operations (see
``perfbench/speed.py``).  Every metric is printed with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
every mismatch, the spans of a traced run) is written to
``perfbench/out/``.

``perfbench/README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("parse-large", "parse-small", "check")
END_TO_END_UNITS = {
    "setup_s": "s",
    "chars_per_s": "chars/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "check_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "gc_threshold": list(gc.get_threshold()),
        "seed": seed,
    }


def setup_once(grammars) -> float:
    """Set-up time in a fresh interpreter (see setup_child.py)."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC), *grammars]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def side_check_once(workload, tally, speed) -> tuple[float, float]:
    """``run_check`` over a parse workload's own grammars: its wall time
    and its reference-speed time."""
    from pegkit import diffcheck
    from perfbench.workloads import check_report, expected_inputs

    entries = [workload.registry[name] for name in workload.grammars]
    cfg = workload.side_check()
    gc.collect()
    speed.mark()
    start = time.perf_counter()
    report = diffcheck.run_check(entries, cfg)
    elapsed = time.perf_counter() - start
    factor = speed.factor()
    errors, _ = check_report(report, entries, cfg, lambda e: expected_inputs(e, cfg))
    tally.add(errors)
    return elapsed, elapsed * factor


def time_metrics(latency, chars, checks, is_check) -> dict[str, float]:
    return {
        "chars_per_s": sum(chars) / sum(latency),
        "latency_p50_ms": percentile(latency, 0.5) * 1e3,
        "latency_p99_ms": percentile(latency, 0.99) * 1e3,
        "check_s": statistics.median(latency if is_check else checks),
    }


def untraced_run(workload, scale, seconds: float, tally):
    """Whole passes over the workload's items, back to back, until
    ``seconds`` have passed (at least two passes).

    The speed kernel (see speed.py) is timed around every block of
    ``workload.ops_per_speed_sample`` operations, and the block's times
    are scaled by it to reference-speed time.  An item's latency is the
    median of its scaled times over the passes, and the percentiles are
    over items.  The side measurements (fresh-interpreter set-up, and
    ``check_s`` on the parse workloads) are spread evenly over the run.
    The unscaled wall-clock figures are kept in the record as
    ``info.wall_clock``."""
    from perfbench.speed import Speed
    from perfbench.workloads import Check, run_checked

    is_check = isinstance(workload, Check)
    count = len(workload.items)
    times: list[list[float]] = [[] for _ in range(count)]
    walls: list[list[float]] = [[] for _ in range(count)]
    chars = [0] * count
    setups: list[float] = []
    checks: list[float] = []
    wall_checks: list[float] = []
    samples = scale.side_samples
    speed = Speed()
    start = time.perf_counter()
    due = [start + k * seconds / samples for k in range(samples)]

    pending: list[tuple[int, float]] = []

    def close_block() -> None:
        factor = speed.factor()
        for j, elapsed in pending:
            walls[j].append(elapsed)
            times[j].append(elapsed * factor)
        pending.clear()

    def side_sample() -> None:
        if pending:
            close_block()
        setups.append(setup_once(workload.grammars))
        if not is_check:
            wall, scaled = side_check_once(workload, tally, speed)
            wall_checks.append(wall)
            checks.append(scaled)
        else:
            speed.mark()  # the next block's "before" sample

    passes = 0
    while True:
        for j, item in enumerate(workload.items):
            if len(setups) < samples and time.perf_counter() >= due[len(setups)]:
                side_sample()
            if workload.collect_before_op:
                gc.collect()
            t0 = time.perf_counter()
            n, errors = run_checked(workload, item)
            pending.append((j, time.perf_counter() - t0))
            if len(pending) == workload.ops_per_speed_sample:
                close_block()
            chars[j] = n
            tally.add(errors)
        passes += 1
        if time.perf_counter() - start >= seconds and passes >= 2:
            break
    if pending:
        close_block()
    while len(setups) < samples:
        side_sample()

    latency = [statistics.median(t) for t in times]
    wall_latency = [statistics.median(t) for t in walls]
    m = {
        "setup_s": statistics.median(setups),
        **time_metrics(latency, chars, checks, is_check),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "distinct_items": count,
        "passes": passes,
        "side_samples": samples,
        **speed.summary(),
        "wall_clock": time_metrics(wall_latency, chars, wall_checks, is_check),
    }
    return m, dict(END_TO_END_UNITS), info, []


def traced_full_run(workload, scale, tally):
    from perfbench import traced

    count = scale.traced_ops[workload.name]
    m, units, info, spans = traced.traced_run(workload, count, tally)
    for name, value in traced.setup_layers(workload.grammars, scale.side_samples).items():
        m[name], units[name] = value, "s"
    lexed = workload.registry["arith_lexed"]
    probe = traced.size_probe(workload.seed, scale.probe_sizes, lexed.grammar,
                              lexed.evaluator, tally)
    for name, value in probe.items():
        m[name] = value
        units[name] = ("us/char" if name.startswith("engine.")
                       else "s" if name.startswith("gc.pause_s") else "count")
    m["engine.memo_bytes_actual_over_estimate"] = traced.memo_calibration(
        workload.seed, scale.calibrate_chars, lexed.grammar
    )
    units["engine.memo_bytes_actual_over_estimate"] = "ratio"
    info["operations_traced"] = count
    return m, units, info, spans


def run(workload_name: str, seed: int, seconds: float, trace: int,
        scale=None, corrupt: bool = False) -> dict:
    """One benchmark run; returns the result record (nothing printed)."""
    from perfbench.workloads import FULL, WORKLOADS, Tally

    scale = scale or FULL
    env = environment(seed)
    workload = WORKLOADS[workload_name](seed, scale, corrupt)
    tally = Tally()
    start = time.perf_counter()
    if trace:
        m, units, info, spans = traced_full_run(workload, scale, tally)
    else:
        m, units, info, spans = untraced_run(workload, scale, seconds, tally)
    info["wall_s"] = time.perf_counter() - start
    info.update(workload.shares)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m[name], "unit": units[name]} for name in m},
        "error_rate": tally.failed / tally.attempted,
        "errors": tally.messages,
        "environment": env,
        "workload": workload_name,
        "trace": trace,
        "info": info,
        "spans": spans,
    }


def report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  trace={result['trace']}  env {json.dumps(env)}")
    for key, value in result["info"].items():
        print(f"  info {key} = {value}")
    for message in result["errors"][:20]:
        print(f"  MISMATCH {message}")
    if len(result["errors"]) > 20:
        print(f"  ... {len(result['errors']) - 20} more mismatches (see the out file)")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {result['error_rate']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{env['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"record written to {path.relative_to(ROOT)}")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "pegkit" / "__init__.py").is_file():
        print(f"error: no pegkit sources under {SRC}; run inside a pegkit checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pegkit

    if Path(pegkit.__file__).resolve().parent != SRC / "pegkit":
        print(f"error: imported pegkit from {pegkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report(run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
