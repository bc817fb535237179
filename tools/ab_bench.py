"""Alternating A/B runs of the benchmark: a parent checkout against this one.

    python3 tools/ab_bench.py PARENT_DIR OUT.json [--claim check:chars_per_s]
        [--traced check:7,parse-large:1611] [--what TEXT] [--parent-commit REV]

``PARENT_DIR`` holds a checkout of the commit to compare against (made
with ``git archive`` or ``git clone``); the other side is the checkout
this script belongs to, as its files stand.  For each workload of
``BENCHMARK.json``, in its order, pair ``i`` of ten runs

    python3 perfbench/run.py --workload W --seed 2901+i --seconds S --trace 0

in both directories, ``S`` being ``BENCHMARK.json``'s ``run_seconds``,
the parent first on even ``i`` and this checkout first on odd ones,
with ``PYTHONDONTWRITEBYTECODE=1`` so that neither run leaves bytecode
in a checkout.  ``--traced W:SEED`` adds one traced run
(``--trace 1``, 5 s) per side of that workload, whose exact per-operation
counters go in the output too.

``OUT.json`` has the layout of the repository's ``BENCH_*.json`` files:
per workload and per end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles and its runs, the pairs the change won, the
median change in percent and the parent's interquartile range, and the
operations attempted and failed on each side.  A ``--claim`` is judged
as the benchmark's gate judges a claimed gain: the change wins at least
nine of ten pairs and its median gain exceeds the parent's IQR.

Each run is a process group of its own, killed if this script stops
before it ends.  The script exits 1, writing nothing, as soon as a run
fails, times out or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import percentile  # noqa: E402

PAIRS = 10
SEED_BASE = 2901
TRACED_SECONDS = 5
#: a run may take this long past ten times its measured seconds
RUN_GRACE_S = 600

#: the exact per-operation counters and layer times of a traced run
TRACED_KEYS = (
    "engine.parse_s", "engine.cells_evaluated", "engine.expr_steps",
    "engine.expr_steps_per_char", "oracles.naive_s", "oracles.naive_calls",
    "oracles.naive_parse_calls", "oracles.tabular_s", "oracles.tabular_cells",
    "oracles.tabular_parse_calls", "oracles.cfg_s", "oracles.cfg_end_table_calls",
    "diffcheck.self_s", "diffcheck.inputs", "diffcheck.cells", "trace.root_s",
)


class RunFailed(Exception):
    """A benchmark run that exited with an error or reported an incorrect
    result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``perfbench/run.py``
    computes percentiles."""
    if not values:
        raise ValueError("no values")
    return percentile(values, 0.25), percentile(values, 0.5), percentile(values, 0.75)


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better; pair ``i`` is
    ``(parent[i], change[i])``."""
    if len(parent) != len(change):
        raise ValueError("unpaired runs")
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")


def _r(x: float) -> float:
    return round(x, 6)


def metric_summary(parent: list[float], change: list[float], better: str, unit: str) -> dict:
    """One metric of one workload, as a ``BENCH_*.json`` file records it."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pct = (cmed - pmed) / pmed * 100 if pmed else 0.0
    return {
        "parent": {"median": _r(pmed), "q1": _r(pq1), "q3": _r(pq3)},
        "change": {"median": _r(cmed), "q1": _r(cq1), "q3": _r(cq3)},
        "unit": unit,
        "change_wins": f"{change_wins(parent, change, better)}/{len(parent)}",
        "median_change_pct": round(pct, 1),
        "parent_iqr": _r(pq3 - pq1),
        "parent_runs": [_r(x) for x in parent],
        "change_runs": [_r(x) for x in change],
    }


def claim_met(summary: dict, better: str) -> bool:
    """The gate on a claimed gain: the change wins at least nine pairs in
    ten, and its median beats the parent's by more than the parent's
    interquartile range."""
    won, pairs = map(int, summary["change_wins"].split("/"))
    gain = summary["change"]["median"] - summary["parent"]["median"]
    if better == "lower":
        gain = -gain
    return won * 10 >= pairs * 9 and gain > summary["parent_iqr"]


def parent_first(pair: int) -> bool:
    """Whether pair ``pair`` runs the parent first: on even pairs."""
    return pair % 2 == 0


def workload_summary(seeds: list[int], runs: dict[str, list[dict]],
                     end_to_end: list[dict]) -> dict:
    """A workload's entry from its runs, ``runs[side][i]`` being the last
    JSON line of ``perfbench/run.py`` for pair ``i``."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in ("parent", "change")}
        metrics[name] = metric_summary(values["parent"], values["change"],
                                       spec["better"], spec["unit"])
    return {
        "seeds": seeds,
        "runs_per_side": len(seeds),
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "metrics": metrics,
    }


def notes(end_to_end: dict, specs: list[dict], claims: list[tuple[str, str]]) -> list[str]:
    """One line per workload with every metric's move, then one line per
    claimed gain."""
    better = {spec["name"]: spec["better"] for spec in specs}
    lines = []
    for workload, entry in end_to_end.items():
        moves = [
            f"{name} {m['parent']['median']} -> {m['change']['median']} "
            f"({m['median_change_pct']:+.1f}%, change better in {m['change_wins']} pairs, "
            f"parent IQR {m['parent_iqr']})"
            for name, m in entry["metrics"].items()
        ]
        lines.append(f"{workload}: " + "; ".join(moves))
        failed = entry["failed_ops"]
        if any(failed.values()):
            lines.append(f"{workload}: failed operations {failed}")
    for workload, metric in claims:
        m = end_to_end[workload]["metrics"][metric]
        verdict = "met" if claim_met(m, better[metric]) else "NOT met"
        lines.append(
            f"claimed gain {verdict}: {workload} {metric} is better in {m['change_wins']} "
            f"pairs, median {m['parent']['median']} -> {m['change']['median']} "
            f"({m['median_change_pct']:+.1f}%), parent IQR {m['parent_iqr']}"
        )
    return lines


def run_once(directory: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``directory``: its last line of
    output, the JSON summary.  Raises RunFailed on an error exit or an
    incorrect result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # each side imports pegkit from its own src/
    where = f"{directory}: {' '.join(cmd[1:])}"
    timeout = 10 * seconds + RUN_GRACE_S
    proc = subprocess.Popen(cmd, cwd=directory, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{where} timed out after {timeout:g} s") from None
    finally:
        if proc.poll() is None:  # stopped early: take its children too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"{where} exited {proc.returncode}\n{err[-2000:]}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{where} printed no JSON summary") from None
    if not result["correct"] or result["failed"]:
        raise RunFailed(f"{where}: {result['failed']} of {result['attempted']} "
                        f"operations incorrect")
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _pairs_of(text: str) -> list[tuple[str, str]]:
    return [tuple(item.split(":", 1)) for item in text.split(",") if item]


def main(argv=None, run=run_once) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--claim", default="", help="WORKLOAD:METRIC,... claimed gains")
    ap.add_argument("--traced", default="", help="WORKLOAD:SEED,... traced runs")
    ap.add_argument("--what", default="")
    ap.add_argument("--parent-commit", default="")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    claims = _pairs_of(args.claim)
    specs = bench["end_to_end"]
    if not (args.parent_dir / "perfbench" / "run.py").is_file():
        ap.error(f"no perfbench/run.py under {args.parent_dir}")
    for workload, metric in claims:
        if workload not in workloads or metric not in {s["name"] for s in specs}:
            ap.error(f"claim {workload}:{metric} names no measured workload and metric")
    dirs = {"parent": args.parent_dir.resolve(), "change": ROOT}
    try:
        end_to_end = {}
        for workload in workloads:
            seeds = [SEED_BASE + i for i in range(PAIRS)]
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if parent_first(i) else ("change", "parent")
                for side in order:
                    runs[side].append(run(dirs[side], workload, seed, seconds, 0))
                    print(f"{workload} seed {seed} {side}: chars_per_s "
                          f"{runs[side][-1]['metrics']['chars_per_s']['value']:.1f}",
                          flush=True)
            end_to_end[workload] = workload_summary(seeds, runs, specs)
        traced = {"note": f"one run per side, {TRACED_SECONDS} s each; the exact "
                          "counters are per operation; times are traced wall clock"}
        for workload, seed in _pairs_of(args.traced):
            entry = {"command": f"python3 perfbench/run.py --workload {workload} "
                                f"--seed {seed} --seconds {TRACED_SECONDS} --trace 1"}
            for side in ("parent", "change"):
                got = run(dirs[side], workload, int(seed), TRACED_SECONDS, 1)["metrics"]
                entry[side] = {k: _r(got[k]["value"]) for k in TRACED_KEYS if k in got}
            traced[workload] = entry
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "what": args.what,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "run_seconds": seconds,
        "pairs": "one pair per seed: parent then change on even-indexed seeds, change "
                 f"then parent on odd ones; workloads run in the order {', '.join(workloads)}; "
                 "PYTHONDONTWRITEBYTECODE=1 on both sides",
        "sides": {"parent": f"commit {args.parent_commit}" if args.parent_commit
                  else str(dirs["parent"]), "change": "this change"},
        "environment": {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                        "cpu": cpu_model()},
        "end_to_end": end_to_end,
        "traced_per_op": traced,
        "notes": notes(end_to_end, specs, claims),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in record["notes"]:
        print(line)
    return 0


if __name__ == "__main__":
    # a terminated script unwinds, so run_once kills the run in progress
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
