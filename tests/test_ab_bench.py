"""tools/ab_bench.py: the statistics of alternating A/B benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

# check chars_per_s of BENCH_27.json, pair by pair
PARENT_CPS = [10288.990921, 10446.114566, 10390.139824, 10173.911375, 10375.868709,
              10254.703352, 10458.203605, 10487.74614, 10585.517715, 10501.428562]
CHANGE_CPS = [12864.307539, 12862.2279, 12602.1944, 12621.619595, 12521.691864,
              12800.483163, 12781.230747, 12843.995758, 13024.637351, 12799.7166]


def test_summary_reproduces_a_recorded_bench_file():
    # the file's runs are rounded to 6 places, its statistics were not
    near = lambda x: pytest.approx(x, abs=2e-6)  # noqa: E731
    got = ab_bench.metric_summary(PARENT_CPS, CHANGE_CPS, "higher", "chars/s")
    assert got["parent"] == {"median": near(10418.127195), "q1": near(10310.710368),
                             "q3": near(10480.360506)}
    assert got["change"] == {"median": near(12800.099881), "q1": near(12661.522383),
                             "q3": near(12857.669865)}
    assert got["change_wins"] == "10/10"
    assert got["median_change_pct"] == 22.9
    assert got["parent_iqr"] == near(169.650138)
    assert got["parent_runs"] == PARENT_CPS and got["change_runs"] == CHANGE_CPS
    assert ab_bench.claim_met(got, "higher")


def test_quartiles_interpolate_between_ranks():
    assert ab_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    with pytest.raises(ValueError):
        ab_bench.quartiles([])


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    parent, change = [1.0, 2.0, 3.0], [0.5, 2.0, 4.0]
    assert ab_bench.change_wins(parent, change, "lower") == 1
    assert ab_bench.change_wins(parent, change, "higher") == 1
    with pytest.raises(ValueError):
        ab_bench.change_wins(parent, change[:2], "lower")


def test_a_claim_needs_nine_wins_in_ten_and_a_gain_past_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]  # IQR 4.5
    nine = [p + 6 for p in parent[:9]] + [parent[9] - 1]
    assert ab_bench.claim_met(ab_bench.metric_summary(parent, nine, "higher", "x"), "higher")
    eight = [p + 6 for p in parent[:8]] + [parent[8] - 1, parent[9] - 1]
    assert not ab_bench.claim_met(ab_bench.metric_summary(parent, eight, "higher", "x"), "higher")
    small = [p + 1 for p in parent]  # wins every pair, gain 1 < IQR
    assert not ab_bench.claim_met(ab_bench.metric_summary(parent, small, "higher", "x"), "higher")
    faster = [p - 6 for p in parent]
    assert ab_bench.claim_met(ab_bench.metric_summary(parent, faster, "lower", "x"), "lower")


def canned(value: float, *, correct: bool = True) -> dict:
    metrics = {name: {"value": value, "unit": "u"}
               for name in ("setup_s", "chars_per_s", "latency_p50_ms",
                            "latency_p99_ms", "check_s", "peak_rss_mb")}
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": metrics}


def test_main_alternates_sides_and_writes_the_bench_layout(tmp_path):
    (tmp_path / "parent" / "perfbench").mkdir(parents=True)
    (tmp_path / "parent" / "perfbench" / "run.py").write_text("")
    bench = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    calls = []

    def run(directory, workload, seed, seconds, trace):
        side = "change" if directory == ab_bench.ROOT else "parent"
        calls.append((workload, seed, side, seconds, trace))
        return canned(2.0 if side == "change" else 1.0)

    out = tmp_path / "BENCH.json"
    code = ab_bench.main([str(tmp_path / "parent"), str(out),
                          "--claim", "check:chars_per_s"], run=run)
    assert code == 0
    seconds = bench["run_seconds"]
    assert calls == [
        (w, 2901 + i, side, seconds, 0)
        for w in workloads for i in range(10)
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))
    ]
    record = json.loads(out.read_text())
    assert list(record["end_to_end"]) == workloads
    entry = record["end_to_end"]["check"]
    assert entry["seeds"] == list(range(2901, 2911)) and entry["all_correct"]
    assert entry["attempted_ops"] == {"parent": 100, "change": 100}
    assert entry["failed_ops"] == {"parent": 0, "change": 0}
    assert entry["metrics"]["chars_per_s"]["change_wins"] == "10/10"
    assert entry["metrics"]["check_s"]["change_wins"] == "0/10"
    assert record["notes"][-1].startswith("claimed gain met: check chars_per_s")


@pytest.mark.parametrize("script, why", [
    ('print(\'{"correct": false, "attempted": 10, "failed": 1, "metrics": {}}\')',
     "1 of 10 operations incorrect"),
    ("raise SystemExit(3)", "exited 3"),
])
def test_a_failed_run_stops_the_script_without_output(tmp_path, capsys, script, why):
    # the parent side runs first, here a stand-in for perfbench/run.py
    (tmp_path / "parent" / "perfbench").mkdir(parents=True)
    (tmp_path / "parent" / "perfbench" / "run.py").write_text(script + "\n")
    out = tmp_path / "BENCH.json"
    code = ab_bench.main([str(tmp_path / "parent"), str(out)])
    assert code == 1
    assert not out.exists()
    assert why in capsys.readouterr().err


def test_a_run_past_its_time_is_killed_and_reported(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(ab_bench, "RUN_GRACE_S", 0.5)
    with pytest.raises(ab_bench.RunFailed, match="timed out"):
        ab_bench.run_once(tmp_path, "check", 1, 0.01, 0)
