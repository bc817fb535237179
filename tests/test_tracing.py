"""The benchmark's tracer binds into pegkit's modules and restores them,
and the benchmark's self-test passes."""

from __future__ import annotations

import gc
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pegkit import diffcheck, engine, oracles  # noqa: E402
from perfbench import tracing  # noqa: E402


def test_install_binds_every_name_and_restore_puts_it_back():
    # install looks up each pegkit name it wraps, so a renamed one fails
    # here rather than only in a benchmark run
    modules = (engine, oracles, diffcheck)
    before = [dict(vars(m)) for m in modules]
    callbacks = list(gc.callbacks)
    installed = tracing.install(tracing.Tracer())
    try:
        assert engine.run_deep is not before[0]["run_deep"]
        assert diffcheck.ParseSession is not before[2]["ParseSession"]
    finally:
        installed.restore()
    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys()
        assert [k for k, v in saved.items() if now[k] is not v] == []
    assert gc.callbacks == callbacks


def test_the_benchmark_self_test_passes():
    # every workload, untraced and traced, at tiny sizes: a library change
    # that breaks the traced pass or drops a metric fails here
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-test passed" in run.stdout.splitlines()
