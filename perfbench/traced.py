"""The traced run: per-layer metrics, the GC / size probe and the memo-size
calibration.

The traced run times a fixed number of operations (the first ones of the
workload's seeded sequence) twice each: untraced, then traced.  Counters are
therefore exact for a given seed, and the difference of the two wall
times is the tracing overhead.  Per-layer values are per operation.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import tracemalloc

from pegkit import catalog, engine, notation

from . import inputs, tracing
from .tracing import CALLS, SELF, TOTAL
from .workloads import run_checked

LAYERS = ("bench", "notation", "grammar", "engine", "catalog", "oracles", "diffcheck", "gc")


def _timed_op(workload, item, tally, tracer=None, trace_id=0) -> float:
    """Run one operation, checked; return its seconds."""
    if workload.collect_before_op:
        gc.collect()
    start = time.perf_counter()
    if tracer is None:
        _, errors = run_checked(workload, item)
    else:
        with tracer.root("bench.op", trace_id):
            _, errors = run_checked(workload, item)
    elapsed = time.perf_counter() - start
    tally.add(errors)
    return elapsed


def setup_layers(grammars, repeats: int) -> dict[str, float]:
    """Median in-process cost of ``registry()`` and of loading the
    workload's grammars from their ``.peg`` text."""
    reg, load = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        catalog.registry()
        mid = time.perf_counter()
        for name in grammars:
            notation.load_grammar(catalog.grammar_text(name))
        load.append(time.perf_counter() - mid)
        reg.append(mid - start)
    return {
        "catalog.registry_s": statistics.median(reg),
        "notation.load_grammar_s": statistics.median(load),
    }


def size_probe(seed: int, sizes, grammar, evaluator, tally) -> dict[str, float]:
    """Parse cost per character and GC activity at growing input sizes,
    with the collector at its defaults.  Each value is also checked."""
    out: dict[str, float] = {}
    for size in sizes:
        label = f"n{size // 1000}k"
        text, value = inputs.large_expression(random.Random(f"{seed}:probe:{size}"), size)
        counter = tracing.Tracer()  # no spans open: collector totals only
        gc.callbacks.append(counter.gc_callback)
        try:
            start = time.perf_counter()
            session = engine.new_session(grammar, text)
            node = engine.parse_complete(session)
            elapsed = time.perf_counter() - start
        finally:
            gc.callbacks.remove(counter.gc_callback)
        got = engine.run_deep(evaluator, node, text)
        tally.add([] if got == value else [f"probe {label}: value mismatch"])
        del session, node
        out[f"engine.parse_us_per_char.{label}"] = elapsed / len(text) * 1e6
        out[f"gc.pause_s.{label}"] = counter.gc_pause_s
        out[f"gc.gen2_collections.{label}"] = counter.gc_gen2
    return out


def memo_calibration(seed: int, chars: int, grammar) -> float:
    """Bytes ``tracemalloc`` sees retained by a finished session, over the
    session's ``memo_bytes_estimate``."""
    text, _ = inputs.large_expression(random.Random(f"{seed}:calibrate"), chars)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = engine.new_session(grammar, text)
        engine.parse_complete(session)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return retained / engine.stats(session).memo_bytes_estimate


def traced_run(workload, count: int, tally):
    """Per-layer metrics of the first ``count`` operations.

    Returns (metrics, units, info, span records).
    """
    # Each operation runs untraced and then traced, back to back, so that
    # both timings of a pair see the same machine state.
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for i in range(count):
        item = workload.item(i)
        untraced_s += _timed_op(workload, item, tally)
        installed = tracing.install(tracer)
        try:
            traced_s += _timed_op(workload, item, tally, tracer, i)
        finally:
            installed.restore()

    self_s = tracer.by_name(SELF)
    calls = tracer.by_name(CALLS)
    roots = tracer.roots()
    root_total = sum(r[TOTAL] for r in roots)
    layer_self = tracer.self_by_layer()
    counters = tracer.counters
    stats_chars = counters["engine.stats_chars"] or 1
    k = count

    m: dict[str, float] = {}
    u: dict[str, str] = {}

    def put(name, value, unit):
        m[name] = value
        u[name] = unit

    put("notation.render_expr_calls", calls["notation.render_expr"] / k, "calls/op")
    put("notation.render_expr_s", self_s["notation.render_expr"] / k, "s/op")
    put("grammar.validate_calls", calls["grammar.validate"] / k, "calls/op")
    put("grammar.validate_s", self_s["grammar.validate"] / k, "s/op")
    put("engine.session_init_s", self_s["engine.session_init"] / k, "s/op")
    put("engine.parse_s", self_s["engine.parse"] / k, "s/op")
    put("engine.stats_s", self_s["engine.stats"] / k, "s/op")
    put("engine.deep_handoff_s", self_s["engine.run_deep"] / k, "s/op")
    put("engine.run_deep_calls", calls["engine.run_deep"] / k, "calls/op")
    put("engine.cells_evaluated", counters["engine.cells_evaluated"] / k, "cells/op")
    put("engine.char_cells", counters["engine.char_cells"] / k, "cells/op")
    put("engine.expr_steps", counters["engine.expr_steps"] / k, "steps/op")
    put("engine.max_active_depth", tracer.maxima.get("engine.max_active_depth", 0), "cells")
    put("engine.memo_bytes_estimate", counters["engine.memo_bytes_estimate"] / k, "bytes/op")
    put("engine.cells_per_char", counters["engine.cells_evaluated"] / stats_chars, "cells/char")
    put("engine.expr_steps_per_char", counters["engine.expr_steps"] / stats_chars, "steps/char")
    put("catalog.eval_s", self_s["catalog.eval"] / k, "s/op")
    put("oracles.naive_s", self_s["oracles.naive"] / k, "s/op")
    put("oracles.naive_calls", counters["oracles.naive_calls"] / k, "calls/op")
    put("oracles.naive_parse_calls", calls["oracles.naive"] / k, "calls/op")
    put("oracles.tabular_s", self_s["oracles.tabular"] / k, "s/op")
    put("oracles.tabular_cells", counters["oracles.tabular_cells"] / k, "cells/op")
    put("oracles.tabular_parse_calls", calls["oracles.tabular"] / k, "calls/op")
    put("oracles.cfg_s", self_s["oracles.cfg"] / k, "s/op")
    put("oracles.cfg_end_table_calls", calls["oracles.cfg"] / k, "calls/op")
    put("diffcheck.self_s", self_s["diffcheck.run_check"] / k, "s/op")
    put("diffcheck.inputs", counters["diffcheck.inputs"] / k, "inputs/op")
    put("diffcheck.cells", counters["diffcheck.cells"] / k, "cells/op")
    put("gc.pause_s", tracer.gc_pause_s / k, "s/op")
    put("gc.gen2_collections", tracer.gc_gen2 / k, "count/op")
    for layer in LAYERS:
        put(f"layer_self_s.{layer}", layer_self[layer] / k, "s/op")
    put("trace.root_s", root_total / k, "s/op")
    put("trace.overhead_ratio", traced_s / untraced_s - 1, "ratio")

    # Self times partition the root spans exactly; anything else means a
    # span was left open or a layer is missing from LAYERS.
    unknown = set(layer_self) - set(LAYERS)
    self_sum = sum(layer_self.values())
    problems = []
    if unknown:
        problems.append(f"spans outside the known layers: {sorted(unknown)}")
    if abs(self_sum - root_total) > 1e-6 * root_total:
        problems.append(f"layer self times sum to {self_sum} s, root spans to {root_total} s")
    tally.add(problems)
    info = {"layer_self_sum_s": self_sum, "root_span_sum_s": root_total,
            "untraced_s": untraced_s, "traced_s": traced_s}
    return m, u, info, tracer.dump()
