"""In-process span tracer for the traced benchmark run.

Spans are recorded around calls into pegkit's modules by rebinding the
module attributes those calls go through (see :func:`install`); pegkit's
source is not touched.  The tracer keeps a calling-context tree in memory:
calls with the same name under the same parent record are merged into one
record holding the call count, the first start, the last end, the summed
duration and the summed self time (duration minus the part covered by
child spans).  Each root (one benchmark operation) gets a fresh record
and its own trace id, so per-operation trees stay separate while hot leaf
calls (~28 K ``render_expr`` calls per large input) cost one
record per calling context instead of one per call.

Only one thread runs traced code at a time: ``run_deep`` starts a worker
while its caller waits in ``join``, so one global stack of open spans
serves both threads.

CPython's collector is traced as the layer ``gc``: each collection becomes
a child span of whatever span is open when it starts.
"""

from __future__ import annotations

import gc
import time
from collections import Counter

_perf = time.perf_counter

# record fields
NAME, PARENT, TRACE, FIRST, LAST, CALLS, TOTAL, SELF = range(8)


class Tracer:
    def __init__(self) -> None:
        self.records: list[list] = []
        self._index: dict[tuple[int, str], int] = {}
        self._stack: list[list] = []  # [record index, start, covered]
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    # -- spans -------------------------------------------------------------

    def _record(self, name: str, parent: int | None, trace: int) -> int:
        self.records.append([name, parent, trace, None, 0.0, 0, 0.0, 0.0])
        return len(self.records) - 1

    def enter(self, name: str) -> None:
        stack = self._stack
        parent = stack[-1][0]
        key = (parent, name)
        idx = self._index.get(key)
        if idx is None:
            idx = self._record(name, parent, self.records[parent][TRACE])
            self._index[key] = idx
        stack.append([idx, _perf(), 0.0])

    def exit(self) -> None:
        end = _perf()
        idx, start, covered = self._stack.pop()
        dur = end - start
        rec = self.records[idx]
        if rec[FIRST] is None:
            rec[FIRST] = start
        rec[LAST] = end
        rec[CALLS] += 1
        rec[TOTAL] += dur
        rec[SELF] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    def root(self, name: str, trace: int) -> "_Root":
        return _Root(self, name, trace)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, *args)``, when given, then
        updates the counters outside the span."""
        enter, leave = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if count is not None:
                count(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- gc ----------------------------------------------------------------

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _perf()
            return
        end = _perf()
        dur = end - self._gc_start
        self.gc_pause_s += dur
        if info.get("generation") == 2:
            self.gc_gen2 += 1
        if not self._stack:
            return
        frame = self._stack[-1]
        key = (frame[0], "gc.collect")
        idx = self._index.get(key)
        if idx is None:
            idx = self._record("gc.collect", frame[0], self.records[frame[0]][TRACE])
            self._index[key] = idx
        rec = self.records[idx]
        if rec[FIRST] is None:
            rec[FIRST] = self._gc_start
        rec[LAST] = end
        rec[CALLS] += 1
        rec[TOTAL] += dur
        rec[SELF] += dur
        frame[2] += dur

    # -- summaries ---------------------------------------------------------

    def roots(self) -> list[list]:
        return [r for r in self.records if r[PARENT] is None]

    def by_name(self, field: int) -> Counter[str]:
        out: Counter[str] = Counter()
        for rec in self.records:
            out[rec[NAME]] += rec[field]
        return out

    def self_by_layer(self) -> Counter[str]:
        out: Counter[str] = Counter()
        for rec in self.records:
            out[rec[NAME].split(".", 1)[0]] += rec[SELF]
        return out

    def dump(self) -> list[dict]:
        keys = ("name", "parent", "trace", "start", "end", "calls", "total_s", "self_s")
        return [dict(zip(keys, rec)) for rec in self.records]


class _Root:
    def __init__(self, tracer: Tracer, name: str, trace: int):
        self.tracer = tracer
        self.name = name
        self.trace = trace

    def __enter__(self):
        t = self.tracer
        if t._stack:
            raise RuntimeError("root span opened inside another span")
        idx = t._record(self.name, None, self.trace)
        t._stack.append([idx, _perf(), 0.0])
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


class Installed:
    """Wrappers bound into pegkit's modules plus the tracer's gc callback;
    :meth:`restore` undoes both."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._gc_callbacks: list = []

    def bind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def add_gc_callback(self, callback) -> None:
        gc.callbacks.append(callback)
        self._gc_callbacks.append(callback)

    def restore(self) -> None:
        for callback in self._gc_callbacks:
            gc.callbacks.remove(callback)
        self._gc_callbacks.clear()
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def install(tracer: Tracer) -> Installed:
    """Rebind the pegkit attributes through which the workloads reach each
    layer, so that every call leaves a span in ``tracer``.

    * ``notation``: ``engine.render_expr`` (labels built by ``_fail_expr``).
    * ``grammar``: ``engine.validation_errors`` (every session) and
      ``oracles.validation_errors`` (every oracle call).
    * ``engine``: ``engine.new_session``, ``engine.parse_complete``,
      ``engine.run_deep``, ``engine.stats``; inside ``run_check`` the
      sessions and counters it makes (``diffcheck.ParseSession``,
      ``diffcheck.stats``).
    * ``catalog``: the evaluator that ``run_deep`` runs.
    * ``oracles``: the names ``diffcheck`` imports.
    * ``diffcheck``: ``diffcheck.run_check``.
    """
    from pegkit import diffcheck, engine, oracles

    inst = Installed()
    wrap = tracer.wrap
    counters = tracer.counters
    maxima = tracer.maxima

    inst.bind(engine, "render_expr", wrap("notation.render_expr", engine.render_expr))
    validate = wrap("grammar.validate", engine.validation_errors)
    inst.bind(engine, "validation_errors", validate)
    inst.bind(oracles, "validation_errors", validate)

    inst.bind(engine, "new_session", wrap("engine.session_init", engine.new_session))
    inst.bind(engine, "parse_complete", wrap("engine.parse", engine.parse_complete))

    inline_parse = engine._parse_complete_inline
    run_deep = engine.run_deep
    enter, leave = tracer.enter, tracer.exit

    def traced_run_deep(fn, *args, **kwargs):
        # The inner span is the work handed to the worker; the run_deep
        # span's self time is then the thread hand-off alone.
        inner = "engine.parse" if fn is inline_parse else "catalog.eval"

        def body(*a, **k):
            enter(inner)
            try:
                return fn(*a, **k)
            finally:
                leave()

        enter("engine.run_deep")
        try:
            return run_deep(body, *args, **kwargs)
        finally:
            leave()

    inst.bind(engine, "run_deep", traced_run_deep)

    def count_stats(st, session):
        counters["engine.cells_evaluated"] += st.cells_evaluated
        counters["engine.char_cells"] += st.char_cells_evaluated
        counters["engine.expr_steps"] += st.expr_steps
        counters["engine.memo_bytes_estimate"] += st.memo_bytes_estimate
        counters["engine.stats_chars"] += len(session.text)
        maxima["engine.max_active_depth"] = max(
            maxima.get("engine.max_active_depth", 0), st.max_active_depth
        )

    inst.bind(engine, "stats", wrap("engine.stats", engine.stats, count_stats))
    inst.bind(diffcheck, "stats", wrap("engine.stats", diffcheck.stats, count_stats))

    class TracedSession(engine.ParseSession):
        """Sessions made by ``run_check``: the constructor is session set-up
        and each outermost ``apply`` is engine parse work."""

        def __init__(self, *args, **kwargs):
            enter("engine.session_init")
            try:
                super().__init__(*args, **kwargs)
            finally:
                leave()
            self._bench_outer = True

        def apply(self, rule, pos):
            if not self._bench_outer:
                return super().apply(rule, pos)
            self._bench_outer = False
            enter("engine.parse")
            try:
                return super().apply(rule, pos)
            finally:
                leave()
                self._bench_outer = True

    inst.bind(diffcheck, "ParseSession", TracedSession)

    def count_naive(report, *_):
        counters["oracles.naive_calls"] += report.calls

    def count_tabular(matrix, *_):
        counters["oracles.tabular_cells"] += matrix.cells_filled

    def count_check(report, *_):
        counters["diffcheck.inputs"] += sum(r.inputs for r in report.results)
        counters["diffcheck.cells"] += sum(r.cells for r in report.results)

    inst.bind(diffcheck, "naive_parse",
              wrap("oracles.naive", diffcheck.naive_parse, count_naive))
    inst.bind(diffcheck, "tabular_parse",
              wrap("oracles.tabular", diffcheck.tabular_parse, count_tabular))
    inst.bind(diffcheck, "cfg_end_table", wrap("oracles.cfg", diffcheck.cfg_end_table))
    inst.bind(diffcheck, "run_check",
              wrap("diffcheck.run_check", diffcheck.run_check, count_check))

    inst.add_gc_callback(tracer.gc_callback)
    return inst
