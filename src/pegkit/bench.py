"""Benchmark plumbing: input families, timed runs, CSV records, summary.

Input families are deterministic functions of a size parameter:

* ``aN_b`` - ``"a" * k + "b"``, the exponential-backtracking family;
* ``repeat-<literal>`` - the literal extended by overlapping repetition
  (``repeat-1+1`` yields ``1+1+1...``: the literal, then its tail
  appended until the requested length is reached);
* ``nested-parens`` - ``k`` opening parentheses, a ``1``, and ``k``
  closing parentheses; the size is the nesting depth.

:func:`run_bench` times one small function per engine and input, which
returns the verdict and counters, and makes each :class:`BenchRecord`;
rows serialize to CSV with a fixed header.  Verdicts are ``accept``,
``reject``, or ``error`` (budget exhaustion, left recursion, depth
limits, or an oracle that rejects the grammar).  Counters that an
engine does not maintain are reported as 0.  :func:`summary` shows the
naive oracle's exponential and packrat's linear growth side by side.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, fields
from functools import partial

from .engine import (
    DepthExceeded,
    EngineConfig,
    LeftRecursion,
    ParseFailed,
    ParseSession,
    parse_complete,
    stats,
)
from .grammar import Grammar
from .oracles import (
    DEFAULT_CALL_BUDGET,
    CallBudgetExceeded,
    SamePositionCycle,
    UnsupportedConstruct,
    naive_parse,
    tabular_parse,
)

ENGINES = ("packrat", "naive", "tabular")


@dataclass(frozen=True, slots=True)
class BenchRecord:
    """One run; the fields, in order, are the CSV columns."""

    grammar: str
    engine: str
    input_len: int
    verdict: str
    cells_evaluated: int
    calls: int
    duration_ns: int
    memo_bytes_estimate: int

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, f.name)) for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def make_input(family: str, size: int) -> str:
    """Deterministic input for a named family at the given size."""
    if size < 0:
        raise ValueError(f"negative size {size}")
    if family == "aN_b":
        return "a" * size + "b"
    if family.startswith("repeat-"):
        literal = family[len("repeat-"):]
        if not literal:
            raise ValueError("repeat- family needs a literal, e.g. repeat-1+1")
        out = [literal]
        length = len(literal)
        tail = literal[1:] if len(literal) > 1 else literal
        while length < size:
            out.append(tail)
            length += len(tail)
        return "".join(out)
    if family == "nested-parens":
        return "(" * size + "1" + ")" * size
    raise ValueError(f"unknown input family {family!r}")


def _int(text: str, piece: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"bad size list piece {piece!r} "
            "(accepted forms: N, A..B, A..B:STEP, A..BxM, comma lists)"
        ) from None


def parse_sizes(spec: str) -> list[int]:
    """Size lists like ``4..14``, ``1000..64000x2``, ``1..9:2``, ``5,10``.

    ``a..b`` steps by 1, ``a..b:s`` by adding ``s``, ``a..bxM`` by
    multiplying by ``M`` from an ``a`` of at least 1; comma-separated
    pieces concatenate.  A bare ``a..b`` that would enumerate more than
    64 sizes becomes a doubling ladder instead, so ``1000..64000`` means
    1000, 2000, ..., 64000.  Anything else raises ValueError naming the
    bad piece.
    """
    sizes: list[int] = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            lo_text, _, rest = piece.partition("..")
            lo = _int(lo_text, piece)
            if "x" in rest:
                hi_text, _, mul_text = rest.partition("x")
                hi, mul = _int(hi_text, piece), _int(mul_text, piece)
                if mul < 2:
                    raise ValueError(f"multiplier must be >= 2 in {piece!r}")
                if lo < 1:  # from 0 or below, multiplying never passes hi
                    raise ValueError(f"start must be >= 1 in {piece!r}")
                k = lo
                while k <= hi:
                    sizes.append(k)
                    k *= mul
            elif ":" in rest:
                hi_text, _, step_text = rest.partition(":")
                hi, step = _int(hi_text, piece), _int(step_text, piece)
                if step < 1:
                    raise ValueError(f"step must be >= 1 in {piece!r}")
                sizes.extend(range(lo, hi + 1, step))
            else:
                hi = _int(rest, piece)
                if hi < lo:
                    raise ValueError(f"descending range {piece!r}")
                if lo >= 1 and hi - lo + 1 > 64:
                    k = lo
                    while k <= hi:
                        sizes.append(k)
                        k *= 2
                else:
                    sizes.extend(range(lo, hi + 1))
        else:
            sizes.append(_int(piece, piece))
    if not sizes:
        raise ValueError(f"empty size list {spec!r}")
    return sizes


def _packrat(session: ParseSession) -> tuple[str, int, int, int]:
    try:
        parse_complete(session)
        verdict = "accept"
    except ParseFailed:
        verdict = "reject"
    except (LeftRecursion, DepthExceeded):
        verdict = "error"
    st = stats(session)
    return verdict, st.cells_evaluated, 0, st.memo_bytes_estimate


def _naive(grammar: Grammar, text: str, **limits) -> tuple[str, int, int, int]:
    try:
        report = naive_parse(grammar, grammar.start, 0, text, **limits)
    except CallBudgetExceeded:
        return "error", 0, limits["call_budget"], 0
    except (LeftRecursion, DepthExceeded):
        return "error", 0, 0, 0
    return ("accept" if report.outcome == len(text) else "reject"), 0, report.calls, 0


def _tabular(grammar: Grammar, text: str) -> tuple[str, int, int, int]:
    try:
        matrix = tabular_parse(grammar, text)
    except (UnsupportedConstruct, SamePositionCycle):
        return "error", 0, 0, 0
    accept = matrix.verdict(grammar.start, 0) == len(text)
    return ("accept" if accept else "reject"), matrix.cells_filled, 0, 0


def run_bench(
    grammar: Grammar,
    name: str,
    family: str,
    sizes: list[int],
    engines: list[str],
    config: EngineConfig = EngineConfig(),
    call_budget: int = DEFAULT_CALL_BUDGET,
) -> list[BenchRecord]:
    """One record per (engine, size), engines in caller order, sizes
    ascending within each engine.  ``config.depth_limit`` bounds the
    packrat and the naive parse alike.

    Each run's clock covers the engine's work on one input: the parse
    and its counters, but not building the input or a packrat session.
    """
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r} (choose from {', '.join(ENGINES)})"
            )
    limits = {"call_budget": call_budget, "depth_limit": config.depth_limit}
    records = []
    for engine in engines:
        for size in sorted(sizes):
            text = make_input(family, size)
            if engine == "packrat":
                run = partial(_packrat, ParseSession(grammar, text, config=config))
            elif engine == "naive":
                run = partial(_naive, grammar, text, **limits)
            else:
                run = partial(_tabular, grammar, text)
            t0 = time.perf_counter_ns()
            verdict, cells, calls, memo_bytes = run()
            duration = time.perf_counter_ns() - t0
            records.append(BenchRecord(
                name, engine, len(text), verdict, cells, calls, duration, memo_bytes
            ))
    return records


def to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


@dataclass(frozen=True, slots=True)
class AffineFit:
    """Least-squares line fit quality for a scaling measurement.

    ``rel_residual`` is the root-mean-square residual divided by the
    mean magnitude of the observations; near zero means the points sit
    on a line (affine growth).
    """

    slope: float
    intercept: float
    rel_residual: float


def affine_fit(xs: list[int | float], ys: list[int | float]) -> AffineFit:
    if len(xs) < 3:
        raise ValueError("need at least 3 points to judge affinity")
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
    except statistics.StatisticsError as exc:  # e.g. all xs equal
        raise ValueError(f"no line fits these points: {exc}") from None
    rms = math.sqrt(
        statistics.fmean((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    )
    scale = statistics.fmean(abs(y) for y in ys)
    rel = rms / scale if scale > 0 else 0.0
    return AffineFit(slope, intercept, rel)


def summary(records: list[BenchRecord]) -> str:
    """Per engine, in record order, one row per run: verdict, the work
    counter (``calls`` for naive, else ``cells_evaluated``), its growth
    over the previous run, ``memo_bytes_estimate`` and wall ms.  Then,
    for each engine with at least 3 runs that ended without error, the
    affine fit of the work counter (and for packrat of
    ``memo_bytes_estimate``) against input length."""
    out, fits = [], []
    for engine in dict.fromkeys(r.engine for r in records):
        runs = [r for r in records if r.engine == engine]
        work = "calls" if engine == "naive" else "cells_evaluated"
        out += ["", engine, f"{'input_len':>10} {'verdict':>7} {work:>15} "
                f"{'growth':>7} {'memo_bytes_estimate':>19} {'ms':>9}"]
        prev = 0
        for r in runs:
            count = getattr(r, work)
            growth = f"{count / prev:.3f}" if prev else ""
            out.append(
                f"{r.input_len:>10} {r.verdict:>7} {count:>15} {growth:>7} "
                f"{r.memo_bytes_estimate:>19} {r.duration_ns / 1e6:>9.1f}"
            )
            prev = count
        ok = [r for r in runs if r.verdict != "error"]
        xs = [r.input_len for r in ok]
        for label in [work, "memo_bytes_estimate"] if engine == "packrat" else [work]:
            try:
                fit = affine_fit(xs, [getattr(r, label) for r in ok])
            except ValueError:  # under 3 runs, or one input length only
                continue
            fits.append(
                f"{engine} {label} ~= {fit.slope:.3f}*n + {fit.intercept:.3f}"
                f" (relative residual {fit.rel_residual:.2e})"
            )
    if fits:
        out += [""] + fits
    out.append("wall-clock times are informational; counters are the contract")
    return "\n".join(out) + "\n"
