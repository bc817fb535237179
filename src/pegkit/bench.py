"""Benchmark plumbing: input families, engine runners, CSV records.

Input families are deterministic functions of a size parameter:

* ``aN_b`` - ``"a" * k + "b"``, the exponential-backtracking family;
* ``repeat-<literal>`` - the literal extended by overlapping repetition
  (``repeat-1+1`` yields ``1+1+1...``: the literal, then its tail
  appended until the requested length is reached);
* ``nested-parens`` - ``k`` opening parentheses, a ``1``, and ``k``
  closing parentheses; the size is the nesting depth.

Each run produces a :class:`BenchRecord`; rows serialize to CSV with a
fixed header.  Verdicts are ``accept``, ``reject``, or ``error``
(budget exhaustion, left recursion, depth limits, or an oracle that
rejects the grammar).  Counters that an engine does not maintain are
reported as 0.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from .engine import (
    DepthExceeded,
    EngineConfig,
    LeftRecursion,
    ParseFailed,
    ParseSession,
    parse_complete,
    run_deep,
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

CSV_HEADER = (
    "grammar,engine,input_len,verdict,cells_evaluated,calls,"
    "duration_ns,memo_bytes_estimate"
)

ENGINES = ("packrat", "naive", "tabular")


@dataclass(frozen=True, slots=True)
class BenchRecord:
    grammar: str
    engine: str
    input_len: int
    verdict: str
    cells_evaluated: int
    calls: int
    duration_ns: int
    memo_bytes_estimate: int

    def csv_row(self) -> str:
        return (
            f"{self.grammar},{self.engine},{self.input_len},{self.verdict},"
            f"{self.cells_evaluated},{self.calls},{self.duration_ns},"
            f"{self.memo_bytes_estimate}"
        )


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


def parse_sizes(spec: str) -> list[int]:
    """Size lists like ``4..14``, ``1000..64000x2``, ``1..9:2``, ``5,10``.

    ``a..b`` steps by 1, ``a..b:s`` by adding ``s``, ``a..bxM`` by
    multiplying by ``M``; comma-separated pieces concatenate.  A bare
    ``a..b`` that would enumerate more than 64 sizes becomes a doubling
    ladder instead, so ``1000..64000`` means 1000, 2000, ..., 64000.
    """
    sizes: list[int] = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            lo_text, _, rest = piece.partition("..")
            lo = int(lo_text)
            if "x" in rest:
                hi_text, _, mul_text = rest.partition("x")
                hi, mul = int(hi_text), int(mul_text)
                if mul < 2:
                    raise ValueError(f"multiplier must be >= 2 in {piece!r}")
                k = lo
                while k <= hi:
                    sizes.append(k)
                    k *= mul
            elif ":" in rest:
                hi_text, _, step_text = rest.partition(":")
                hi, step = int(hi_text), int(step_text)
                if step < 1:
                    raise ValueError(f"step must be >= 1 in {piece!r}")
                sizes.extend(range(lo, hi + 1, step))
            else:
                hi = int(rest)
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
            sizes.append(int(piece))
    if not sizes:
        raise ValueError(f"empty size list {spec!r}")
    return sizes


def run_packrat(
    grammar: Grammar,
    text: str,
    name: str,
    config: EngineConfig | None = None,
) -> BenchRecord:
    session = ParseSession(grammar, text, config=config)
    t0 = time.perf_counter_ns()
    try:
        parse_complete(session)
        verdict = "accept"
    except ParseFailed:
        verdict = "reject"
    except (LeftRecursion, DepthExceeded):
        verdict = "error"
    duration = time.perf_counter_ns() - t0
    st = stats(session)
    return BenchRecord(
        grammar=name,
        engine="packrat",
        input_len=len(text),
        verdict=verdict,
        cells_evaluated=st.cells_evaluated,
        calls=0,
        duration_ns=duration,
        memo_bytes_estimate=st.memo_bytes_estimate,
    )


def run_naive(
    grammar: Grammar,
    text: str,
    name: str,
    call_budget: int = DEFAULT_CALL_BUDGET,
) -> BenchRecord:
    n = len(text)
    t0 = time.perf_counter_ns()
    calls = 0
    try:
        report = run_deep(
            naive_parse, grammar, grammar.start, 0, text, call_budget=call_budget
        )
        calls = report.calls
        verdict = "accept" if report.outcome == n else "reject"
    except CallBudgetExceeded:
        verdict = "error"
        calls = call_budget
    except (LeftRecursion, DepthExceeded):
        verdict = "error"
    duration = time.perf_counter_ns() - t0
    return BenchRecord(
        grammar=name,
        engine="naive",
        input_len=n,
        verdict=verdict,
        cells_evaluated=0,
        calls=calls,
        duration_ns=duration,
        memo_bytes_estimate=0,
    )


def run_tabular(grammar: Grammar, text: str, name: str) -> BenchRecord:
    n = len(text)
    t0 = time.perf_counter_ns()
    cells = 0
    try:
        matrix = tabular_parse(grammar, text)
        cells = matrix.cells_filled
        verdict = "accept" if matrix.verdict(grammar.start, 0) == n else "reject"
    except (UnsupportedConstruct, SamePositionCycle):
        verdict = "error"
    duration = time.perf_counter_ns() - t0
    return BenchRecord(
        grammar=name,
        engine="tabular",
        input_len=n,
        verdict=verdict,
        cells_evaluated=cells,
        calls=0,
        duration_ns=duration,
        memo_bytes_estimate=0,
    )


def run_bench(
    grammar: Grammar,
    name: str,
    family: str,
    sizes: list[int],
    engines: list[str],
    config: EngineConfig | None = None,
    call_budget: int = DEFAULT_CALL_BUDGET,
) -> list[BenchRecord]:
    """One record per (engine, size), engines in caller order, sizes
    ascending within each engine."""
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    records = []
    for engine in engines:
        for size in sorted(sizes):
            text = make_input(family, size)
            if engine == "packrat":
                records.append(run_packrat(grammar, text, name, config))
            elif engine == "naive":
                records.append(run_naive(grammar, text, name, call_budget))
            else:
                records.append(run_tabular(grammar, text, name))
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
