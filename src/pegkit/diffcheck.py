"""Differential checking: the memoizing engine against independent oracles.

For every catalog grammar this driver compares, cell by cell, the
verdict (Fail vs end position) of the packrat engine, the naive
backtracking interpreter, and the tabular right-to-left filler, over a
deterministic input corpus.  A rule's verdict at a position depends only
on the input from that position on, so the naive interpreter, the
costly one, runs once per distinct (rule, suffix) of a grammar's corpus
and its verdict serves every cell that shares them.  Where the grammar
lies in the CFG-friendly fragment it additionally checks every engine
success against the context-free all-end-sets oracle (every parsed span
must be derivable), and counts complete-input verdict splits between
the PEG and CFG readings.  Such splits are expected for grammars carrying the
``peg_cfg_divergent`` trait and are counterexamples otherwise.

Grammars with the ``left_recursive`` trait get the opposite treatment:
every backend must report the cycle as a structured error on a set of
probe inputs.

Corpora come in two modes.  ``exhaustive`` enumerates every string over
the entry's reduced exhaustive alphabet, shortest first, keeping whole
length tiers up to a corpus cap; ``random`` draws ``trials`` strings
over the full alphabet from a per-grammar seeded generator, so reports
are byte-identical across runs with the same seed.

The report also re-counts Done memo cells after each session and fails
if the engine's cells_evaluated counter disagrees — the at-most-once
accounting cross-check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .catalog import CatalogEntry
from .engine import (
    FAIL,
    INPROGRESS,
    UNEVALUATED,
    DepthExceeded,
    LeftRecursion,
    ParseSession,
    stats,
)
from .grammar import Grammar
from .oracles import (
    DEFAULT_CALL_BUDGET,
    CallBudgetExceeded,
    SamePositionCycle,
    UnsupportedConstruct,
    check_cfg_compatible,
    cfg_end_table,
    naive_parse,
    tabular_parse,
)

_CFG_SAMPLE_CAP = 800  # inputs per grammar cross-checked against the CFG oracle
_LIST_LIMIT = 5  # counterexamples and divergences printed per grammar


@dataclass(frozen=True, slots=True)
class CheckConfig:
    """Knobs for one differential run; defaults suit a quick check."""

    max_len: int = 6
    mode: str = "exhaustive"  # "exhaustive" | "random"
    trials: int = 1000  # random mode: inputs per grammar
    seed: int = 0
    tier_cap: int = 10_000  # exhaustive mode: corpus cap (whole tiers)
    call_budget: int = DEFAULT_CALL_BUDGET  # naive-oracle guard per (rule, pos)

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_len < 0:
            raise ValueError(f"max_len must be at least 0, got {self.max_len}")
        if self.mode == "random" and self.trials < 1:
            raise ValueError(
                f"random mode needs at least 1 trial, got {self.trials}"
            )
        if self.call_budget < 1:
            raise ValueError(
                f"call_budget must be at least 1, got {self.call_budget}"
            )


@dataclass
class GrammarCheck:
    name: str
    inputs: int = 0
    cells: int = 0
    counterexamples: list[str] = field(default_factory=list)
    divergences: list[str] = field(default_factory=list)
    divergence_expected: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples and (
            self.divergence_expected or not self.divergences
        )


@dataclass(frozen=True, slots=True)
class CheckReport:
    text: str
    ok: bool
    results: tuple[GrammarCheck, ...]


def exhaustive_inputs(alphabet: str, max_len: int, tier_cap: int) -> tuple[list[str], int]:
    """All strings over ``alphabet`` by length, whole tiers only.

    Stops before a length tier that would push the corpus past
    ``tier_cap`` (the empty string and length-1 tier always fit).
    Returns the corpus and the longest fully covered length.
    """
    inputs = [""]
    covered = 0
    for length in range(1, max_len + 1):
        tier_size = len(alphabet) ** length
        if length > 1 and len(inputs) + tier_size > tier_cap:
            break
        inputs.extend(
            "".join(chars) for chars in itertools.product(alphabet, repeat=length)
        )
        covered = length
    return inputs, covered


def random_inputs(alphabet: str, max_len: int, trials: int, rng: random.Random) -> list[str]:
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(trials)
    ]


def _ordinal(n: int) -> str:
    if n % 100 in (11, 12, 13):
        return f"{n}th"
    return f"{n}{({1: 'st', 2: 'nd', 3: 'rd'}).get(n % 10, 'th')}"


def _corpus(entry: CatalogEntry, cfg: CheckConfig) -> tuple[list[str], str]:
    if cfg.mode == "exhaustive":
        inputs, covered = exhaustive_inputs(
            entry.exhaustive_alphabet, cfg.max_len, cfg.tier_cap
        )
        desc = (
            f"exhaustive lengths 0..{covered} over {entry.exhaustive_alphabet!r}"
        )
        return inputs, desc
    rng = random.Random(f"{cfg.seed}:{entry.name}")
    inputs = random_inputs(entry.alphabet, cfg.max_len, cfg.trials, rng)
    desc = (
        f"{cfg.trials} random length<={cfg.max_len} over "
        f"{entry.alphabet!r} seed={cfg.seed}"
    )
    return inputs, desc


_UNSEEN = object()


def _naive_verdict(
    g: Grammar, rid: int, pos: int, text: str, seen: dict, cfg: CheckConfig
) -> int | str | None:
    """The naive oracle's verdict for rule ``rid`` at ``pos``.

    The oracle reads only ``text[pos:]``, so its verdict relative to
    ``pos`` depends on the rule and that suffix alone.  ``seen`` maps
    the suffixes already run for this rule to that relative verdict,
    and a suffix met again is not re-run.  In exhaustive mode every
    suffix of an input is itself a shorter input checked earlier.
    """
    suffix = text[pos:]
    rel = seen.get(suffix, _UNSEEN)
    if rel is _UNSEEN:
        try:
            end = naive_parse(g, rid, pos, text, call_budget=cfg.call_budget).outcome
            rel = None if end is None else end - pos
        except CallBudgetExceeded:
            rel = "budget-exceeded"
        except DepthExceeded:
            rel = "depth-exceeded"
        seen[suffix] = rel
    return pos + rel if isinstance(rel, int) else rel


def _check_left_recursive(entry: CatalogEntry, cfg: CheckConfig) -> GrammarCheck:
    result = GrammarCheck(name=entry.name)
    g = entry.grammar
    a0 = entry.alphabet[0]
    probes = ["", a0, a0 * 2, a0 * 3]
    # the backends are looked up when called, so a rebound module name counts
    backends = (
        ("packrat", LeftRecursion, lambda text: ParseSession(g, text).apply(g.start, 0)),
        ("naive", LeftRecursion,
         lambda text: naive_parse(g, g.start, 0, text, call_budget=cfg.call_budget)),
        ("tabular", SamePositionCycle, lambda text: tabular_parse(g, text)),
    )
    for text in probes:
        result.inputs += 1
        for backend, expected, run in backends:
            try:
                run(text)
                result.counterexamples.append(
                    f"input {text!r}: {backend} returned instead of {expected.__name__}"
                )
            except expected:
                pass
    result.notes.append(
        f"left recursion reported by packrat/naive/tabular on {len(probes)} probes"
    )
    return result


def _check_entry(entry: CatalogEntry, cfg: CheckConfig) -> GrammarCheck:
    if "left_recursive" in entry.traits:
        return _check_left_recursive(entry, cfg)

    g = entry.grammar
    nrules = len(g.rules)
    result = GrammarCheck(
        name=entry.name,
        divergence_expected="peg_cfg_divergent" in entry.traits,
    )
    corpus, desc = _corpus(entry, cfg)
    result.inputs = len(corpus)
    result.notes.append(desc)

    try:
        check_cfg_compatible(g)
        cfg_stride = max(1, len(corpus) // _CFG_SAMPLE_CAP)
        result.notes.append(
            "cfg oracle on every input"
            if cfg_stride == 1
            else f"cfg oracle on every {_ordinal(cfg_stride)} input"
        )
    except UnsupportedConstruct as exc:
        cfg_stride = 0
        result.notes.append(f"cfg oracle skipped ({exc.what})")

    naive_seen: list[dict[str, int | str | None]] = [{} for _ in range(nrules)]
    for index, text in enumerate(corpus):
        n = len(text)
        session = ParseSession(g, text)
        try:
            tab = tabular_parse(g, text)
        except SamePositionCycle as exc:
            result.counterexamples.append(f"input {text!r}: tabular cycle {exc}")
            continue

        grid: list[list[int | None]] = []
        mismatch = False
        for rid in range(nrules):
            row: list[int | None] = []
            for pos in range(n + 1):
                out = session.apply(rid, pos)
                peg = None if out is FAIL else out.end
                row.append(peg)
                nai = _naive_verdict(g, rid, pos, text, naive_seen[rid], cfg)
                tabv = tab.verdict(rid, pos)
                result.cells += 1
                if not (peg == nai == tabv):
                    mismatch = True
                    if len(result.counterexamples) < _LIST_LIMIT * 2:
                        result.counterexamples.append(
                            f"input {text!r} rule {g.rule_name(rid)} pos {pos}: "
                            f"packrat={peg} naive={nai} tabular={tabv}"
                        )
            grid.append(row)
        if mismatch:
            continue

        done = sum(
            1
            for mrow in session.matrix
            for cell in mrow
            if cell is not UNEVALUATED and cell is not INPROGRESS
        )
        counted = stats(session).cells_evaluated
        if done != counted or done != nrules * (n + 1):
            result.counterexamples.append(
                f"input {text!r}: memo accounting off "
                f"(done={done} counted={counted} capacity={nrules * (n + 1)})"
            )

        if cfg_stride and index % cfg_stride == 0:
            table = cfg_end_table(g, text)
            for rid in range(nrules):
                for pos in range(n + 1):
                    peg = grid[rid][pos]
                    if peg is not None and peg not in table[(rid, pos)]:
                        result.counterexamples.append(
                            f"input {text!r} rule {g.rule_name(rid)} pos {pos}: "
                            f"packrat end {peg} not derivable contextfree"
                        )
            cfg_accepts = n in table[(g.start, 0)]
            peg_accepts = grid[g.start][0] == n
            if cfg_accepts and not peg_accepts:
                matched = grid[g.start][0]
                result.divergences.append(
                    f"input {text!r}: PEG rejects (start rule matches "
                    f"{'nothing' if matched is None else f'prefix end {matched}'}), "
                    f"CFG end-set includes {n}"
                )
            elif peg_accepts and not cfg_accepts:
                result.counterexamples.append(
                    f"input {text!r}: PEG accepts but CFG end-set lacks {n}"
                )
    return result


def run_check(entries: list[CatalogEntry], cfg: CheckConfig) -> CheckReport:
    results = tuple(_check_entry(entry, cfg) for entry in entries)
    # trials and seed shape only a random corpus
    drawn = f"trials={cfg.trials} seed={cfg.seed} " if cfg.mode == "random" else ""
    lines = [
        "pegkit differential check",
        f"mode={cfg.mode} max_len={cfg.max_len} {drawn}tier_cap={cfg.tier_cap}",
    ]
    total_counter = 0
    total_div = 0
    for r in results:
        status = "ok" if r.ok else "FAIL"
        lines.append(
            f"[{r.name}] inputs={r.inputs} cells={r.cells} "
            f"counterexamples={len(r.counterexamples)} "
            f"divergences={len(r.divergences)}"
            f"{' (expected)' if r.divergences and r.divergence_expected else ''}"
            f" {status}"
        )
        for note in r.notes:
            lines.append(f"  note: {note}")
        shown = r.counterexamples[:_LIST_LIMIT]
        for ce in shown:
            lines.append(f"  counterexample: {ce}")
        if len(r.counterexamples) > len(shown):
            lines.append(
                f"  ... {len(r.counterexamples) - len(shown)} more counterexamples"
            )
        label = (
            "expected divergence" if r.divergence_expected else "UNEXPECTED divergence"
        )
        for div in r.divergences[:_LIST_LIMIT]:
            lines.append(f"  {label}: {div}")
        if len(r.divergences) > _LIST_LIMIT:
            lines.append(
                f"  ... {len(r.divergences) - _LIST_LIMIT} more divergences"
            )
        total_counter += len(r.counterexamples)
        if not r.divergence_expected:
            total_counter += len(r.divergences)
        else:
            total_div += len(r.divergences)
    ok = all(r.ok for r in results)
    lines.append(
        f"RESULT: {'ok' if ok else 'FAIL'} - {total_counter} counterexamples, "
        f"{total_div} expected divergences, {len(results)} grammars"
    )
    return CheckReport("\n".join(lines) + "\n", ok, results)
