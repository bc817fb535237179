"""The three workloads: inputs, one operation each, and its reference check.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned and been checked.  A workload owns a
list of distinct items built from the seed; the loop runs whole passes
over it.  References are built without the code under test (parse-large,
check) or with an independent interpreter, pegkit's naive oracle, outside
any timed region (parse-small).  An operation returns the number of input
characters it took to a checked verdict and its mismatches (empty when
correct).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field

from pegkit import catalog, diffcheck, engine, notation, oracles

from . import inputs


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  ``FULL`` is the benchmark; ``TINY`` is for the
    self-test.  The probe sizes are the same in both because the metric
    names carry them."""

    large_inputs: int = 4
    large_chars: int = 32_000
    small_pool: int = 1000
    check_corpora: int = 10
    check_trials: int = 8
    # inputs per side check, split over the workload's grammars
    side_check_inputs: int = 60
    side_samples: int = 15
    traced_ops: dict = field(
        default_factory=lambda: {"parse-large": 4, "parse-small": 2000, "check": 4}
    )
    probe_sizes: tuple = (8_000, 16_000, 32_000, 64_000)
    # tracemalloc in CPython 3.11 walks the whole frame stack on every
    # allocation, so a traced parse is quadratic in its recursion depth:
    # 8 K characters took 14 s, 32 K would take minutes.
    calibrate_chars: int = 4_000


FULL = Scale()
TINY = Scale(
    large_inputs=2,
    large_chars=2_000,
    small_pool=36,
    check_corpora=2,
    check_trials=3,
    side_check_inputs=2,
    side_samples=2,
    traced_ops={"parse-large": 2, "parse-small": 36, "check": 2},
    calibrate_chars=2_000,
)

CHECK_MAX_LEN = 12  # the tier-1 random-mode setting
LEFT_RECURSION_PROBES = 4  # "", a, aa, aaa: what run_check tries on such grammars


class Tally:
    """Operations attempted, operations failed, and every mismatch."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages += errors


def run_checked(workload, item) -> tuple[int, list[str]]:
    """One operation; an exception is a failed operation, not a crash."""
    try:
        return workload.run(item)
    except Exception as exc:  # noqa: BLE001 - counted and reported
        return 0, [f"{type(exc).__name__}: {exc}"]


def load(names) -> dict[str, object]:
    """Grammars as a user loads them: from the shipped ``.peg`` text."""
    return {name: notation.load_grammar(catalog.grammar_text(name)) for name in names}


class Workload:
    name = ""
    grammars: tuple[str, ...] = ()
    # Start each operation from a freshly collected heap.  Long operations
    # trigger several full collections whose cost depends on how full the
    # heap is when they fire; without a common starting state that cost
    # moves with the collector's phase left by earlier operations.
    collect_before_op = False
    # Operations between two timings of the speed kernel (see speed.py):
    # about half a second or less of work, so the kernel follows the
    # host's changes of speed at a cost of a few percent of the run.
    ops_per_speed_sample = 1

    def __init__(self, seed: int, scale: Scale, corrupt: bool = False):
        self.seed = seed
        self.scale = scale
        self.corrupt = corrupt
        self.registry = catalog.registry()
        self.loaded = load(self.grammars)
        for name, grammar in self.loaded.items():
            if grammar != self.registry[name].grammar:
                raise RuntimeError(f"{name}.peg does not match the catalog grammar")
        self.items: list = []
        self.shares: dict[str, float] = {}

    def item(self, i: int):
        return self.items[i % len(self.items)]

    def run(self, item) -> tuple[int, list[str]]:
        raise NotImplementedError

    def side_check(self) -> diffcheck.CheckConfig:
        """``run_check`` settings for ``check_s`` on a parse workload: the
        grammar developer's differential check over the workload's own
        grammars, with ``pegkit check``'s default seed so that every run
        checks the same corpus (see ``Check`` for why)."""
        return diffcheck.CheckConfig(
            max_len=CHECK_MAX_LEN,
            mode="random",
            trials=max(1, self.scale.side_check_inputs // len(self.grammars)),
            seed=0,
        )


def _session_bound(grammar, text: str, st) -> list[str]:
    # the at-most-once rule: no more rule cells than matrix slots
    slots = len(grammar.rules) * (len(text) + 1)
    if st.cells_evaluated > slots:
        return [f"cells_evaluated {st.cells_evaluated} > {slots} matrix slots"]
    return []


class ParseLarge(Workload):
    """~32 K-character ``arith_lexed`` expressions, one per operation:
    new_session -> parse_complete -> evaluator via run_deep -> stats."""

    name = "parse-large"
    grammars = ("arith_lexed",)
    collect_before_op = True

    def __init__(self, seed, scale, corrupt=False):
        super().__init__(seed, scale, corrupt)
        self.grammar = self.loaded["arith_lexed"]
        self.evaluator = self.registry["arith_lexed"].evaluator
        for i in range(scale.large_inputs):
            rng = random.Random(f"{seed}:large:{i}")
            self.items.append(inputs.large_expression(rng, scale.large_chars))
        if corrupt:
            text, value = self.items[0]
            self.items[0] = (text, value + 1)

    def run(self, item):
        text, value = item
        session = engine.new_session(self.grammar, text)
        node = engine.parse_complete(session)
        got = engine.run_deep(self.evaluator, node, text)
        st = engine.stats(session)
        errors = _session_bound(self.grammar, text, st)
        if got != value:
            errors.append(f"value mismatch on {len(text)} chars: got {got}, expected {value}")
        return len(text), errors


class ParseSmall(Workload):
    """A stream of short inputs over six grammars, each in a fresh session:
    new_session -> parse_complete (or ParseFailed) -> stats."""

    name = "parse-small"
    grammars = inputs.SMALL_GRAMMARS
    ops_per_speed_sample = 200

    def __init__(self, seed, scale, corrupt=False):
        super().__init__(seed, scale, corrupt)
        stream = inputs.small_stream(random.Random(f"{seed}:small"), scale.small_pool)
        old_limit = sys.getrecursionlimit()
        # the naive interpreter recurses a few frames per input character
        sys.setrecursionlimit(max(old_limit, 50_000))
        try:
            for grammar_name, text, _ in stream:
                g = self.loaded[grammar_name]
                end = oracles.naive_parse(g, g.start, 0, text).outcome
                self.items.append((g, text, end == len(text)))
        finally:
            sys.setrecursionlimit(old_limit)
        if corrupt:
            g, text, accept = self.items[0]
            self.items[0] = (g, text, not accept)
        n = len(self.items)
        self.shares = {
            "accept_share": sum(a for _, _, a in self.items) / n,
            "mutated_share": sum(m for _, _, m in stream) / n,
            f"share_at_least_{inputs.LONG_MIN}_chars": sum(
                len(t) >= inputs.LONG_MIN for _, t, _ in self.items
            ) / n,
        }

    def run(self, item):
        grammar, text, accept = item
        session = engine.new_session(grammar, text)
        try:
            node = engine.parse_complete(session)
            accepted = node.start == 0 and node.end == len(text)
        except engine.ParseFailed:
            accepted = False
        st = engine.stats(session)
        errors = _session_bound(grammar, text, st)
        if accepted != accept:
            errors.append(
                f"verdict mismatch on {text!r}: engine "
                f"{'accepts' if accepted else 'rejects'}, naive oracle "
                f"{'accepts' if accept else 'rejects'}"
            )
        return len(text), errors


class Check(Workload):
    """``run_check`` over the whole catalog in random mode, the path of
    ``pegkit check all 12 TRIALS --seed N``, one corpus seed per operation.

    The corpus set is fixed, corpus seeds 0 .. check_corpora-1, and
    ``--seed`` only rotates their order.  Every run therefore times the
    same corpora, and each report is compared with the earlier report of
    its corpus.  A seed-dependent set would make every metric depend on
    whether the set holds one of the rare inputs on which the naive oracle
    explodes (a 12-character composition_lvalue input with a run of open
    parentheses cost 1.9 s alone, 100 times a typical input): check_s
    moved by ~40% between seeds.
    """

    name = "check"
    grammars = tuple(catalog.registry())
    collect_before_op = True

    def __init__(self, seed, scale, corrupt=False):
        super().__init__(seed, scale, corrupt)
        self.entries = list(self.registry.values())
        count = scale.check_corpora
        self.items = [(seed + j) % count for j in range(count)]
        self.texts: dict[int, str] = {}

    def run(self, corpus):
        cfg = diffcheck.CheckConfig(
            max_len=CHECK_MAX_LEN, mode="random", trials=self.scale.check_trials,
            seed=corpus,
        )
        report = diffcheck.run_check(self.entries, cfg)
        extra = 1 if self.corrupt and not self.texts else 0
        errors, chars = check_report(
            report, self.entries, cfg, lambda entry: expected_inputs(entry, cfg) + extra
        )
        if self.texts.setdefault(corpus, report.text) != report.text:
            errors.append(f"corpus {corpus}: report differs from its earlier report")
        return chars, errors


def expected_inputs(entry, cfg) -> int:
    if "left_recursive" in entry.traits:
        return LEFT_RECURSION_PROBES
    return cfg.trials


def check_report(report, entries, cfg, expected) -> tuple[list[str], int]:
    """Mismatches of a ``run_check`` report against what its configuration
    implies, and the number of input characters it checked (from the cell
    counts: a fully forced input of n characters costs rules * (n + 1))."""
    errors = []
    if not report.ok:
        errors.append("run_check reported FAIL:\n" + report.text)
    header = (
        f"mode={cfg.mode} max_len={cfg.max_len} trials={cfg.trials} "
        f"seed={cfg.seed} tier_cap={cfg.tier_cap}"
    )
    if report.text.splitlines()[1:2] != [header]:
        errors.append("report header does not match the configuration")
    if [r.name for r in report.results] != [e.name for e in entries]:
        errors.append("report grammars differ from the entries checked")
    chars = 0
    for entry, result in zip(entries, report.results):
        if result.inputs != expected(entry):
            errors.append(
                f"{entry.name}: {result.inputs} inputs checked, expected {expected(entry)}"
            )
        nrules = len(entry.grammar.rules)
        if result.cells % nrules:
            errors.append(f"{entry.name}: {result.cells} cells is not a whole matrix")
        if "left_recursive" not in entry.traits:
            chars += result.cells // nrules - result.inputs
    return errors, chars


WORKLOADS = {w.name: w for w in (ParseLarge, ParseSmall, Check)}
