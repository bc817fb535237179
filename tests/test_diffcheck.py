"""Differential checker: corpora, per-cell comparison, reporting."""

from __future__ import annotations

import hashlib
import random
import re
import sys
from collections import Counter, defaultdict

import pytest

from pegkit import diffcheck
from pegkit.catalog import CatalogEntry, registry
from pegkit.diffcheck import (
    CheckConfig,
    exhaustive_inputs,
    random_inputs,
    run_check,
)
from pegkit import Char, char, choice, make_grammar, ref, seq, walk_exprs
from pegkit.engine import FAIL, DepthExceeded, ParseSession, ParseTreeNode
from pegkit.oracles import (
    CallBudgetExceeded,
    NaiveRun,
    UnsupportedConstruct,
    check_cfg_compatible,
    naive_parse,
)


class TestCorpora:
    def test_exhaustive_enumerates_whole_length_tiers(self):
        inputs, covered = exhaustive_inputs("ab", 3, tier_cap=100)
        assert covered == 3
        assert len(inputs) == 1 + 2 + 4 + 8
        assert inputs[0] == ""
        assert set(len(t) for t in inputs) == {0, 1, 2, 3}

    def test_exhaustive_stops_before_overflowing_the_cap(self):
        # tiers are all-or-nothing: length 3 (8 strings) would push the
        # total past the cap, so coverage stops at length 2
        inputs, covered = exhaustive_inputs("ab", 3, tier_cap=10)
        assert covered == 2
        assert len(inputs) == 1 + 2 + 4

    def test_exhaustive_is_sorted_and_duplicate_free(self):
        inputs, _ = exhaustive_inputs("xy", 4, tier_cap=10_000)
        assert len(inputs) == len(set(inputs))

    def test_random_inputs_are_seed_deterministic(self):
        a = random_inputs("abc", 8, 50, random.Random("seed"))
        b = random_inputs("abc", 8, 50, random.Random("seed"))
        assert a == b
        assert all(len(t) <= 8 for t in a)
        assert all(set(t) <= set("abc") for t in a)


class TestCheckConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"call_budget": 0}, "call_budget must be at least 1, got 0"),
            ({"max_len": -1}, "max_len must be at least 0, got -1"),
            ({"mode": "random", "trials": 0}, "at least 1 trial, got 0"),
            ({"mode": "random", "trials": -2}, "at least 1 trial, got -2"),
            ({"mode": "fuzz"}, "unknown mode 'fuzz'"),
        ],
    )
    def test_bad_settings_are_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CheckConfig(**kwargs)


class TestRunCheck:
    def test_all_catalog_grammars_pass_a_small_exhaustive_sweep(self, entries):
        cfg = CheckConfig(max_len=3, mode="exhaustive", tier_cap=600)
        report = run_check(list(entries.values()), cfg)
        assert report.ok
        assert "RESULT: ok" in report.text

    def test_expected_divergence_is_not_a_failure(self, entries):
        cfg = CheckConfig(max_len=5, mode="exhaustive")
        report = run_check([entries["peg_limitation"]], cfg)
        assert report.ok
        (result,) = report.results
        assert result.divergences and not result.counterexamples
        assert "expected divergence" in report.text
        assert "'xxxxx'" in report.text

    def test_unexpected_divergence_is_a_counterexample(self):
        # same grammar as peg_limitation but without the trait that
        # licenses PEG/CFG disagreement
        g = make_grammar(
            [("S", choice(seq(char("x"), ref("S"), char("x")), char("x")))]
        )
        entry = CatalogEntry(
            name="sneaky",
            grammar=g,
            evaluator=None,
            alphabet="x",
            exhaustive_alphabet="x",
        )
        report = run_check([entry], CheckConfig(max_len=5, mode="exhaustive"))
        assert not report.ok
        assert "FAIL" in report.text

    def test_left_recursive_entries_probe_all_backends(self, entries):
        cfg = CheckConfig(max_len=4, mode="exhaustive")
        report = run_check([entries["left_recursive_arith"]], cfg)
        assert report.ok
        assert "left recursion reported by packrat/naive/tabular" in report.text

    def test_random_mode_report_is_deterministic(self, entries):
        cfg = CheckConfig(max_len=6, mode="random", trials=40, seed=11)
        picks = [entries["arith"], entries["blowup"]]
        assert run_check(picks, cfg).text == run_check(picks, cfg).text

    def test_seed_changes_the_corpus(self, entries):
        base = CheckConfig(max_len=8, mode="random", trials=40, seed=0)
        other = CheckConfig(max_len=8, mode="random", trials=40, seed=1)
        picks = [entries["blowup"]]
        assert run_check(picks, base).text != run_check(picks, other).text

    def test_report_counts_cells(self, entries):
        cfg = CheckConfig(max_len=2, mode="exhaustive")
        report = run_check([entries["blowup"]], cfg)
        (result,) = report.results
        # inputs '', 'a', 'b', 'aa', 'ab', 'ba', 'bb'; one rule; n+1
        # positions each
        assert result.inputs == 7
        assert result.cells == 1 + 2 * 2 + 3 * 4

    def test_naive_oracle_runs_no_cell_an_earlier_run_recorded(
        self, entries, monkeypatch
    ):
        recorded: set[tuple[int, int, str]] = set()  # (grammar, rule, suffix)
        runs = calls = 0

        class Counted(NaiveRun):
            __slots__ = ()

            def __call__(self, rule, pos):
                nonlocal runs, calls
                grammar, text = id(self.code), self.text
                assert (grammar, rule, text[pos:]) not in recorded, (rule, text[pos:])
                runs += 1
                first = len(self.made)
                end = super().__call__(rule, pos)
                calls += self.budget - self.left
                recorded.add((grammar, rule, text[pos:]))
                recorded.update((grammar, r, text[p:]) for r, p, _ in self.ends(first))
                return end

        monkeypatch.setattr(diffcheck, "NaiveRun", Counted)
        cfg = CheckConfig(max_len=12, mode="random", trials=8, seed=0)
        assert run_check(list(entries.values()), cfg).ok
        # a run used to serve only its own cell: 2,184 runs and 98,931
        # calls; the left-recursive entry's four probes are naive_parse's
        assert (runs, calls) == (744, 40_368)


def per_cell(g, rid: int, pos: int, text: str, budget: int) -> int | str | None:
    # what a naive run made for this cell alone gives
    try:
        return naive_parse(g, rid, pos, text, call_budget=budget).outcome
    except CallBudgetExceeded:
        return "budget-exceeded"
    except DepthExceeded:
        return "depth-exceeded"


class TestNaiveRows:
    """The judge's one naive run per input against one run per cell."""

    @pytest.mark.parametrize("budget", [20, diffcheck.DEFAULT_CALL_BUDGET])
    def test_rows_equal_runs_made_cell_by_cell(self, entries, budget):
        exceeded_then_done = 0
        for name, entry in entries.items():
            if "left_recursive" in entry.traits:
                continue
            g = entry.grammar
            naive_seen = [{} for _ in g.rules]
            for text in random_inputs(entry.alphabet, 10, 30, random.Random(name)):
                run = NaiveRun(g, text, call_budget=budget)
                suffixes = [text[pos:] for pos in range(len(text) + 1)]
                for rid in range(len(g.rules)):
                    row = diffcheck._naive_row(run, rid, suffixes, naive_seen)
                    assert row == [
                        per_cell(g, rid, pos, text, budget) for pos in range(len(text) + 1)
                    ], (name, text, rid)
                    if "budget-exceeded" in row:
                        later = row[row.index("budget-exceeded"):]
                        exceeded_then_done += any(v != "budget-exceeded" for v in later)
        # a low budget is exceeded mid-row, and later calls of the row complete
        assert (exceeded_then_done > 0) == (budget == 20)

    def test_an_exceeded_call_leaves_no_active_cell(self, entries):
        # blowup's S at 0 calls S at 1, 2, ...: a later call of S there
        # meets no active cell and gives the verdict of a run made for it
        # alone, past the budget on long suffixes and complete on short ones
        g = entries["blowup"].grammar
        text = "a" * 10
        run = NaiveRun(g, text, call_budget=100)
        with pytest.raises(CallBudgetExceeded):
            run(g.start, 0)
        assert {pos for _, pos, _ in run.ends()} == set(range(11))
        assert all(rec[2] == -1 for rec in run.made)
        got = []
        for pos in range(1, len(text) + 1):
            try:
                got.append(run(g.start, pos))
            except CallBudgetExceeded:
                got.append("budget-exceeded")
        assert got == [per_cell(g, g.start, pos, text, 100) for pos in range(1, 11)]
        assert got[0] == "budget-exceeded" and got[-2:] == [10, None]

    def test_an_over_deep_call_leaves_no_active_cell(self):
        g = make_grammar([("P", choice(seq(char("("), ref(0), char(")")), char("1")))])
        text = "(((1)))"
        run = NaiveRun(g, text, depth_limit=3)
        with pytest.raises(DepthExceeded):
            run(0, 0)
        assert run(0, 1) == 6

    def test_frames_running_out_is_depth_exceeded(self):
        # outside a counted deep section the interpreter's frames run out
        # first; the row reads depth-exceeded there, as the judge read
        # naive_parse's DepthExceeded, and the shallower cells complete
        g = make_grammar([("P", choice(seq(char("("), ref(0), char(")")), char("1")))])
        text = "(" * 1_200 + "1" + ")" * 1_200
        run = NaiveRun(g, text)
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            row = diffcheck._naive_row(run, 0, [text[p:] for p in range(2_402)], [{}])
        finally:
            sys.setrecursionlimit(before)
        assert row[0] == "depth-exceeded" and row[1_200] == 1_201
        assert all(rec[2] == -1 for rec in run.made)

    def test_a_small_budget_report_is_pinned(self):
        # recorded on the judge that made one naive run per cell
        cfg = CheckConfig(max_len=8, mode="random", trials=60, seed=3, call_budget=20)
        report = run_check(list(registry().values()), cfg)
        assert "naive=budget-exceeded" in report.text
        assert hashlib.md5(report.text.encode()).hexdigest() == (
            "0d07f27fcd3dce87fa389f626345ca02"
        )


class SkewedSession(ParseSession):
    """A session whose ``apply`` flips the verdict at a spread of cells:
    Fail becomes an empty match, a match becomes Fail."""

    def apply(self, rule, pos):
        out = super().apply(rule, pos)
        if (rule + 2 * pos + sum(map(ord, self.text))) % 23:
            return out
        return ParseTreeNode(rule, pos, pos) if out is FAIL else FAIL


class TestMismatchPath:
    def test_mismatching_cells_are_reported_in_order_under_the_cap(
        self, entries, monkeypatch
    ):
        monkeypatch.setattr(diffcheck, "ParseSession", SkewedSession)
        cfg = CheckConfig(max_len=4, mode="exhaustive")
        report = run_check([entries["arith"], entries["composition_lvalue"]], cfg)
        assert not report.ok
        for result in report.results:
            # each grammar passes the cap, and the cap holds
            assert len(result.counterexamples) == diffcheck._LIST_LIMIT * 2
            assert not result.divergences
        listed = "\n".join(ce for r in report.results for ce in r.counterexamples)
        digest = hashlib.md5(report.text.encode() + listed.encode()).hexdigest()
        assert digest == "6365b61cfe44289593ba98c12e74a75e"


def plain_entry(name, g, traits=()):
    alphabet = "".join(sorted({e.char for e in walk_exprs(g) if type(e) is Char}))
    return CatalogEntry(name=name, grammar=g, evaluator=None, alphabet=alphabet,
                        exhaustive_alphabet=alphabet, traits=frozenset(traits))


# S <- 'a' S / 'b': within the CFG oracle's fragment, and PEG and CFG agree
A_STAR_B = make_grammar([("S", choice(seq(char("a"), ref("S")), char("b")))])


class TestEachCounterexample:
    """Every kind of counterexample ``run_check`` can report, each made
    by a grammar or a backend that is at fault."""

    def check(self, entry, **settings):
        report = run_check([entry], CheckConfig(mode="exhaustive", **settings))
        assert not report.ok
        (result,) = report.results
        return result.counterexamples

    def test_a_naive_run_past_its_call_budget(self, entries):
        found = self.check(entries["blowup"], max_len=2, call_budget=1)
        assert "input 'a' rule S pos 0: packrat=1 naive=budget-exceeded " \
               "tabular=1" in found

    def test_an_entry_marked_left_recursive_that_is_not(self):
        entry = plain_entry("straight", A_STAR_B, traits=["left_recursive"])
        found = self.check(entry, max_len=2)
        assert found[:3] == [
            f"input '': {backend} returned instead of {error}"
            for backend, error in [("packrat", "LeftRecursion"),
                                   ("naive", "LeftRecursion"),
                                   ("tabular", "SamePositionCycle")]
        ]

    def test_a_same_position_cycle_in_an_entry_not_marked_so(self, entries):
        g = entries["left_recursive_arith"].grammar
        found = self.check(plain_entry("unmarked", g), max_len=1)
        assert found and all(" tabular cycle " in ce for ce in found)

    def test_memo_accounting_that_is_off(self, monkeypatch):
        class Miscounting(ParseSession):
            def apply(self, rule, pos):
                self._cells_evaluated += rule == pos == 0
                return super().apply(rule, pos)

        monkeypatch.setattr(diffcheck, "ParseSession", Miscounting)
        found = self.check(plain_entry("ab", A_STAR_B), max_len=1)
        assert found == [
            f"input {text!r}: memo accounting off "
            f"(done={len(text) + 1} counted={len(text) + 2} "
            f"capacity={len(text) + 1})"
            for text in ["", "a", "b"]
        ]

    def test_ends_the_cfg_oracle_cannot_derive(self, monkeypatch):
        monkeypatch.setattr(diffcheck, "cfg_end_table",
                            lambda g, text: defaultdict(frozenset))
        found = self.check(plain_entry("ab", A_STAR_B), max_len=2)
        assert found == [
            "input 'b' rule S pos 0: packrat end 1 not derivable contextfree",
            "input 'b': PEG accepts but CFG end-set lacks 1",
            "input 'ab' rule S pos 0: packrat end 2 not derivable contextfree",
            "input 'ab' rule S pos 1: packrat end 2 not derivable contextfree",
            "input 'ab': PEG accepts but CFG end-set lacks 2",
            "input 'ba' rule S pos 0: packrat end 1 not derivable contextfree",
            "input 'bb' rule S pos 0: packrat end 1 not derivable contextfree",
            "input 'bb' rule S pos 1: packrat end 2 not derivable contextfree",
        ]


class TestTracedContract:
    def test_run_check_calls_each_backend_through_the_module(
        self, entries, monkeypatch
    ):
        calls: Counter[str] = Counter()

        def counted(name):
            inner = getattr(diffcheck, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(diffcheck, name, wrapper)

        for name in ("ParseSession", "stats", "NaiveRun", "naive_parse",
                     "tabular_parse", "cfg_end_table"):
            counted(name)
        cfg = CheckConfig(max_len=12, mode="random", trials=8, seed=0)
        report = run_check(list(entries.values()), cfg)
        assert report.ok

        inputs = probes = sampled = 0
        for entry, result in zip(entries.values(), report.results):
            inputs += result.inputs
            if "left_recursive" in entry.traits:
                probes += result.inputs
                continue
            try:
                check_cfg_compatible(entry.grammar)
            except UnsupportedConstruct:
                continue
            # fewer than 800 inputs: the CFG oracle samples every one
            sampled += result.inputs
        assert calls == {
            "ParseSession": inputs,
            "tabular_parse": inputs,
            "stats": inputs - probes,
            "cfg_end_table": sampled,
            # one naive run per judged input; naive_parse only for probes
            "NaiveRun": inputs - probes,
            "naive_parse": probes,
        }
        assert (inputs, probes, sampled) == (68, 4, 48)
