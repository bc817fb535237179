"""Differential checker: corpora, per-cell comparison, reporting."""

from __future__ import annotations

import random
import re

import pytest

from pegkit.catalog import CatalogEntry, registry
from pegkit.diffcheck import (
    CheckConfig,
    exhaustive_inputs,
    random_inputs,
    run_check,
)
from pegkit import char, choice, make_grammar, ref, seq


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
