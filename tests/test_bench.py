"""Benchmark harness: input families, size specs, records, fits."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pegkit
from pegkit import EngineConfig, charclass, make_grammar, plus
from pegkit.bench import (
    CSV_HEADER,
    affine_fit,
    make_input,
    parse_sizes,
    run_bench,
    to_csv,
)


@pytest.fixture
def blowup(entries):
    return entries["blowup"]


class TestMakeInput:
    def test_a_n_b_family(self):
        assert make_input("aN_b", 0) == "b"
        assert make_input("aN_b", 3) == "aaab"

    def test_repeat_family_extends_by_overlap(self):
        assert make_input("repeat-1+1", 3) == "1+1"
        assert make_input("repeat-1+1", 4) == "1+1+1"
        assert make_input("repeat-1+1", 7) == "1+1+1+1"
        assert len(make_input("repeat-1+1", 1001)) == 1001

    def test_repeat_family_single_character(self):
        assert make_input("repeat-x", 4) == "xxxx"

    def test_nested_parens_family(self):
        assert make_input("nested-parens", 0) == "1"
        assert make_input("nested-parens", 2) == "((1))"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown input family"):
            make_input("mystery", 3)
        with pytest.raises(ValueError, match="needs a literal"):
            make_input("repeat-", 3)
        with pytest.raises(ValueError, match="negative"):
            make_input("aN_b", -1)


class TestParseSizes:
    def test_short_range_steps_by_one(self):
        assert parse_sizes("4..14") == list(range(4, 15))

    def test_long_bare_range_becomes_doubling_ladder(self):
        assert parse_sizes("1000..64000") == [
            1000, 2000, 4000, 8000, 16000, 32000, 64000,
        ]

    def test_explicit_stride(self):
        assert parse_sizes("1..9:4") == [1, 5, 9]

    def test_explicit_multiplier(self):
        assert parse_sizes("2..32x4") == [2, 8, 32]

    def test_comma_separated_pieces(self):
        assert parse_sizes("1, 2,8") == [1, 2, 8]
        assert parse_sizes("1..3,10") == [1, 2, 3, 10]

    def test_rejections(self):
        with pytest.raises(ValueError, match="descending"):
            parse_sizes("9..4")
        with pytest.raises(ValueError, match="empty"):
            parse_sizes(" , ")
        with pytest.raises(
            ValueError,
            match=r"bad size list piece 'abc' \(accepted forms: N, A\.\.B, "
            r"A\.\.B:STEP, A\.\.BxM, comma lists\)",
        ):
            parse_sizes("abc")
        with pytest.raises(ValueError, match="bad size list piece '2..x4'"):
            parse_sizes("1,2..x4")
        with pytest.raises(ValueError, match="multiplier"):
            parse_sizes("1..8x1")
        with pytest.raises(ValueError, match="step"):
            parse_sizes("1..8:0")
        # multiplying 0 stays at 0, and a negative start runs away from hi
        for spec in ("0..10x2", "-1..10x2"):
            with pytest.raises(ValueError, match=f"start must be >= 1 in '{spec}'"):
                parse_sizes(spec)


class TestRunBench:
    def test_records_cover_engines_by_sizes(self, blowup):
        records = run_bench(
            blowup.grammar, "blowup", "aN_b", [4, 2, 3], ["naive", "packrat"]
        )
        assert [(r.engine, r.input_len) for r in records] == [
            ("naive", 3), ("naive", 4), ("naive", 5),
            ("packrat", 3), ("packrat", 4), ("packrat", 5),
        ]

    def test_packrat_records_cells_and_memo(self, blowup):
        (record,) = run_bench(blowup.grammar, "blowup", "aN_b", [5], ["packrat"])
        assert record.verdict == "accept"
        assert record.cells_evaluated == 6  # one rule, positions 0..5
        assert record.calls == 0
        assert record.memo_bytes_estimate > 0
        assert record.duration_ns > 0

    def test_naive_records_calls(self, blowup):
        (record,) = run_bench(blowup.grammar, "blowup", "aN_b", [5], ["naive"])
        assert record.verdict == "accept"
        assert record.calls > 0
        assert record.cells_evaluated == 0

    def test_naive_budget_exhaustion_is_an_error_verdict(self, blowup):
        (record,) = run_bench(
            blowup.grammar, "blowup", "aN_b", [25], ["naive"], call_budget=500
        )
        assert record.verdict == "error"
        assert record.calls == 500

    def test_reject_verdict(self, blowup):
        (record,) = run_bench(blowup.grammar, "blowup", "aN_b", [1], ["packrat"])
        assert record.verdict == "reject"

    def test_tabular_error_on_unsupported_grammar(self):
        # unbounded repetition has no tabulation schedule
        g = make_grammar([("S", plus(charclass("01")))])
        (record,) = run_bench(g, "bits", "repeat-1", [5], ["tabular"])
        assert record.verdict == "error"
        (record,) = run_bench(g, "bits", "repeat-1", [5], ["packrat"])
        assert record.verdict == "accept"

    def test_tabular_agrees_on_supported_grammar(self, blowup):
        records = run_bench(
            blowup.grammar, "blowup", "aN_b", [6], ["tabular", "packrat"]
        )
        assert {r.verdict for r in records} == {"accept"}

    def test_unknown_engine_rejected(self, blowup):
        with pytest.raises(ValueError, match="unknown engine"):
            run_bench(blowup.grammar, "blowup", "aN_b", [3], ["quantum"])

    def test_depth_limit_bounds_both_engines(self, entries):
        # the naive parse used to run at the default limit and accept
        records = run_bench(
            entries["arith"].grammar, "arith", "nested-parens", [5],
            ["packrat", "naive"], config=EngineConfig(depth_limit=3),
        )
        assert [(r.engine, r.verdict) for r in records] == [
            ("packrat", "error"), ("naive", "error"),
        ]


class TestCsv:
    def test_header_and_shape(self, blowup):
        records = run_bench(blowup.grammar, "blowup", "aN_b", [3, 4], ["packrat"])
        text = to_csv(records)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert text.endswith("\n")
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            assert fields[0] == "blowup"
            assert fields[1] == "packrat"

    def test_rows_are_deterministic_apart_from_timing(self, blowup):
        def strip_timing(records):
            return [
                (r.grammar, r.engine, r.input_len, r.verdict,
                 r.cells_evaluated, r.calls, r.memo_bytes_estimate)
                for r in records
            ]

        a = run_bench(blowup.grammar, "blowup", "aN_b", [3, 5], ["naive", "packrat"])
        b = run_bench(blowup.grammar, "blowup", "aN_b", [3, 5], ["naive", "packrat"])
        assert strip_timing(a) == strip_timing(b)


class TestAffineFit:
    def test_exact_line_has_zero_residual(self):
        fit = affine_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.rel_residual == pytest.approx(0.0, abs=1e-12)

    def test_superlinear_data_has_large_residual(self):
        xs = list(range(1, 11))
        fit = affine_fit(xs, [2**x for x in xs])
        assert fit.rel_residual > 0.05

    def test_requires_three_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            affine_fit([1, 2], [1, 2])

    def test_constant_xs_rejected(self):
        with pytest.raises(ValueError, match="no line fits these points"):
            affine_fit([3, 3, 3], [1, 2, 3])


def test_every_module_imports_without_numpy():
    # numpy is blocked in a fresh interpreter: the package is stdlib only
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import pegkit\n"
        "for m in pkgutil.iter_modules(pegkit.__path__):\n"
        "    importlib.import_module('pegkit.' + m.name)\n"
        "from pegkit.bench import affine_fit\n"
        "print(affine_fit([1, 2, 3], [3, 5, 7]).slope)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pegkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2.0\n"
