"""Command-line interface: subcommands, exit codes, output shapes."""

from __future__ import annotations

import pytest

from pegkit import catalog, cli
from pegkit.bench import CSV_HEADER
from pegkit.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from pegkit.diffcheck import CheckConfig, run_check

DEMO_GRAMMAR = """
Sum  <- Prod ('+' Prod)* ;
Prod <- Atom ('*' Atom)* ;
Atom <- [0-9] / '(' Sum ')' ;
"""

# Parenthesised 400 deep: more nesting than the notation parser can recurse.
DEEP_GRAMMAR = "S <- " + "(" * 400 + "'a'" + ")" * 400 + " ;\n"


class TestEval:
    def test_evaluates_catalog_grammar(self, capsys):
        assert main(["eval", "arith", "2*(3+4)"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "14"

    def test_parse_error_reports_column_and_expectations(self, capsys):
        assert main(["eval", "arith", "2*(3+4"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "parse error at column 7" in err
        assert "')'" in err

    def test_recognizer_grammars_print_accept(self, capsys):
        assert main(["eval", "lookahead_ab", "xxzyyyy"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "accept"

    def test_unknown_grammar_is_a_usage_error(self, capsys):
        assert main(["eval", "mystery", "x"]) == EXIT_USAGE
        assert "unknown grammar" in capsys.readouterr().err

    def test_parses_only_the_named_catalog_grammar(self, capsys, monkeypatch):
        parsed = []
        real = catalog.parse_grammar

        def counting(text):
            parsed.append(text)
            return real(text)

        monkeypatch.setattr(catalog, "parse_grammar", counting)
        assert main(["eval", "arith", "1+2"]) == EXIT_OK
        assert capsys.readouterr().out == "3\n"
        assert len(parsed) == 1

    def test_left_recursion_is_reported_as_an_error(self, capsys):
        assert main(["eval", "left_recursive_arith", "1+2"]) == EXIT_FAILURE
        assert "left recursion" in capsys.readouterr().err

    def test_grammar_file_overrides_catalog(self, capsys, tmp_path):
        path = tmp_path / "demo.peg"
        path.write_text(DEMO_GRAMMAR, encoding="utf-8")
        code = main(["eval", "--grammar-file", str(path), "demo", "3*(1+2)"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "accept"

    def test_missing_grammar_file_is_a_usage_error(self, capsys):
        code = main(["eval", "--grammar-file", "/no/such.peg", "demo", "1"])
        assert code == EXIT_USAGE

    def test_depth_limit_below_one_is_a_usage_error(self, capsys):
        for bad in ("0", "-5"):
            assert main(["eval", "arith", "1+2", "--depth-limit", bad]) == EXIT_USAGE
            assert "--depth-limit must be at least 1" in capsys.readouterr().err

    def test_too_deeply_nested_grammar_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.peg"
        path.write_text(DEEP_GRAMMAR, encoding="utf-8")
        code = main(["eval", "--grammar-file", str(path), "deep", "a"])
        assert code == EXIT_USAGE
        assert "nested too deeply" in capsys.readouterr().err


class TestMatrix:
    def test_prints_rules_char_row_and_columns(self, capsys):
        assert main(["matrix", "arith", "2*2"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["C1", "C2", "C3", "C4"]
        assert [line.split()[0] for line in lines[1:]] == [
            "Additive", "Multitive", "Primary", "Decimal", "CHAR",
        ]
        assert "(4,C4)" in lines[1]
        assert out.rstrip().endswith("X")  # EOF cell on the CHAR row

    def test_lazy_matrix_is_untouched(self, capsys):
        assert main(["matrix", "arith", "2*2", "--lazy"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "X" not in out
        assert "(" not in out

    def test_failed_parse_still_prints_matrix(self, capsys):
        assert main(["matrix", "arith", "2*("]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert "parse error" in captured.err
        assert "CHAR" in captured.out


class TestBench:
    def test_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "blowup", "aN_b", "4..8", "naive,packrat", str(out)]
        )
        assert code == EXIT_OK
        assert "wrote 10 records" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11

    def test_prints_growth_and_fits(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "blowup", "aN_b", "4..8", "naive,packrat", str(out)]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        naive = lines.index("naive")
        assert lines[naive + 1].split() == [
            "input_len", "verdict", "calls", "growth", "memo_bytes_estimate", "ms",
        ]
        rows = [line.split()[:4] for line in lines[naive + 2 : naive + 7]]
        # the first size has no growth, so its memo bytes come fourth
        assert rows == [
            ["5", "accept", "19", "0"],
            ["6", "accept", "39", "2.053"],
            ["7", "accept", "79", "2.026"],
            ["8", "accept", "159", "2.013"],
            ["9", "accept", "319", "2.006"],
        ]
        assert any(
            line.startswith("packrat cells_evaluated ~= 1.000*n + 0.000")
            for line in lines
        )

    def test_creates_the_output_directory(self, capsys, tmp_path):
        out = tmp_path / "new" / "dir" / "bench.csv"
        assert main(["bench", "blowup", "aN_b", "4", "packrat", str(out)]) == EXIT_OK
        assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        for out in (blocker / "bench.csv", tmp_path):
            code = main(["bench", "blowup", "aN_b", "4", "packrat", str(out)])
            assert code == EXIT_USAGE
            assert f"cannot write {out}" in capsys.readouterr().err

    def test_bad_sizes_are_usage_errors(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        # 0..10x2 would multiply 0 forever
        for sizes, error in (("9..4", "descending"), ("0..10x2", "start must be >= 1")):
            code = main(["bench", "blowup", "aN_b", sizes, "packrat", str(out)])
            assert code == EXIT_USAGE
            assert error in capsys.readouterr().err

    def test_output_is_checked_before_any_run(self, capsys, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("benchmark ran before its output was checked")

        monkeypatch.setattr(cli, "run_bench", no_run)
        code = main(["bench", "blowup", "aN_b", "4", "packrat", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: cannot write {tmp_path}: is a directory\n"
        )

    def test_bad_engine_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "blowup", "aN_b", "4..6", "warp", str(out)])
        assert code == EXIT_USAGE

    def test_bad_family_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "blowup", "bogus", "4..6", "packrat", str(out)])
        assert code == EXIT_USAGE


class TestCheck:
    def test_exhaustive_single_grammar(self, capsys):
        assert main(["check", "peg_limitation", "5", "exhaustive"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "expected divergence" in out
        assert "RESULT: ok" in out

    def test_exhaustive_report_matches_the_library_report(self, capsys, entries):
        # the CLI passes trials=0 and any --seed; neither shapes an exhaustive corpus
        assert main(["check", "all", "3", "exhaustive", "--seed", "5"]) == EXIT_OK
        cfg = CheckConfig(max_len=3, mode="exhaustive")
        library = run_check(list(entries.values()), cfg).text
        assert capsys.readouterr().out == library
        assert library.splitlines()[1] == "mode=exhaustive max_len=3 tier_cap=10000"

    def test_random_mode_with_trial_count(self, capsys):
        assert main(["check", "blowup", "6", "64"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mode=random" in out
        assert "64 random" in out

    def test_nonsense_trials_is_a_usage_error(self, capsys):
        assert main(["check", "blowup", "6", "sometimes"]) == EXIT_USAGE
        assert main(["check", "blowup", "6", "-3"]) == EXIT_USAGE

    def test_call_budget_below_one_is_a_usage_error(self, capsys):
        assert main(["check", "arith", "4", "3", "--call-budget", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--call-budget must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["arith", "-1", "5"], ["arith", "--", "-3", "exhaustive"]],
        ids=["random", "exhaustive"],
    )
    def test_negative_max_len_is_a_usage_error(self, capsys, argv):
        assert main(["check", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "max_len must be at least 0, got -" in captured.err
        assert captured.out == ""

    def test_fixed_seed_reports_are_identical(self, capsys):
        args = ["check", "blowup", "8", "100", "--seed", "5"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first


class TestGrammarTools:
    def test_fmt_normalizes_layout(self, capsys, tmp_path):
        path = tmp_path / "g.peg"
        path.write_text("A<-'a'/'b';\nB <- A A ;", encoding="utf-8")
        assert main(["grammar", "fmt", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "A <- 'a' / 'b' ;\nB <- A A ;\n"

    def test_fmt_is_idempotent(self, capsys, tmp_path):
        path = tmp_path / "g.peg"
        path.write_text(DEMO_GRAMMAR, encoding="utf-8")
        assert main(["grammar", "fmt", str(path)]) == EXIT_OK
        once = capsys.readouterr().out
        path.write_text(once, encoding="utf-8")
        assert main(["grammar", "fmt", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == once

    def test_fmt_rejects_broken_files(self, capsys, tmp_path):
        path = tmp_path / "g.peg"
        path.write_text("A <- 'x'", encoding="utf-8")  # missing ';'
        assert main(["grammar", "fmt", str(path)]) == EXIT_FAILURE
        assert "error" in capsys.readouterr().err

    def test_fmt_rejects_a_bad_hex_escape(self, capsys, tmp_path):
        path = tmp_path / "g.peg"
        path.write_text("A <- '\\x-1' ;", encoding="utf-8")
        assert main(["grammar", "fmt", str(path)]) == EXIT_FAILURE
        assert capsys.readouterr().err == (
            "error: line 1, column 9: bad \\x escape '-1'\n"
        )

    def test_validate_reports_warnings_but_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "g.peg"
        path.write_text("A <- 'a' ;\nDead <- 'd' ;", encoding="utf-8")
        assert main(["grammar", "validate", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "warning: UnreachableRule" in out
        assert "0 errors, 1 warnings" in out

    def test_validate_reports_errors_and_exits_one(self, capsys, tmp_path):
        path = tmp_path / "g.peg"
        path.write_text("A <- ('x'?)* ;", encoding="utf-8")
        assert main(["grammar", "validate", str(path)]) == EXIT_FAILURE
        out = capsys.readouterr().out
        assert "error: NullableRepetition" in out

    def test_validate_reports_too_deep_nesting_as_a_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "deep.peg"
        path.write_text(DEEP_GRAMMAR, encoding="utf-8")
        assert main(["grammar", "validate", str(path)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("syntax error:")
        assert "expression nested too deeply" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "arith", "1", "--seed", "5"],
        ["eval", "arith", "1", "--call-budget", "5"],
        ["matrix", "arith", "1", "--seed", "5"],
        ["matrix", "arith", "1", "--call-budget", "5"],
        ["bench", "blowup", "aN_b", "4", "packrat", "out.csv", "--seed", "5"],
        ["check", "arith", "3", "exhaustive", "--depth-limit", "5"],
    ],
)
def test_flags_a_subcommand_does_not_use_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
