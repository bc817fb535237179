"""Memoizing engine: memo matrix lifecycle, laziness, diagnostics."""

from __future__ import annotations

import gc
import itertools
import os
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import pegkit
from pegkit import (
    EMPTY,
    DepthExceeded,
    EngineConfig,
    FAIL,
    InvalidGrammarError,
    LeftRecursion,
    ParseFailed,
    ParseTreeNode,
    SamePositionCycle,
    UnsupportedConstruct,
    and_,
    cfg_end_table,
    char,
    choice,
    dump_matrix,
    furthest_failure,
    grammar_text,
    load_grammar,
    make_grammar,
    new_session,
    not_,
    opt,
    parse_complete,
    plus,
    ref,
    registry,
    run_deep,
    seq,
    star,
    stats,
    tabular_parse,
    validate,
)
from pegkit import engine
from pegkit.engine import (
    INPROGRESS, UNEVALUATED, ParseSession, span_int, value_text,
)
from pegkit.diffcheck import CheckConfig, run_check
from pegkit.grammar import Char, Seq, prepared
from pegkit.oracles import naive_parse

FIGURE_INPUT = "2*(3+4)"


def _nested_opts(e, levels):
    for _ in range(levels):
        e = opt(e)
    return e


class MyChar(Char):
    pass


class Cyclic:
    """An instance that refers to itself: garbage only the collector frees."""

    def __init__(self):
        self.me = self


@pytest.fixture
def arith(entries):
    return entries["arith"]


def done_cells(session):
    return [
        (r, p)
        for r, row in enumerate(session.matrix)
        for p, cell in enumerate(row)
        if cell is not UNEVALUATED and cell is not INPROGRESS
    ]


class TestMemoMatrix:
    def test_reference_parse_memo_cells(self, arith):
        s = new_session(arith.grammar, FIGURE_INPUT, evaluator=arith.evaluator)
        node = parse_complete(s)
        assert arith.evaluator(node, FIGURE_INPUT) == 14

        additive = arith.grammar.rule_id("Additive")
        primary = arith.grammar.rule_id("Primary")
        # "3+4" inside the parentheses: value 7, remainder starts at ')'
        out = s.matrix[additive][3]
        assert isinstance(out, ParseTreeNode) and out.end == 6
        assert arith.evaluator(out, FIGURE_INPUT) == 7
        # "(3+4)" as a parenthesized primary: value 7, remainder is EOF
        out = s.matrix[primary][2]
        assert isinstance(out, ParseTreeNode) and out.end == 7
        assert arith.evaluator(out, FIGURE_INPUT) == 7

    def test_reference_parse_cell_counts(self, arith):
        s = new_session(arith.grammar, FIGURE_INPUT)
        parse_complete(s)
        st = stats(s)
        assert st.cells_evaluated == 14
        assert st.char_cells_evaluated == 8
        assert st.total_cells == 22

    def test_demand_driven_laziness_leaves_cells_untouched(self, arith):
        s = new_session(arith.grammar, FIGURE_INPUT)
        parse_complete(s)
        n1 = len(FIGURE_INPUT) + 1
        capacity = len(arith.grammar.rules) * n1
        assert stats(s).cells_evaluated < capacity
        # e.g. nothing ever asks for an Additive at the '*' position
        additive = arith.grammar.rule_id("Additive")
        assert s.matrix[additive][1] is UNEVALUATED

    def test_cells_never_evaluated_twice(self, arith, counting_session_cls):
        s = counting_session_cls(arith.grammar, FIGURE_INPUT)
        parse_complete(s)
        assert max(s.eval_counts.values()) == 1
        assert sum(s.eval_counts.values()) == stats(s).cells_evaluated

    def test_repeated_apply_hits_the_memo(self, arith):
        s = new_session(arith.grammar, "2*2")
        first = s.apply(0, 0)
        before = stats(s)
        second = s.apply(0, 0)
        assert first is second
        after = stats(s)
        assert after.cells_evaluated == before.cells_evaluated
        assert after.expr_steps == before.expr_steps

    def test_memo_bound_rule_cells_times_positions(self, arith):
        for text in ("", "2", "2*", "2*(3+4)", "((((", "97+4*2"):
            s = new_session(arith.grammar, text)
            try:
                parse_complete(s)
            except ParseFailed:
                pass
            st = stats(s)
            n1 = len(text) + 1
            assert st.cells_evaluated <= len(arith.grammar.rules) * n1
            assert st.char_cells_evaluated <= n1

    def test_char_row_memoizes_one_leaf_per_position(self, arith):
        s = new_session(arith.grammar, "2*2")
        parse_complete(s)
        assert [c is not UNEVALUATED for c in s.char_row] == [True] * 4
        assert s.char_row[3] is FAIL  # EOF
        assert s.char_row[0].end == 1

    def test_stats_are_monotone_as_cells_are_forced(self, arith):
        s = new_session(arith.grammar, "1+2*3")
        seen = []
        for rid in range(len(arith.grammar.rules)):
            for pos in range(6):
                s.apply(rid, pos)
                seen.append(stats(s))
        for a, b in zip(seen, seen[1:]):
            assert b.cells_evaluated >= a.cells_evaluated
            assert b.expr_steps >= a.expr_steps
            assert b.memo_bytes_estimate >= a.memo_bytes_estimate


class TestDumpMatrix:
    def test_reference_dump(self, arith):
        s = new_session(arith.grammar, "2*2", evaluator=arith.evaluator)
        parse_complete(s)
        assert dump_matrix(s) == (
            "           C1      C2      C3      C4\n"
            "Additive   (4,C4)  ·       ·       ·\n"
            "Multitive  (4,C4)  ·       (2,C4)  ·\n"
            "Primary    (2,C2)  ·       (2,C4)  ·\n"
            "Decimal    (2,C2)  ·       (2,C4)  ·\n"
            "CHAR       (2,C2)  (*,C3)  (2,C4)  X\n"
        )

    def test_lazy_dump_shows_all_unevaluated(self, arith):
        s = new_session(arith.grammar, "2*2")
        lines = dump_matrix(s).splitlines()
        assert all("·" in line for line in lines[1:])
        assert "X" not in dump_matrix(s)

    def test_dump_never_forces_evaluation(self, arith):
        s = new_session(arith.grammar, "2*2")
        dump_matrix(s)
        assert stats(s).cells_evaluated == 0

    def test_digits_cell_of_a_long_literal(self, entries):
        lexed = entries["arith_lexed"]
        text = "1" + "0" * 4999
        s = new_session(lexed.grammar, text, evaluator=lexed.evaluator)
        s.apply(lexed.grammar.rule_id("Digits"), 0)
        assert "((1" + "0" * 4999 + ", 5000),C5001)" in dump_matrix(s)


class TestDecimalText:
    """Conversions between decimal text and integers of any length,
    checked under the lowest limit CPython accepts for int/str
    conversion (640 digits), set for the test only."""

    @pytest.fixture(autouse=True)
    def lowest_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("n", [1, 639, 640, 641, 1280, 1281, 5000])
    def test_round_trip(self, n):
        digits = "".join(random.Random(n).choices("0123456789", k=n))
        expected = 0
        for c in digits:
            expected = expected * 10 + "0123456789".index(c)
        text = "+" + digits + "*"
        assert span_int(text, 1, n + 1) == expected
        assert value_text(expected) == (digits.lstrip("0") or "0")
        assert value_text(-expected) == ("-" + digits.lstrip("0") if expected else "0")

    def test_powers_of_ten(self):
        for k in (639, 640, 641, 4300, 6000):
            assert value_text(10**k) == "1" + "0" * k
            assert value_text(10**k - 1) == "9" * k

    def test_other_values_read_as_str(self):
        for v in (0, -7, 12, "+", (), (5,), (42, 3), ("+", ()), True, None):
            assert value_text(v) == str(v)
        assert value_text((10**700, "+")) == "(1" + "0" * 700 + ", '+')"


class TestParseOutcomes:
    def test_parse_tree_children_tile_the_span(self, arith):
        def check(node):
            if node.children:
                assert node.children[0].start == node.start
                assert node.children[-1].end == node.end
                for a, b in zip(node.children, node.children[1:]):
                    assert a.end == b.start
                for kid in node.children:
                    check(kid)

        node = parse_complete(new_session(arith.grammar, FIGURE_INPUT))
        assert node.span == (0, 7)
        check(node)

    def test_failure_carries_rightmost_diagnostics(self, arith):
        s = new_session(arith.grammar, "2*(3+4")
        with pytest.raises(ParseFailed) as exc:
            parse_complete(s)
        assert exc.value.position == 6
        assert "')'" in ", ".join(exc.value.expected)

    def test_incomplete_match_reports_leftover(self, arith):
        s = new_session(arith.grammar, "1+2)")
        with pytest.raises(ParseFailed, match="not fully consumed"):
            parse_complete(s)

    def test_a_failure_with_nothing_recorded_is_reported_at_zero(self, arith):
        class Refusing(ParseSession):  # fails without trying a terminal
            def apply(self, rule, pos):
                return FAIL

        with pytest.raises(ParseFailed) as exc:
            parse_complete(Refusing(arith.grammar, "1+2"))
        assert (exc.value.position, exc.value.expected) == (0, frozenset())
        assert "parse failed" in str(exc.value)

    def test_sentinels_and_nodes_compare_as_values(self):
        assert (repr(UNEVALUATED), repr(FAIL)) == ("Unevaluated", "Fail")
        node = ParseTreeNode(0, 0, 1)
        assert node != (0, 0, 1) and not node == "node"
        # a child that is no node compares as a tuple item would
        odd = ParseTreeNode(0, 0, 2, (1.0, node))
        assert odd == ParseTreeNode(0, 0, 2, (1, ParseTreeNode(0, 0, 1)))
        assert odd != ParseTreeNode(0, 0, 2, (2, node))
        assert odd != ParseTreeNode(0, 0, 2, (node, 1.0))

    def test_furthest_failure_tracks_attempted_labels(self, arith):
        s = new_session(arith.grammar, "2*")
        with pytest.raises(ParseFailed):
            parse_complete(s)
        pos, labels = furthest_failure(s)
        assert pos == 2
        assert labels  # at least one terminal was attempted at EOF

    def test_eval_expr_wraps_multipart_matches(self, arith):
        s = new_session(arith.grammar, "2*2")
        out = s.eval_expr(seq(char("2"), char("*")), 0)
        assert out.end == 2
        assert out.rule is None and out.span == (0, 2)
        assert s.eval_expr(char("x"), 0) is FAIL

    # each used to leak TypeError, ValueError, IndexError or the
    # repetition guard's RuntimeError from the generated code
    # the message names the expression in the notation
    @pytest.mark.parametrize(
        "e, text, code, message",
        [
            (MyChar("a"), "'a'", "UnknownNode", "MyChar is not an expression node type"),
            (ref("Decimal"), "Decimal", "UnknownRef", "reference to unknown rule 'Decimal'"),
            (ref(99), "99", "UnknownRef", "reference to unknown rule 99"),
            (seq(), "", "EmptyChoice", "Seq with no elements"),
            (choice(), "", "EmptyChoice", "Choice with no elements"),
            (
                star(EMPTY),
                "()*",
                "NullableRepetition",
                "Star body can match empty and would repeat forever",
            ),
        ],
        ids=["subclass", "name", "index", "seq", "choice", "star"],
    )
    def test_eval_expr_refuses_what_validation_refuses(
        self, arith, e, text, code, message
    ):
        s = new_session(arith.grammar, "1+2")
        for _ in range(2):
            with pytest.raises(InvalidGrammarError) as exc:
                s.eval_expr(e, 0)
            assert [(i.code, i.rule, i.path) for i in exc.value.issues] == [
                (code, None, ())
            ]
            assert str(exc.value) == (
                f"expression has validation errors:\n"
                f"  {code} in expression {text!r}: {message}"
            )
        assert e not in prepared(arith.grammar).expr_code
        assert s.eval_expr(ref(arith.grammar.start), 0).span == (0, 3)

    def test_eval_expr_takes_an_unhashable_expression(self, arith):
        # a Seq whose parts are a list used to leak "unhashable type"
        s = new_session(arith.grammar, "1+2")
        got = s.eval_expr(Seq([Char("1"), Char("+")]), 0)
        assert got == s.eval_expr(seq(char("1"), char("+")), 0)
        assert got.span == (0, 2)
        assert s.eval_expr(Seq([Char("1")]), 0).span == (0, 1)
        with pytest.raises(InvalidGrammarError, match="in expression 'x': "):
            s.eval_expr(Seq([ref("x")]), 0)
        # an object that is no expression node is named by its repr
        with pytest.raises(InvalidGrammarError) as exc:
            s.eval_expr(Seq((1,)), 0)
        assert "UnknownNode in expression 'Seq(parts=(1,))': " in str(exc.value)

    def test_predicates_are_zero_width(self, arith):
        s = new_session(arith.grammar, "2*2")
        out = s.eval_expr(not_(char("x")), 1)
        assert out.end == 1 and out.span == (1, 1)

    def test_empty_input_parses_when_grammar_allows(self):
        g = make_grammar([("S", star(char("a")))])
        node = parse_complete(new_session(g, ""))
        assert node.span == (0, 0)


@pytest.mark.parametrize("pos", [-1, -3, 3, 10])
def test_out_of_range_positions_are_rejected(entries, pos):
    g = entries["arith_lexed"].grammar
    digit = g.rule_id("Digit")
    s = new_session(g, "12")
    fresh = ([list(row) for row in s.matrix], list(s.char_row), stats(s))
    with pytest.raises(ValueError, match="outside the input"):
        s.apply(digit, pos)
    with pytest.raises(ValueError, match="outside the input"):
        s.char_outcome(pos)
    with pytest.raises(ValueError, match="outside the input"):
        s.eval_expr(ref(digit), pos)
    assert ([list(row) for row in s.matrix], list(s.char_row), stats(s)) == fresh
    # -1 used to wrap to the end-of-input cell and leave a node there
    assert s.apply(digit, 2) is FAIL


@pytest.mark.parametrize("rule", [-1, -12, 12, 40])
def test_out_of_range_rules_are_rejected(entries, rule):
    g = entries["arith_lexed"].grammar
    s = new_session(g, "12 ")
    fresh = ([list(row) for row in s.matrix], list(s.char_row), stats(s))
    for pos in (0, 2, 5):
        with pytest.raises(ValueError, match="outside the grammar"):
            s.apply(rule, pos)
    assert ([list(row) for row in s.matrix], list(s.char_row), stats(s)) == fresh
    # -1 used to wrap to Whitespace's row and leave a node labelled -1 there
    whitespace = g.rule_id("Whitespace")
    assert s.apply(whitespace, 2).rule == whitespace


class TestErrors:
    def test_invalid_grammar_rejected_at_session_creation(self):
        g = make_grammar([("S", star(EMPTY))])
        with pytest.raises(InvalidGrammarError, match="NullableRepetition"):
            new_session(g, "x")

    def test_left_recursion_raises_with_cycle(self, entries):
        entry = entries["left_recursive_arith"]
        s = new_session(entry.grammar, "1+2")
        with pytest.raises(LeftRecursion) as exc:
            s.apply(entry.grammar.start, 0)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] == (entry.grammar.start, 0)

    def test_indirect_left_recursion_detected(self):
        g = make_grammar(
            [("A", choice(ref("B"), char("a"))), ("B", seq(ref("A"), char("b")))]
        )
        with pytest.raises(LeftRecursion) as exc:
            new_session(g, "ab").apply(0, 0)
        assert len(exc.value.cycle) == 3  # A -> B -> A

    def test_depth_limit_enforced(self, arith):
        deep = "(" * 50 + "1" + ")" * 50
        config = EngineConfig(depth_limit=20)
        with pytest.raises(DepthExceeded) as exc:
            parse_complete(new_session(arith.grammar, deep, config=config))
        assert exc.value.limit == 20

    def test_sessions_without_a_config_share_the_default(self, arith):
        a, b = new_session(arith.grammar, "1"), new_session(arith.grammar, "2")
        assert a.config == EngineConfig()
        assert a.config is b.config

    def test_depth_limit_below_one_is_rejected(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="depth_limit"):
                EngineConfig(depth_limit=bad)

    @pytest.mark.parametrize(
        "name, text, depth_limit, error",
        [
            ("left_recursive_arith", "1+2", 100, LeftRecursion),
            ("arith", "(" * 30 + "1" + ")" * 30, 20, DepthExceeded),
        ],
    )
    def test_session_aborted_by_an_error_refuses_reuse(
        self, entries, name, text, depth_limit, error
    ):
        g = entries[name].grammar
        s = new_session(g, text, config=EngineConfig(depth_limit=depth_limit))
        with pytest.raises(error):
            parse_complete(s)
        for _ in range(2):
            with pytest.raises(
                RuntimeError, match=rf"\({g.start}, 0\) .*discard the session"
            ):
                parse_complete(s)

    @pytest.mark.parametrize("counting", [False, True], ids=["plain", "counting"])
    @pytest.mark.parametrize(
        "name, text, depth_limit, error",
        [
            ("left_recursive_arith", "1+2", 100, LeftRecursion),
            ("arith", "(" * 30 + "1" + ")" * 30, 20, DepthExceeded),
        ],
    )
    def test_an_aborted_application_empties_the_active_stack(
        self, entries, counting_session_cls, counting, name, text, depth_limit, error
    ):
        # the interpreter stack is the stack of active applications, so
        # nothing of the aborted one stays active: its InProgress cell
        # refuses reuse, and a later application starts at depth 0
        g = entries[name].grammar
        cls = counting_session_cls if counting else ParseSession
        config = EngineConfig(depth_limit=depth_limit)
        s = cls(g, text, config=config)
        with pytest.raises(error):
            s.apply(g.start, 0)
        for _ in range(2):
            with pytest.raises(
                RuntimeError, match=rf"\({g.start}, 0\) .*discard the session"
            ):
                s.apply(g.start, 0)

        def outcome(s, pos):
            try:
                return s.apply(g.start, pos)
            except LeftRecursion as exc:
                return exc.cycle

        # a position the aborted application did not reach: "2" and "(1)"
        later = {"left_recursive_arith": 2, "arith": 29}[name]
        assert outcome(s, later) == outcome(cls(g, text, config=config), later)

    def test_a_stale_cell_under_another_sessions_frames_refuses_reuse(self):
        # Outer's wrapper of B applies A at 0 in `stale`, whose cell was
        # left InProgress, while Outer's own application of A at 0 is on
        # the stack: only the frames of `stale`'s own calls count
        g = make_grammar(
            [("A", choice(ref("B"), char("a"))), ("B", seq(ref("A"), char("b")))]
        )
        stale = ParseSession(g, "ab")
        with pytest.raises(LeftRecursion):
            stale.apply(0, 0)

        class Outer(ParseSession):
            def __init__(self, *args):
                super().__init__(*args)
                code = self._code

                def b(s, pos, d):
                    stale.apply(0, pos)
                    return code[1](s, pos, d)

                self._code = (code[0], b)

        with pytest.raises(RuntimeError, match=r"\(0, 0\) .*discard the session"):
            Outer(g, "ab").apply(0, 0)

    def test_star_over_nullable_is_unreachable_at_runtime(self):
        # the validator refuses it, so the engine guard stays internal
        g = make_grammar([("S", star(opt(char("a"))))])
        with pytest.raises(InvalidGrammarError):
            new_session(g, "aaa")


class TestCyclesFromFrames:
    """A LeftRecursion cycle is read from the interpreter frames of the
    applications in progress."""

    # A reaches B through 20 nested options, past the indentation where
    # the generator outlines code into a chunk; B applies A again
    GRAMMAR = make_grammar(
        [
            (
                "A",
                choice(seq(_nested_opts(seq(ref("B"), char("x")), 20), char("y")), char("a")),
            ),
            ("B", seq(ref("A"), char("b"))),
        ]
    )
    CYCLE = ((0, 1), (1, 1), (0, 1))

    def test_the_cycle_passes_through_a_chunk(self, monkeypatch):
        compiled = []

        def spy(source, *args):
            compiled.append(source)
            return compile(source, *args)

        monkeypatch.setattr(engine, "compile", spy, raising=False)
        g = make_grammar([(r.name, r.body) for r in self.GRAMMAR.rules])
        s = new_session(g, "zyy")
        # one function per rule and at least one chunk
        assert len(compiled) > len(g.rules)
        with pytest.raises(LeftRecursion) as exc:
            s.apply(0, 1)
        assert exc.value.cycle == self.CYCLE
        with pytest.raises(RuntimeError, match=r"\(0, 1\) .*discard the session"):
            s.apply(0, 1)

    def test_a_counting_session_reads_the_same_cycle(self, counting_session_cls):
        s = counting_session_cls(self.GRAMMAR, "zyy")
        with pytest.raises(LeftRecursion) as exc:
            s.apply(0, 1)
        assert exc.value.cycle == self.CYCLE

    def test_eval_expr_reads_the_same_cycle(self):
        s = new_session(self.GRAMMAR, "zyy")
        with pytest.raises(LeftRecursion) as exc:
            s.eval_expr(seq(ref(0), char("y")), 1)
        assert exc.value.cycle == self.CYCLE

    def test_an_idle_session_on_the_grammar_is_not_read(self):
        # the idle session holds InProgress cells of the same rules
        idle = new_session(self.GRAMMAR, "zyy")
        with pytest.raises(LeftRecursion):
            idle.apply(1, 0)
        cells = [list(row) for row in idle.matrix]
        s = new_session(self.GRAMMAR, "zyy")
        with pytest.raises(LeftRecursion) as exc:
            s.apply(0, 1)
        assert exc.value.cycle == self.CYCLE
        assert [list(row) for row in idle.matrix] == cells
        with pytest.raises(LeftRecursion) as exc:
            idle.apply(0, 1)
        assert exc.value.cycle == self.CYCLE

    def test_a_longer_cycle_is_read_from_its_first_cell_inward(self):
        g = make_grammar(
            [
                ("A", seq(char("x"), ref("B"))),
                ("B", choice(ref("C"), char("b"))),
                ("C", seq(ref("D"), char("c"))),
                ("D", choice(seq(ref("B"), char("d")), char("e"))),
            ]
        )
        with pytest.raises(LeftRecursion) as exc:
            new_session(g, "xb").apply(0, 0)
        assert exc.value.cycle == ((1, 1), (2, 1), (3, 1), (1, 1))
        assert str(exc.value) == "left recursion detected: B@1 -> C@1 -> D@1 -> B@1"


class TestRunDeep:
    def test_passes_values_and_exceptions_through(self):
        assert run_deep(lambda a, b: a + b, 2, 3) == 5
        with pytest.raises(KeyError):
            run_deep(lambda: (_ for _ in ()).throw(KeyError("boom")))

    def test_supports_very_deep_recursion(self):
        def depth(n: int) -> int:
            return 0 if n == 0 else 1 + depth(n - 1)

        assert run_deep(depth, 50_000) == 50_000

    def test_large_inputs_parse_and_evaluate(self, entries):
        entry = entries["arith_lexed"]
        text = "1" + "+1" * 3000
        s = new_session(entry.grammar, text)
        node = parse_complete(s)
        assert run_deep(entry.evaluator, node, text) == 3001

    def test_concurrent_deep_parses_do_not_disturb_each_other(self):
        # in a subprocess, since the race it guards against can abort the
        # interpreter instead of raising
        script = Path(__file__).with_name("two_deep_threads.py")
        env = {**os.environ, "PYTHONPATH": str(Path(pegkit.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("long parse ok")


class TestDeepInputs:
    """Deep parses run on the calling thread, with an exact depth limit."""

    CHAIN = "1" + "+1" * 10_000

    @pytest.fixture
    def lexed(self, entries):
        return entries["arith_lexed"].grammar

    def test_direct_apply_parses_a_deep_chain(self, lexed):
        s = new_session(lexed, self.CHAIN)
        out = s.apply(lexed.start, 0)
        assert out is not FAIL and out.end == len(self.CHAIN)

    def test_depth_limit_is_an_exact_count(self, lexed):
        s = new_session(lexed, self.CHAIN)
        parse_complete(s)
        k = stats(s).max_active_depth

        def via_parse_complete(s):
            return parse_complete(s).end

        def via_apply(s):
            return s.apply(lexed.start, 0).end

        for parse in (via_parse_complete, via_apply):
            config = EngineConfig(depth_limit=k)
            assert parse(new_session(lexed, self.CHAIN, config=config)) == len(self.CHAIN)
            config = EngineConfig(depth_limit=k - 1)
            with pytest.raises(DepthExceeded) as exc:
                parse(new_session(lexed, self.CHAIN, config=config))
            assert exc.value.limit == k - 1

    def test_depth_limit_is_an_exact_count_in_a_counting_session(
        self, lexed, counting_session_cls
    ):
        s = counting_session_cls(lexed, self.CHAIN)
        parse_complete(s)
        k = stats(s).max_active_depth
        config = EngineConfig(depth_limit=k)
        s = counting_session_cls(lexed, self.CHAIN, config=config)
        assert parse_complete(s).end == len(self.CHAIN)
        config = EngineConfig(depth_limit=k - 1)
        s = counting_session_cls(lexed, self.CHAIN, config=config)
        with pytest.raises(DepthExceeded) as exc:
            parse_complete(s)
        assert exc.value.limit == k - 1
        with pytest.raises(RuntimeError, match="discard the session"):
            parse_complete(s)

    def test_eval_expr_runs_a_deep_chain_with_the_outermost_handling(
        self, lexed, monkeypatch
    ):
        def state():
            return sys.getrecursionlimit(), gc.isenabled()

        before = state()
        s = new_session(lexed, self.CHAIN)
        s.apply(lexed.start, 0)
        k, cells = stats(s).max_active_depth, stats(s).cells_evaluated
        s = new_session(lexed, self.CHAIN, config=EngineConfig(depth_limit=k))
        node = s.eval_expr(ref(lexed.start), 0)
        # the rule's memo cell, filled as apply fills it (a tree this deep
        # is too deep to compare with ==)
        assert node.end == len(self.CHAIN) and s.apply(lexed.start, 0) is node
        assert stats(s).cells_evaluated == cells
        assert state() == before
        s = new_session(lexed, self.CHAIN, config=EngineConfig(depth_limit=k - 1))
        with pytest.raises(DepthExceeded) as exc:
            s.eval_expr(ref(lexed.start), 0)
        assert exc.value.limit == k - 1
        with pytest.raises(RuntimeError, match="discard the session"):
            s.eval_expr(ref(lexed.start), 0)
        assert state() == before
        monkeypatch.setattr(engine, "DEEP_RECURSION_LIMIT", 5000)
        chain = "1" + "+1" * engine.DEEP_RECURSION_LIMIT
        s = new_session(lexed, chain, config=EngineConfig(depth_limit=10**9))
        with pytest.raises(DepthExceeded, match="frame budget"):
            s.eval_expr(ref(lexed.start), 0)
        with pytest.raises(RuntimeError, match="discard the session"):
            s.eval_expr(ref(lexed.start), 0)
        assert state() == before

    # the same length as CHAIN, differing only past its 9,998th "+1"
    OTHER = "1" + "+1" * 9_998 + "+11 "

    def test_deep_trees_compare_and_hash(self, lexed):
        a, b, c = (
            parse_complete(new_session(lexed, text))
            for text in (self.CHAIN, self.CHAIN, self.OTHER)
        )
        assert a is not b and a.span == c.span
        assert a == b and not a != b
        assert a != c and not a == c
        assert hash(a) == hash(b)
        assert a == ParseTreeNode(a.rule, a.start, a.end, b.children)
        assert a != ParseTreeNode(a.rule, a.start, a.end, c.children)

    def test_deep_trees_compare_under_run_deep(self):
        # in a subprocess: a comparison that recursed in C per tree level
        # overflowed the C stack under the raised recursion limit
        script = f"""
from pegkit import grammar_text, load_grammar, new_session, parse_complete, run_deep
g = load_grammar(grammar_text("arith_lexed"))
a, b, c = (parse_complete(new_session(g, t)) for t in {[self.CHAIN, self.CHAIN, self.OTHER]!r})
print(run_deep(a.__eq__, b), run_deep(a.__eq__, c), run_deep(a.__ne__, c))
print(run_deep(hash, a) == hash(b))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(pegkit.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == "True False True\nTrue\n"

    DEEP_SEQ = """
from pegkit import *
k = 20_000
e = char("a")
for _ in range(k):
    e = seq(char("x"), e)
text = "'x' " + "('x' " * (k - 1) + "'a'" + ")" * (k - 1)
"""

    @pytest.mark.parametrize(
        "script",
        [
            # the failure label of the predicate is rendered when read
            DEEP_SEQ + """
s = new_session(Grammar((Rule("S", seq(not_(e), char("x"))),)), "x" * k + "a")
try:
    parse_complete(s)
except ParseFailed:
    print(furthest_failure(s) == (0, frozenset({"!(" + text + ")"})))
""",
            DEEP_SEQ + "print(run_deep(render_expr, e) == text)",
            DEEP_SEQ + """
e = ref("S")
for _ in range(k):
    e = plus(seq(char("x"), e))
print(run_deep(validate, run_deep(make_grammar, [("S", e)])) == ())
""",
            DEEP_SEQ + """
a = b = char("y")
for _ in range(k):
    a, b = opt(seq(char("x"), a)), opt(seq(char("x"), b))
c = opt(seq(char("x"), e))
print(run_deep(hash, a) == run_deep(hash, b) and run_deep(a.__eq__, b)
      and not run_deep(a.__eq__, c) and run_deep(a.__ne__, opt(b)))
""",
        ],
        ids=["parse", "render", "make_grammar", "hash"],
    )
    def test_deep_grammars_build_and_render_under_run_deep(self, script):
        # in a subprocess: rendering, name resolution, and the dataclass
        # hash and == of expressions recursed in C per tree level and
        # overflowed the C stack under the raised limit
        env = {**os.environ, "PYTHONPATH": str(Path(pegkit.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == "True\n"

    def test_eval_expr_of_an_expression_too_deep_to_hash(self):
        # hashing it for the code cache raised RecursionError; expressions
        # now hash with their own stack, so its code is kept
        g = make_grammar([("S", char("x"))])
        e = char("y")
        for _ in range(2_000):
            e = opt(seq(char("x"), e))
        s = new_session(g, "x" * 2_000 + "y")
        kept = len(prepared(g).expr_code)
        assert s.eval_expr(e, 0).end == 2_001
        assert s.eval_expr(e, 1_000).end == 2_000  # the y needs 2,000 x before it
        assert len(prepared(g).expr_code) == kept + 1

    def test_eval_expr_names_an_invalid_expression_of_any_depth(self):
        g = make_grammar([("S", char("x"))])
        e = ref("missing")
        for _ in range(20_000):
            e = seq(char("x"), e)
        s = new_session(g, "x")
        with pytest.raises(InvalidGrammarError) as exc:
            s.eval_expr(e, 0)
        assert [i.code for i in exc.value.issues] == ["UnknownRef"]
        text = "'x' " + "('x' " * 19_999 + "missing" + ")" * 19_999
        assert f"UnknownRef in expression {text!r}" in str(exc.value)

    def test_recursion_limit_is_restored(self, lexed):
        def state():
            return sys.getrecursionlimit(), gc.isenabled()

        before = state()
        s = new_session(lexed, self.CHAIN)
        assert state() == before
        parse_complete(s)
        assert state() == before
        new_session(lexed, self.CHAIN).apply(lexed.start, 0)
        assert state() == before
        with pytest.raises(KeyError):
            run_deep(lambda: (_ for _ in ()).throw(KeyError("boom")))
        assert state() == before

    def test_a_thread_already_deep_reenters_without_the_lock(self, monkeypatch, entries):
        class CountingLock:
            def __init__(self):
                self.lock, self.acquired = threading.Lock(), 0

            def __enter__(self):
                self.acquired += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        lock = CountingLock()
        monkeypatch.setattr(engine, "_deep_lock", lock)
        # every naive, tabular and CFG run and every outermost application
        # nests in the one section entered per grammar; the lock is taken
        # to enter and to leave it
        chosen = [entries[name] for name in ("arith", "composition_lvalue", "blowup")]
        report = run_check(chosen, CheckConfig(max_len=6, mode="random", trials=20))
        assert report.ok and lock.acquired == 2 * len(chosen)
        for text in ("1+2*3", "(1)", "7"):
            lock.acquired = 0
            parse_complete(new_session(entries["arith"].grammar, text))
            assert lock.acquired == 2

    def test_a_lowered_limit_is_raised_again_when_nested(self):
        def lower_then_nest():
            sys.setrecursionlimit(1_000)
            return run_deep(sys.getrecursionlimit)

        before = sys.getrecursionlimit()
        assert run_deep(lower_then_nest) >= engine.DEEP_RECURSION_LIMIT
        assert sys.getrecursionlimit() == before

    def test_collector_is_paused_while_deep(self):
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            assert run_deep(gc.isenabled) is False
            assert gc.isenabled()
        finally:
            if not was_enabled:
                gc.disable()

    def test_a_callers_collector_pause_is_kept(self, lexed, entries):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            parse_complete(new_session(lexed, self.CHAIN))
            assert not gc.isenabled()
            with pytest.raises(KeyError):
                run_deep(lambda: (_ for _ in ()).throw(KeyError("boom")))
            assert not gc.isenabled()
            lra = entries["left_recursive_arith"].grammar
            with pytest.raises(LeftRecursion):
                parse_complete(new_session(lra, "1+2"))
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()

    # 8,001 characters: a parse leaves ~46,000 young tracked objects, far
    # more than the young generations hold by the default thresholds
    EIGHT_K = "1" + "+1" * 4_000

    @pytest.fixture
    def collector_on(self):
        was_enabled = gc.isenabled()
        gc.enable()
        yield
        if not was_enabled:
            gc.disable()

    def test_a_large_parse_leaves_nothing_for_a_young_collection(
        self, lexed, collector_on
    ):
        t0 = gc.get_threshold()[0]
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        s = new_session(lexed, self.EIGHT_K)
        parse_complete(s)
        assert gc.get_count()[0] <= t0
        gc.callbacks.append(record)
        try:
            Cyclic()
        finally:
            gc.callbacks.remove(record)
        assert started == []

    def test_a_callers_frozen_objects_stay_frozen(self, lexed, collector_on):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            parse_complete(new_session(lexed, self.EIGHT_K))
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_objects_frozen_at_start_up_are_immortal(self):
        # CPython 3.12.1 starts with tuples frozen; the promotion after a
        # large parse unfreezes them, which is harmless only if every one
        # is immortal.  Where none is frozen, there is nothing to check.
        probe = (
            "import gc, sys\n"
            "immortal = getattr(sys, '_is_immortal',\n"
            "                   lambda o: sys.getrefcount(o) >= 2**32 - 1)\n"
            "before = {id(o) for o in gc.get_objects()}\n"
            "frozen = gc.get_freeze_count()\n"
            "gc.unfreeze()\n"
            "released = [o for o in gc.get_objects()\n"
            "            if id(o) not in before and o is not before]\n"
            "print(frozen, len(released), sum(map(immortal, released)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", probe], capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        frozen, released, immortal = map(int, proc.stdout.split())
        assert frozen == released == immortal

    @pytest.mark.parametrize("size", ["small", "8k"])
    def test_cyclic_garbage_made_before_a_parse(self, lexed, collector_on, size):
        # A large parse moves every young object, this cycle too, to the
        # oldest generation, so only a full collection frees it.
        text = "12 + 3*(45 + 6) * 78" if size == "small" else self.EIGHT_K
        s = new_session(lexed, text)
        gc.collect()
        cycle = weakref.ref(Cyclic())
        parse_complete(s)
        gc.collect(1)
        assert (cycle() is None) == (size == "small")
        gc.collect()
        assert cycle() is None

    def test_interpreter_limit_is_a_backstop(self, lexed, monkeypatch):
        monkeypatch.setattr(engine, "DEEP_RECURSION_LIMIT", 5000)
        before = sys.getrecursionlimit()
        assert before < 5000
        config = EngineConfig(depth_limit=10**9)
        # each "+1" nests one more Additive application, and every
        # application takes at least one interpreter frame
        chain = "1" + "+1" * engine.DEEP_RECURSION_LIMIT
        s = new_session(lexed, chain, config=config)
        with pytest.raises(DepthExceeded) as exc:
            parse_complete(s)
        assert exc.value.limit == 10**9
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize("counting", [False, True], ids=["plain", "counting"])
    def test_the_backstop_empties_the_active_stack(
        self, lexed, monkeypatch, counting_session_cls, counting
    ):
        monkeypatch.setattr(engine, "DEEP_RECURSION_LIMIT", 5000)
        config = EngineConfig(depth_limit=10**9)
        chain = "1" + "+1" * engine.DEEP_RECURSION_LIMIT
        cls = counting_session_cls if counting else ParseSession
        s = cls(lexed, chain, config=config)
        with pytest.raises(DepthExceeded, match="frame budget"):
            s.apply(lexed.start, 0)
        with pytest.raises(RuntimeError, match="discard the session"):
            s.apply(lexed.start, 0)
        # the last "1", which the aborted application did not reach, is
        # applied as in a fresh session, whose depth limit is exact
        assert s.apply(lexed.start, len(chain) - 1).end == len(chain)
        fresh = cls(lexed, chain)
        fresh.apply(lexed.start, len(chain) - 1)
        k = stats(fresh).max_active_depth
        fresh = cls(lexed, chain, config=EngineConfig(depth_limit=k))
        assert fresh.apply(lexed.start, len(chain) - 1).end == len(chain)
        fresh = cls(lexed, chain, config=EngineConfig(depth_limit=k - 1))
        with pytest.raises(DepthExceeded):
            fresh.apply(lexed.start, len(chain) - 1)


#: An accepted and a rejected input of each catalog grammar.  Both end
#: in LeftRecursion on left_recursive_arith, as every input does.
SAMPLE_INPUTS = {
    "arith": ("2*(7+2)", "2*("),
    "arith_left_assoc": ("7-2-2", "7-"),
    "arith_lexed": ("27 + 2*(7)", "2 +"),
    "lookahead_ab": ("xzy", "xzz"),
    "composition_assign": ("a=(a)", "a=("),
    "composition_lvalue": ("a[a]=a", "a[="),
    "peg_limitation": ("xxx", "xx"),
    "left_recursive_arith": ("2-7", "2-"),
    "blowup": ("aab", "ba"),
}


@pytest.mark.parametrize("name", list(registry()))
def test_no_step_leaves_cyclic_garbage(name, entries):
    """Everything a parse, a validation or an oracle drops is freed by
    reference counting, which is what makes pausing the collector during
    a parse leak nothing."""
    g = load_grammar(grammar_text(name))
    accepted, rejected = SAMPLE_INPUTS[name]
    left = "left_recursive" in entries[name].traits
    gc.collect()
    validate(g)
    assert gc.collect() == 0, "validate"
    new_session(g, accepted)
    assert gc.collect() == 0, "new_session"
    for text, config, expected in (
        (accepted, None, LeftRecursion if left else None),
        (rejected, None, LeftRecursion if left else ParseFailed),
        (accepted, EngineConfig(depth_limit=1), LeftRecursion if left else DepthExceeded),
    ):
        try:
            parse_complete(new_session(g, text, config=config))
            got = None
        except (ParseFailed, LeftRecursion, DepthExceeded) as exc:
            got = type(exc)
        assert got is expected, text
        assert gc.collect() == 0, (text, expected)
    for oracle in (
        lambda g, text: naive_parse(g, g.start, 0, text), tabular_parse, cfg_end_table
    ):
        try:
            oracle(g, accepted)
        except (UnsupportedConstruct, SamePositionCycle, LeftRecursion):
            pass
        assert gc.collect() == 0, oracle.__name__


class TestRepetition:
    """Star and Plus share one loop; no catalog grammar exercises them."""

    GRAMMAR = make_grammar(
        [
            (
                "S",
                seq(star(ref("A")), plus(ref("B")), opt(char("c")), not_(char("a"))),
            ),
            ("A", seq(char("a"), opt(char("b")))),
            (
                "B",
                choice(
                    seq(and_(char("b")), char("b"), star(char("c"))),
                    seq(char("c"), not_(char("c"))),
                ),
            ),
            ("P", plus(choice(ref("A"), char("c")))),
        ]
    )
    TEXTS = [
        "".join(t) for n in range(7) for t in itertools.product("abc", repeat=n)
    ]

    def test_every_cell_tree_is_pinned(self, cells_digest):
        # recorded on the engine whose rule functions appended to a
        # children list
        assert cells_digest(self.GRAMMAR, self.TEXTS) == "d1399248f553bb022d2a1d7e014d0088"

    def test_engine_matches_naive_at_every_cell(self):
        g = self.GRAMMAR
        for text in self.TEXTS:
            s = new_session(g, text)
            for rid in range(len(g.rules)):
                for pos in range(len(text) + 1):
                    out = s.apply(rid, pos)
                    got = None if out is FAIL else out.end
                    want = naive_parse(g, rid, pos, text).outcome
                    assert got == want, (g.rule_name(rid), pos, text)

    def test_plus_is_body_then_star(self):
        g = self.GRAMMAR
        body = choice(ref(g.rule_id("A")), char("c"))
        for text in self.TEXTS:
            for pos in range(len(text) + 1):
                s1, s2 = new_session(g, text), new_session(g, text)
                assert s1.eval_expr(plus(body), pos) == s2.eval_expr(
                    seq(body, star(body)), pos
                ), (text, pos)
                assert furthest_failure(s1) == furthest_failure(s2), (text, pos)
