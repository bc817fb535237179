"""Memoizing engine: memo matrix lifecycle, laziness, diagnostics."""

from __future__ import annotations

import gc
import itertools
import os
import subprocess
import sys
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
from pegkit.engine import INPROGRESS, UNEVALUATED
from pegkit.grammar import Char, prepared
from pegkit.oracles import naive_parse

FIGURE_INPUT = "2*(3+4)"


class MyChar(Char):
    pass


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
    @pytest.mark.parametrize(
        "e, code, message",
        [
            (MyChar("a"), "UnknownNode", "MyChar is not an expression node type"),
            (ref("Decimal"), "UnknownRef", "reference to unknown rule 'Decimal'"),
            (ref(99), "UnknownRef", "reference to unknown rule 99"),
            (seq(), "EmptyChoice", "Seq with no elements"),
            (choice(), "EmptyChoice", "Choice with no elements"),
            (
                star(EMPTY),
                "NullableRepetition",
                "Star body can match empty and would repeat forever",
            ),
        ],
        ids=["subclass", "name", "index", "seq", "choice", "star"],
    )
    def test_eval_expr_refuses_what_validation_refuses(self, arith, e, code, message):
        s = new_session(arith.grammar, "1+2")
        for _ in range(2):
            with pytest.raises(InvalidGrammarError) as exc:
                s.eval_expr(e, 0)
            assert [(i.code, i.rule, i.path) for i in exc.value.issues] == [
                (code, None, ())
            ]
            assert str(exc.value) == (
                f"grammar has validation errors:\n  {code} in rule None: {message}"
            )
        assert e not in prepared(arith.grammar).expr_code
        assert s.eval_expr(ref(arith.grammar.start), 0).span == (0, 3)

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

    def test_star_over_nullable_is_unreachable_at_runtime(self):
        # the validator refuses it, so the engine guard stays internal
        g = make_grammar([("S", star(opt(char("a"))))])
        with pytest.raises(InvalidGrammarError):
            new_session(g, "aaa")


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

    def test_interpreter_limit_is_a_backstop(self, lexed, monkeypatch):
        monkeypatch.setattr(engine, "DEEP_RECURSION_LIMIT", 5000)
        before = sys.getrecursionlimit()
        assert before < 5000
        config = EngineConfig(depth_limit=10**9)
        # each "+1" nests one more Additive application, and every
        # application takes at least two interpreter frames
        chain = "1" + "+1" * engine.DEEP_RECURSION_LIMIT
        s = new_session(lexed, chain, config=config)
        with pytest.raises(DepthExceeded) as exc:
            parse_complete(s)
        assert exc.value.limit == 10**9
        assert sys.getrecursionlimit() == before


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
    for oracle in (tabular_parse, cfg_end_table):
        try:
            oracle(g, accepted)
        except (UnsupportedConstruct, SamePositionCycle):
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
