"""Combinator layer: monadic sequencing, backtracking, rule slots."""

from __future__ import annotations

import pytest

from pegkit import FAIL, char, choice as gchoice, make_grammar, new_session, ref, seq, stats
from pegkit.combinators import (
    NoProgress,
    Parser,
    RuleSlot,
    UnboundSlot,
    and_pred,
    chain,
    char_satisfy,
    choice,
    fail,
    literal,
    many,
    many1,
    not_pred,
    pure,
    rule,
    semantic_guard,
    then,
)

DUMMY = make_grammar([("S", char("x"))])


def session_for(text: str):
    return new_session(DUMMY, text)


def run(p: Parser, text: str, pos: int = 0):
    return p.run(session_for(text), pos)


digit = char_satisfy(str.isdigit, "digit")
letter = char_satisfy(str.isalpha, "letter")


class TestPrimitives:
    def test_pure_consumes_nothing(self):
        assert run(pure(42), "abc") == (0, 42)
        assert run(pure("v"), "abc", 2) == (2, "v")

    def test_fail_always_fails(self):
        assert run(fail("nope"), "abc") is FAIL

    def test_char_satisfy_matches_single_characters(self):
        assert run(digit, "7x") == (1, "7")
        assert run(digit, "x7") is FAIL
        assert run(digit, "") is FAIL

    def test_literal_matches_exact_text(self):
        assert run(literal("=="), "==3") == (2, "==")
        assert run(literal("=="), "=3") is FAIL
        assert run(literal(""), "abc") == (0, "")


class TestMonadLaws:
    CASES = ["", "7", "ab", "7b", "b7"]

    def observe(self, p: Parser):
        # probe every valid position (0..n) of every case
        return [
            run(p, text, pos)
            for text in self.CASES
            for pos in range(len(text) + 1)
        ]

    def test_left_identity(self):
        f = lambda v: literal(v)  # noqa: E731
        assert self.observe(then(pure("a"), f)) == self.observe(f("a"))

    def test_right_identity(self):
        assert self.observe(then(digit, pure)) == self.observe(digit)

    def test_associativity(self):
        f = lambda v: pure(v * 2)  # noqa: E731
        g = lambda v: literal(v)  # noqa: E731
        lhs = then(then(letter, f), g)
        rhs = then(letter, lambda v: then(f(v), g))
        assert self.observe(lhs) == self.observe(rhs)

    def test_map_is_then_pure(self):
        assert run(digit.map(int), "7") == (1, 7)


class TestChoiceAndBacktracking:
    def test_first_success_wins(self):
        p = choice(literal("ab"), literal("a"))
        assert run(p, "ab") == (2, "ab")
        assert run(p, "ax") == (1, "a")

    def test_failure_restores_position(self):
        # 'ab' consumes 'a' before failing; the alternative must still
        # start from the original position
        p = choice(then(literal("a"), lambda _: literal("b")), literal("ax"))
        assert run(p, "ax") == (2, "ax")

    def test_or_operator_is_choice(self):
        assert run(literal("a") | literal("b"), "b") == (1, "b")

    def test_chain_collects_values(self):
        p = chain(digit, literal("+"), digit)
        assert run(p, "1+2") == (3, ("1", "+", "2"))
        assert run(p, "1-2") is FAIL


class TestRepetition:
    def test_many_is_greedy_and_can_match_zero(self):
        assert run(many(digit), "123x") == (3, ["1", "2", "3"])
        assert run(many(digit), "x") == (0, [])

    def test_many1_requires_one(self):
        assert run(many1(digit), "12") == (2, ["1", "2"])
        assert run(many1(digit), "x") is FAIL

    def test_zero_width_repetition_raises_no_progress(self):
        with pytest.raises(NoProgress):
            run(many(pure("loop")), "abc")
        with pytest.raises(NoProgress):
            run(many1(pure("loop")), "abc")


class TestPredicates:
    def test_and_pred_succeeds_without_consuming(self):
        p = then(and_pred(digit), lambda _: literal("7"))
        assert run(p, "7") == (1, "7")

    def test_not_pred_inverts_without_consuming(self):
        assert run(not_pred(digit), "x")[0] == 0
        assert run(not_pred(digit), "7") is FAIL

    def test_semantic_guard_filters_by_value(self):
        small = semantic_guard(digit.map(int), lambda v: v < 5)
        assert run(small, "3") == (1, 3)
        assert run(small, "9") is FAIL


class TestRuleSlots:
    def test_unbound_slot_raises(self):
        slot = RuleSlot("S")
        with pytest.raises(UnboundSlot, match="'S'"):
            run(rule(slot), "x")

    def test_bound_slot_parses_through_the_engine(self):
        g = make_grammar(
            [
                ("Pair", seq(ref("Digit"), ref("Digit"))),
                ("Digit", gchoice(*(char(str(d)) for d in range(10)))),
            ]
        )
        slot = RuleSlot("Pair").bind(
            g, lambda node, text: int(text[node.start : node.end])
        )
        s = new_session(g, "42")
        assert rule(slot).run(s, 0) == (2, 42)

    def test_slot_invocations_share_the_memo_matrix(self):
        g = make_grammar(
            [("Digit", gchoice(*(char(str(d)) for d in range(10))))]
        )
        slot = RuleSlot("Digit").bind(g, lambda node, text: text[node.start])
        p = rule(slot)
        s = new_session(g, "7")
        assert p.run(s, 0) == (1, "7")
        evaluated_once = stats(s).cells_evaluated
        assert p.run(s, 0) == (1, "7")
        assert stats(s).cells_evaluated == evaluated_once

    def test_combinator_values_stay_out_of_the_matrix(self):
        g = make_grammar([("Digit", gchoice(*(char(str(d)) for d in range(10))))])
        slot = RuleSlot("Digit").bind(g, lambda node, text: int(text[node.start]))
        s = new_session(g, "5")
        end, value = rule(slot).run(s, 0)
        assert (end, value) == (1, 5)
        memoized = s.matrix[0][0]
        # the matrix keeps the parse-tree outcome, not the decoded value
        assert memoized.span == (0, 1)
