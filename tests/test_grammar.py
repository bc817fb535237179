"""Grammar IR: constructors, nullability, validation, traversal."""

from __future__ import annotations

import pytest

from pegkit import (
    ANY,
    EMPTY,
    Char,
    Choice,
    Grammar,
    InvalidGrammarError,
    Ref,
    Rule,
    and_,
    char,
    charclass,
    choice,
    lit,
    make_grammar,
    new_session,
    not_,
    nullable,
    opt,
    plus,
    ref,
    seq,
    star,
    validate,
    walk_exprs,
)
from pegkit.oracles import naive_parse


def one_rule(body):
    return make_grammar([("S", body)])


class TestNullable:
    def test_empty_is_nullable(self):
        g = one_rule(EMPTY)
        assert nullable(g, EMPTY)

    def test_terminals_are_not_nullable(self):
        g = one_rule(char("+"))
        assert not nullable(g, char("+"))
        assert not nullable(g, charclass("ab"))
        assert not nullable(g, ANY)
        assert not nullable(g, lit("xy"))

    def test_empty_literal_is_nullable(self):
        g = one_rule(lit(""))
        assert nullable(g, lit(""))

    def test_star_and_opt_are_nullable(self):
        g = one_rule(char("a"))
        assert nullable(g, star(char("a")))
        assert nullable(g, opt(char("a")))
        assert not nullable(g, plus(char("a")))

    def test_predicates_are_nullable(self):
        g = one_rule(char("a"))
        assert nullable(g, and_(char("a")))
        assert nullable(g, not_(char("a")))

    def test_seq_nullable_iff_all_parts(self):
        g = one_rule(char("a"))
        assert nullable(g, seq(star(char("a")), opt(char("b"))))
        assert not nullable(g, seq(star(char("a")), char("b")))

    def test_choice_nullable_iff_any_alt(self):
        g = one_rule(char("a"))
        assert nullable(g, choice(char("a"), EMPTY))
        assert not nullable(g, choice(char("a"), char("b")))

    def test_fixpoint_through_rule_references(self):
        g = make_grammar(
            [
                ("A", ref("B")),
                ("B", choice(seq(char("x"), ref("A")), EMPTY)),
            ]
        )
        assert nullable(g, Ref(g.rule_id("A")))
        assert nullable(g, Ref(g.rule_id("B")))

    def test_mutually_recursive_rules_without_base_are_not_nullable(self):
        g = make_grammar(
            [
                ("A", seq(char("x"), ref("B"))),
                ("B", ref("A")),
            ]
        )
        assert not nullable(g, Ref(0))
        assert not nullable(g, Ref(1))

    def test_nullable_matches_naive_empty_input_behaviour(self, entries):
        # a rule is nullable exactly when the naive interpreter succeeds
        # consuming nothing on the empty string
        for entry in entries.values():
            if "left_recursive" in entry.traits:
                continue
            g = entry.grammar
            for rid in range(len(g.rules)):
                outcome = naive_parse(g, rid, 0, "").outcome
                assert (outcome == 0) == nullable(g, ref(rid)), (
                    entry.name,
                    g.rule_name(rid),
                )


class TestMakeGrammar:
    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_grammar([("S", char("a")), ("S", char("b"))])

    def test_start_defaults_to_first_rule(self):
        g = make_grammar([("A", char("a")), ("B", char("b"))])
        assert g.start == 0
        g2 = make_grammar([("A", char("a")), ("B", char("b"))], start="B")
        assert g2.start == 1

    def test_name_refs_resolve_to_indices(self):
        g = make_grammar([("A", ref("B")), ("B", char("b"))])
        assert g.rules[0].body == Ref(1)

    def test_rule_id_and_name_lookups(self):
        g = make_grammar([("A", char("a")), ("B", char("b"))])
        assert g.rule_id("B") == 1
        assert g.rule_name(0) == "A"
        with pytest.raises(KeyError):
            g.rule_id("missing")

    def test_empty_grammar_rejected(self):
        with pytest.raises(ValueError):
            Grammar(())

    def test_start_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Grammar((Rule("A", char("a")),), start=3)


class TestValidate:
    def test_catalog_grammars_have_no_errors(self, entries):
        for entry in entries.values():
            errors = [i for i in validate(entry.grammar) if i.severity == "error"]
            assert errors == [], entry.name

    def test_star_of_empty_reports_nullable_repetition(self):
        g = one_rule(star(EMPTY))
        codes = [i.code for i in validate(g)]
        assert "NullableRepetition" in codes

    def test_plus_of_nullable_rule_reports_nullable_repetition(self):
        g = make_grammar([("S", plus(ref("E"))), ("E", opt(char("x")))])
        issues = validate(g)
        assert any(
            i.code == "NullableRepetition" and i.rule == "S" for i in issues
        )

    def test_unknown_ref_index_reported(self):
        g = Grammar((Rule("A", Ref(99)),))
        issues = validate(g)
        assert [i.code for i in issues if i.severity == "error"] == ["UnknownRef"]
        assert issues[0].rule == "A"

    def test_unresolved_name_ref_reported(self):
        g = make_grammar([("A", ref("Missing"))])
        assert any(i.code == "UnknownRef" for i in validate(g))

    def test_empty_choice_reported(self):
        g = Grammar((Rule("A", Choice(())),))
        assert any(i.code == "EmptyChoice" for i in validate(g))

    def test_unreachable_rule_is_a_warning_not_an_error(self):
        g = make_grammar([("A", char("a")), ("Orphan", char("b"))])
        issues = validate(g)
        assert [i.code for i in issues] == ["UnreachableRule"]
        assert issues[0].severity == "warning"
        assert issues[0].rule == "Orphan"

    def test_issue_path_points_at_offending_subexpression(self):
        g = make_grammar([("S", seq(char("a"), star(EMPTY)))])
        issue = next(i for i in validate(g) if i.code == "NullableRepetition")
        assert issue.path == (1,)

    def test_node_of_a_subclass_or_foreign_type_reported(self):
        class MyChar(Char):
            pass

        g = one_rule(choice(seq(char("a"), MyChar("b")), "c"))
        issues = [(i.code, i.path, i.message) for i in validate(g)]
        assert issues == [
            ("UnknownNode", (0, 1), "MyChar is not an expression node type"),
            ("UnknownNode", (1,), "str is not an expression node type"),
        ]
        with pytest.raises(InvalidGrammarError, match="UnknownNode"):
            new_session(g, "ab")

    def test_validate_is_deterministic(self):
        g = make_grammar(
            [("S", seq(ref("Missing"), star(EMPTY))), ("Dead", char("d"))]
        )
        assert validate(g) == validate(g)


class TestWalkExprs:
    def test_preorder_over_all_rule_bodies(self):
        g = make_grammar([("A", seq(char("a"), ref("B"))), ("B", star(char("b")))])
        nodes = list(walk_exprs(g))
        # rule A's body first (preorder), then rule B's
        assert nodes[0] == seq(char("a"), Ref(1))
        assert nodes[1] == char("a")
        assert nodes[2] == Ref(1)
        assert nodes[3] == star(char("b"))
        assert nodes[4] == char("b")
        assert len(nodes) == 5
