"""Grammar IR: constructors, nullability, validation, traversal."""

from __future__ import annotations

import time

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
    Seq,
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


class MyChar(Char):
    pass


class MySeq(Seq):
    pass


# hand-built grammars with issues of every kind, and what validate()
# reports for each, field by field and in order
PINNED_GRAMMARS = {
    "ref_true_one_rule": Grammar((Rule("A", Ref(True)),)),
    # True is an int, so with two rules it names rule 1
    "ref_true_two_rules": Grammar(
        (Rule("A", seq(char("a"), Ref(True))), Rule("B", char("b")))
    ),
    "ref_name": Grammar((Rule("A", Ref("x")),)),
    "ref_out_of_range": Grammar(
        (Rule("A", choice(Ref(-1), Ref(2), Ref(1.0))), Rule("B", EMPTY))
    ),
    "empty_seq_and_choice": Grammar(
        (Rule("A", choice(Seq(()), char("a"), star(Choice(())))),)
    ),
    "nullable_star": make_grammar(
        [
            ("S", seq(star(opt(char("a"))), plus(ref("E")), star(Seq(())))),
            ("E", choice(char("e"), and_(char("f")))),
        ]
    ),
    "char_subclass": Grammar(
        (
            Rule("A", choice(seq(char("a"), MyChar("b")), "c", star(MyChar("d")))),
            Rule("B", MySeq((Ref(99), star(EMPTY)))),
        )
    ),
    "many_rules": make_grammar(
        [
            ("Start", seq(ref("Mid"), not_(ANY), ref("Gone"))),
            ("Dead", plus(star(char("d")))),
            ("Mid", choice(lit(""), seq(plus(lit("")), ref("Mid")))),
            ("Alone", ref("Dead")),
        ]
    ),
}

_NEVER_ENDS = "body can match empty and would repeat forever"

PINNED_ISSUES = {
    "ref_true_one_rule": [
        ("error", "UnknownRef", "A", (), "reference to unknown rule True"),
    ],
    "ref_true_two_rules": [],
    "ref_name": [
        ("error", "UnknownRef", "A", (), "reference to unknown rule 'x'"),
    ],
    "ref_out_of_range": [
        ("error", "UnknownRef", "A", (0,), "reference to unknown rule -1"),
        ("error", "UnknownRef", "A", (1,), "reference to unknown rule 2"),
        ("error", "UnknownRef", "A", (2,), "reference to unknown rule 1.0"),
        ("warning", "UnreachableRule", "B", (),
         "rule 'B' is not reachable from the start rule"),
    ],
    "empty_seq_and_choice": [
        ("error", "EmptyChoice", "A", (0,), "Seq with no elements"),
        ("error", "EmptyChoice", "A", (2, 0), "Choice with no elements"),
    ],
    "nullable_star": [
        ("error", "NullableRepetition", "S", (0,), f"Star {_NEVER_ENDS}"),
        ("error", "NullableRepetition", "S", (1,), f"Plus {_NEVER_ENDS}"),
        ("error", "NullableRepetition", "S", (2,), f"Star {_NEVER_ENDS}"),
        ("error", "EmptyChoice", "S", (2, 0), "Seq with no elements"),
    ],
    "char_subclass": [
        ("error", "UnknownNode", "A", (0, 1), "MyChar is not an expression node type"),
        ("error", "UnknownNode", "A", (1,), "str is not an expression node type"),
        ("error", "UnknownNode", "A", (2, 0), "MyChar is not an expression node type"),
        ("error", "UnknownNode", "B", (), "MySeq is not an expression node type"),
        ("warning", "UnreachableRule", "B", (),
         "rule 'B' is not reachable from the start rule"),
    ],
    "many_rules": [
        ("error", "UnknownRef", "Start", (2,), "reference to unknown rule 'Gone'"),
        ("error", "NullableRepetition", "Dead", (), f"Plus {_NEVER_ENDS}"),
        ("error", "NullableRepetition", "Mid", (1, 0), f"Plus {_NEVER_ENDS}"),
        ("warning", "UnreachableRule", "Dead", (),
         "rule 'Dead' is not reachable from the start rule"),
        ("warning", "UnreachableRule", "Alone", (),
         "rule 'Alone' is not reachable from the start rule"),
    ],
}


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
        # nor warnings: every catalog rule is reachable
        for entry in entries.values():
            assert validate(entry.grammar) == (), entry.name

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

    def test_validation_is_linear_in_nesting(self):
        # copying the path at every node took 6 s at this depth
        e = star(EMPTY)
        for _ in range(20_000):
            e = plus(seq(char("x"), e))
        g = Grammar((Rule("S", e),))
        start = time.process_time()
        issues = validate(g)
        assert time.process_time() - start < 2
        assert [(i.code, i.path) for i in issues] == [
            ("NullableRepetition", (0, 1) * 20_000)
        ]

    @pytest.mark.parametrize("name", sorted(PINNED_ISSUES))
    def test_issues_are_pinned(self, name):
        g = PINNED_GRAMMARS[name]
        got = [
            (i.severity, i.code, i.rule, i.path, i.message) for i in validate(g)
        ]
        assert got == PINNED_ISSUES[name]

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
