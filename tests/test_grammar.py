"""Grammar IR: constructors, nullability, validation, traversal."""

from __future__ import annotations

import hashlib
import random
import sys
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
    Star,
    and_,
    char,
    charclass,
    choice,
    format_grammar,
    lit,
    make_grammar,
    new_session,
    not_,
    nullable,
    opt,
    plus,
    ref,
    render_expr,
    seq,
    star,
    validate,
    walk_exprs,
)
from pegkit import grammar
from pegkit.grammar import _expr_nullable, prepared
from pegkit.oracles import naive_parse
from test_oracles import random_grammars


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

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("shape", ["chain", "fan"])
    def test_a_long_chain_of_rules_needs_no_round_per_rule(self, shape, reverse):
        # the fixpoint read every rule once per round, and this chain takes
        # one round per rule: 3,000 rules took 7.9 s, 10,000 over 110 s
        n = 10_000 if shape == "chain" else 3_000
        rules = [(f"A{i}", ref(f"A{i + 1}")) for i in range(n - 1)]
        rules.append((f"A{n - 1}", EMPTY))
        if shape == "fan":  # one rule calls every rule of the chain
            rules.insert(0, ("S", seq(*(ref(f"A{i}") for i in range(n)))))
        g = make_grammar(rules[::-1] if reverse else rules)
        start = time.process_time()
        assert prepared(g).nullability == (True,) * len(rules)
        assert time.process_time() - start < 1

    def test_each_node_is_visited_once_whatever_the_rule_order(self, monkeypatch):
        # A0 <- A1 ; ... ; A(k-1) <- Ak ; S <- A0 A1 ... Ak ; Ak <- () ;
        # a worklist that re-read S whenever a rule of the chain turned
        # nullable read S's k + 2 nodes once per rule: 1.80 s at k = 1,000,
        # and 9,024,008 node visits here
        k = 3_000
        rules = [(f"A{i}", ref(f"A{i + 1}")) for i in range(k)]
        rules += [("S", seq(*(ref(f"A{i}") for i in range(k + 1)))), (f"A{k}", EMPTY)]
        g = make_grammar(rules)
        nodes = sum(1 for _ in walk_exprs(g))
        visits = 0
        children = grammar._children

        def counted(e):
            nonlocal visits
            visits += 1
            return children(e)

        monkeypatch.setattr(grammar, "_children", counted)
        assert prepared(g).nullability == (True,) * len(rules)
        assert nodes == 2 * k + 3 and visits <= 2 * nodes

    def test_the_table_is_the_least_fixed_point(self, entries, random_expr):
        def fixpoint(g):  # the former algorithm: rounds until none changes
            table = [False] * len(g.rules)
            changed = True
            while changed:
                changed = False
                for i, rule in enumerate(g.rules):
                    if not table[i] and _expr_nullable(rule.body, table):
                        table[i] = changed = True
            return tuple(table)

        grammars = [g for g, _ in random_grammars(random_expr)]
        assert len(grammars) == 424
        grammars += [entry.grammar for entry in entries.values()]
        grammars += list(PINNED_GRAMMARS.values())
        grammars.append(make_grammar([("A", ref("B")), ("B", seq(ref("A"), ref("C"))),
                                      ("C", choice(char("x"), ref("B"), EMPTY))]))
        for g in grammars:
            assert prepared(g).nullability == fixpoint(g), format_grammar(g)


class TestMakeGrammar:
    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_grammar([("S", char("a")), ("S", char("b"))])

    def test_the_first_name_that_occurs_twice_is_reported(self):
        rules = [("A", char("a")), ("B", char("b")), ("B", char("b")), ("A", char("a"))]
        with pytest.raises(ValueError, match="duplicate rule name 'A'"):
            make_grammar(rules)

    def test_many_rules_build_in_linear_time(self):
        # counting each name's occurrences in the whole list took ~7 s here
        rules = [(f"R{i}", choice(ref(f"R{i + 1}"), char("b"))) for i in range(19_999)]
        rules.append(("R19999", char("a")))
        start = time.process_time()
        g = make_grammar(rules)
        assert time.process_time() - start < 1
        assert g.rules[0].body == choice(ref(1), char("b"))

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

    def test_terminals_take_single_characters_only(self):
        with pytest.raises(ValueError, match="Char expects a single character, got 'ab'"):
            Char("ab")
        with pytest.raises(ValueError, match="single characters, got 'xy'"):
            charclass(["a", "xy"])


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

    def test_nullability_is_linear_and_stack_safe_in_nesting(self):
        # a recursive walk ran out of stack at 3,000 levels, and each Plus
        # walked its body again
        assert sys.getrecursionlimit() < 20_000
        e = char("a")
        for _ in range(20_000):
            e = plus(e)
        start = time.process_time()
        g = Grammar((Rule("S", e),))
        assert validate(g) == ()
        assert not nullable(g, e)
        assert nullable(g, star(e))
        g = Grammar((Rule("S", plus(choice(e, EMPTY))),))
        issues = validate(g)
        assert time.process_time() - start < 2
        assert [(i.code, i.path) for i in issues] == [("NullableRepetition", ())]

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


# one level of each chain around the expression e, and its text around e's
CHAIN_LEVELS = {
    "Plus": (lambda e: plus(seq(char("x"), e)), "('x' ", ")+"),
    "Star": (lambda e: star(seq(char("x"), e)), "('x' ", ")*"),
    "Opt": (lambda e: opt(seq(char("x"), e)), "('x' ", ")?"),
    "And": (lambda e: and_(seq(char("x"), e)), "&('x' ", ")"),
    "Not": (lambda e: not_(seq(char("x"), e)), "!('x' ", ")"),
    "Seq": (lambda e: seq(char("x"), e), "('x' ", ")"),
    "Choice": (lambda e: choice(char("x"), e), "('x' / ", ")"),
}


class TestDeepTrees:
    """Building, validating, ``nullable``, rendering and formatting keep
    their own stacks: no depth needs a raised recursion limit."""

    @pytest.mark.parametrize("kind", list(CHAIN_LEVELS))
    def test_a_deep_chain_goes_through_every_tree_pass(self, kind):
        # recursive name resolution raised RecursionError at 500 levels,
        # and rendering at 400
        k = 20_000
        assert sys.getrecursionlimit() < k
        level, before, after = CHAIN_LEVELS[kind]

        def chain(name):
            e = ref(name)
            for _ in range(k):
                e = level(e)
            return make_grammar([("A", e), ("B", char("y"))])

        text = before * k + "B" + after * k
        if kind in ("Seq", "Choice"):
            text = text[1:-1]  # the outermost level needs no parentheses
        start = time.process_time()
        g = chain("B")
        assert validate(g) == ()  # Ref("B") resolved
        assert nullable(g, g.rules[0].body) == (kind in ("Star", "Opt", "And", "Not"))
        assert render_expr(g.rules[0].body, g.names) == text
        assert format_grammar(g) == f"A <- {text} ;\nB <- 'y' ;\n"
        twin, other = chain("B"), chain("C")  # other differs at the bottom
        assert g == twin and hash(g) == hash(twin) and g != other
        assert time.process_time() - start < 6


def test_expressions_compare_and_hash_by_structure(random_expr):
    # equal exactly when their reprs are, as with the dataclass methods
    rng = random.Random(1911)
    draws = [random_expr(rng, rng.randint(0, 3), 2, True, [3]) for _ in range(400)]
    equal = 0
    for a in draws:
        for b in draws[:40]:
            same = repr(a) == repr(b)
            assert (a == b) is same and (a != b) is not same, (a, b)
            if same:
                equal += 1
                assert hash(a) == hash(b)
    assert equal > 400
    a = char("a")
    assert seq(a) != choice(a) and opt(a) != star(a)
    assert MySeq((a,)) == MySeq((a,)) and MySeq((a,)) != seq(a) != MySeq((a,))
    listed = Seq([a, opt(a)])
    assert listed == Seq([a, opt(a)]) and listed != seq(a, opt(a))
    for unhashable in (listed, not_(listed)):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(unhashable)


class EqSeq(Seq):
    """A ``Seq`` of its own equality (by arity), and so unhashable."""

    def __eq__(self, other):
        return type(other) is EqSeq and len(self.parts) == len(other.parts)


class HashSeq(Seq):
    """A ``Seq`` of its own hash, which structural equality implies."""

    def __hash__(self):
        return len(self.parts)


class BothSeq(EqSeq):
    def __eq__(self, other):
        return type(other) is BothSeq and len(self.parts) == len(other.parts)

    def __hash__(self):
        return len(self.parts)


def _odd_expressions() -> list:
    """Expressions with list, tuple and string parts, ``Seq`` subclasses
    of each kind at the root and inside a tree, and a few non-nodes."""
    a = char("a")
    out = [
        seq(a), seq(a, a), choice(a), opt(seq(a)), Seq(()), Choice(()),
        Seq([a, opt(a)]), Seq((a, opt(a))), not_(Seq([a])), Choice([a]),
        Star([a]), Star((a, a)), Star(seq(a, a)),
        Seq((("x", a), a)), Seq((("x", Seq((a,))),)), Seq(("ab", a)),
        Seq("ab"), Seq(("a", "b")), Ref("A"), Ref(0),
        # parts that look like a node's entry in the flat shape
        Seq(((Seq, 0),)), Seq((Seq(()),)), Seq(((Seq, [a]),)), Seq((Seq([a]),)),
        "ab", (Seq, 1), None,
    ]
    for kind in (EqSeq, HashSeq, BothSeq, MySeq):
        out += [kind((a,)), kind((a, a)), opt(kind((a,))), seq(a, kind((a,))),
                choice(kind((a, opt(a))), a)]
    return out


def _verdict(a, b) -> str:
    def hashed(x):
        try:
            return hash(x)
        except TypeError as exc:
            return str(exc)

    eq, ha, hb = a == b, hashed(a), hashed(b)
    return f"{eq} {a != b} {ha == hb if eq else ''} {type(ha).__name__}"


def test_equality_and_hash_agreement_are_pinned(random_expr):
    # ==, != and whether equal expressions hash alike, pinned before the
    # two walkers of _Composite became one flat shape
    def draws():
        rng = random.Random(2004)
        return [random_expr(rng, rng.randint(0, 4), 3, True, [6]) for _ in range(600)]

    left, right = draws(), draws()[:60]  # equal draws are distinct objects
    odd, twins = _odd_expressions(), _odd_expressions()
    lines = [_verdict(a, b) for a in left for b in right]
    lines += [_verdict(a, b) for a in odd for b in twins + right]
    lines += [_verdict(b, a) for a in odd for b in right]
    assert sum(line.startswith("True") for line in lines) > 800
    digest = hashlib.md5("\n".join(lines).encode()).hexdigest()
    assert digest == "93249e7f5657688dc9f0f3bc0a17cd72"
