"""Catalog grammars: evaluators, traits, shipped .peg sources."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from importlib import resources

import pytest

from pegkit import (
    EngineConfig,
    LeftRecursion,
    format_grammar,
    grammar_text,
    new_session,
    parse_complete,
    registry,
    run_deep,
)
from pegkit import catalog
from pegkit.bench import make_input
from pegkit.catalog import entry

EXPECTED_NAMES = {
    "arith",
    "arith_left_assoc",
    "arith_lexed",
    "lookahead_ab",
    "composition_assign",
    "composition_lvalue",
    "peg_limitation",
    "left_recursive_arith",
    "blowup",
}


def short_texts(alphabet: str, max_len: int) -> list[str]:
    return [
        "".join(t)
        for n in range(max_len + 1)
        for t in itertools.product(alphabet, repeat=n)
    ]


# Recorded on the engine whose rule functions appended to a children
# list: per catalog grammar, the digest of its parses (inputs up to
# length 3 from the exhaustive alphabet and 30 random ones of length 4
# to 16, default and depth_limit=3) and of its cells forced one by one
# (inputs up to length 2).
PINNED = {
    "arith": (
        "759968c11989a2f58cdf8c665c92b44b",
        "9c6244ea176d51c5635d8770d3f03347",
    ),
    "arith_left_assoc": (
        "3ed8799fca2707af4ea7245bea25742c",
        "ec2508dc49aa023623e78e2726c44603",
    ),
    "arith_lexed": (
        "317fd5cd6e7c6abb2dc2d00f3d396dee",
        "1854889898af21cdd737822091137ecb",
    ),
    "blowup": (
        "87b7e735b4a2af8d2ba58a4d4d1d98f6",
        "41c83c5632a9770518191e600f0c04fa",
    ),
    "composition_assign": (
        "d1828de1c94e0491375cfd0f43041441",
        "d4b76952315d85296d085922d65cacc5",
    ),
    "composition_lvalue": (
        "5d66a5b5ad9d220ae09833ea4ce491ba",
        "037a52ec92d95b1e0f89224b2e4e469b",
    ),
    "left_recursive_arith": (
        "146704b059b5da17fe5c307dfca09854",
        "6d42c0bc506365ff4938a344f55ce4ba",
    ),
    "lookahead_ab": (
        "c93fe2ad8fbd558fe1c5e307f1e44ba8",
        "29a731fa1c45be8791cb622d8a8b2411",
    ),
    "peg_limitation": (
        "f462dd3b577d8e3a76839658da46c8a0",
        "58d61de247bc371735022d5f9279961d",
    ),
}


def test_catalog_outputs_are_pinned(entries, parses_digest, cells_digest):
    rng = random.Random(0)
    got = {}
    for name in sorted(entries):
        entry = entries[name]
        texts = short_texts(entry.exhaustive_alphabet, 3) + [
            "".join(rng.choices(entry.alphabet, k=rng.randint(4, 16)))
            for _ in range(30)
        ]
        configs = (None, EngineConfig(depth_limit=3))
        got[name] = (
            parses_digest(entry.grammar, texts, configs),
            cells_digest(
                entry.grammar, short_texts(entry.exhaustive_alphabet, 2)
            ),
        )
    assert got == PINNED


def test_counting_sessions_give_the_pinned_cells(
    entries, cells_digest, counting_session_cls
):
    # a session that wraps each rule's code to count its applications
    # gives the same cells, stats and furthest failures
    for name in sorted(entries):
        g = entries[name].grammar
        texts = short_texts(entries[name].exhaustive_alphabet, 2)
        got = cells_digest(g, texts, session=counting_session_cls)
        assert got == PINNED[name][1], name
        config = EngineConfig(depth_limit=3)
        assert cells_digest(
            g, texts, config, session=counting_session_cls
        ) == cells_digest(g, texts, config), name


def evaluate(entry, text):
    node = parse_complete(new_session(entry.grammar, text))
    return entry.evaluator(node, text)


class TestRegistry:
    def test_contains_exactly_the_expected_entries(self, entries):
        assert set(entries) == EXPECTED_NAMES

    def test_names_are_consistent(self, entries):
        for name, entry in entries.items():
            assert entry.name == name

    def test_registry_returns_fresh_entries(self):
        a = registry()["arith"]
        b = registry()["arith"]
        assert a is not b
        assert a.grammar.names == b.grammar.names

    def test_entry_builds_the_registry_entry(self, entries):
        for name, expected in entries.items():
            got = entry(name)
            assert got is not expected
            assert format_grammar(got.grammar) == format_grammar(expected.grammar)
            assert (got.alphabet, got.traits) == (expected.alphabet, expected.traits)

    def test_unknown_entry_names_the_whole_catalog(self):
        with pytest.raises(KeyError) as exc:
            entry("mystery")
        assert exc.value.args[0] == (
            "unknown grammar 'mystery' (catalog: arith, arith_left_assoc, "
            "arith_lexed, lookahead_ab, composition_assign, composition_lvalue, "
            "peg_limitation, left_recursive_arith, blowup)"
        )

    def test_alphabets_are_nonempty(self, entries):
        for entry in entries.values():
            assert entry.alphabet
            assert entry.exhaustive_alphabet


# Recorded from the catalog's former Python-built grammars: per entry,
# the md5 of ``format_grammar`` and the start rule index.
PINNED_GRAMMARS = {
    "arith": ("a000fc2a1940d81fa5078add7a025a68", 0),
    "arith_left_assoc": ("c41568c5d9a336073d2c5362b1e8a0fb", 0),
    "arith_lexed": ("95ef8463b7e456e4bc0d844f5bd4f3e3", 0),
    "blowup": ("b127d574e0cd268937910037c2822490", 0),
    "composition_assign": ("fe46644b334317d86190d01bbf496a86", 0),
    "composition_lvalue": ("643e4588d13c892a0c62e42779d0a942", 0),
    "left_recursive_arith": ("8d96a58384cd2c95847fed785737c699", 0),
    "lookahead_ab": ("f2237c42cea0f1faf8eaa7f4e2573aec", 0),
    "peg_limitation": ("fdc2c76bce0baa5ff22b2969a04b126f", 0),
}


class TestShippedGrammarFiles:
    def test_grammars_are_pinned(self, entries):
        got = {
            name: (
                hashlib.md5(format_grammar(e.grammar).encode()).hexdigest(),
                e.grammar.start,
            )
            for name, e in entries.items()
        }
        assert got == PINNED_GRAMMARS

    def test_every_shipped_file_is_an_entry(self, entries):
        shipped = {
            f.name.removesuffix(".peg")
            for f in resources.files("pegkit").joinpath("grammars").iterdir()
            if f.name.endswith(".peg")
        }
        assert shipped == set(entries)

    def test_unknown_grammar_file_raises(self):
        with pytest.raises(FileNotFoundError):
            grammar_text("no_such_grammar")


class TestArith:
    def test_reference_value(self, entries):
        assert evaluate(entries["arith"], "2*(3+4)") == 14

    def test_precedence_and_grouping(self, entries):
        arith = entries["arith"]
        assert evaluate(arith, "1+2*3") == 7
        assert evaluate(arith, "(1+2)*3") == 9
        assert evaluate(arith, "7") == 7

    def test_single_digit_numbers_only(self, entries, accepts):
        assert not accepts(entries["arith"].grammar, "12")

    def test_agrees_with_lexed_variant_on_plain_inputs(self, entries):
        # whitespace-free, single-digit inputs parse identically in the
        # scannerless variant
        for text in ("2*(3+4)", "1+2*3", "(1+2)*3", "9", "(((5)))"):
            assert evaluate(entries["arith"], text) == evaluate(
                entries["arith_lexed"], text
            )


class TestArithLeftAssoc:
    def test_subtraction_is_left_associative(self, entries):
        entry = entries["arith_left_assoc"]
        assert evaluate(entry, "9-2-3") == 4  # (9-2)-3, not 9-(2-3)
        assert evaluate(entry, "5-1+2") == 6

    def test_multiplication_still_binds_tighter(self, entries):
        assert evaluate(entries["arith_left_assoc"], "9-2*3") == 3


class TestArithLexed:
    def test_whitespace_tolerated_between_tokens(self, entries):
        entry = entries["arith_lexed"]
        assert evaluate(entry, " 1 + 2\t*  3 ") == 7

    def test_multi_digit_numbers(self, entries):
        assert evaluate(entries["arith_lexed"], "12*12") == 144
        assert evaluate(entries["arith_lexed"], "100+23") == 123

    def test_whitespace_value_is_unit(self, entries):
        entry = entries["arith_lexed"]
        g = entry.grammar
        s = new_session(g, "  1")
        out = s.apply(g.rule_id("Whitespace"), 0)
        assert entry.evaluator(out, "  1") == ()

    def test_digits_value_carries_digit_count(self, entries):
        entry = entries["arith_lexed"]
        g = entry.grammar
        s = new_session(g, "042")
        out = s.apply(g.rule_id("Digits"), 0)
        assert entry.evaluator(out, "042") == (42, 3)

    def test_literal_past_the_int_string_limit(self, entries):
        # 5,000 digits: past CPython's default 4,300-digit limit on
        # int/str conversion, which the evaluator must not trip
        entry = entries["arith_lexed"]
        g = entry.grammar
        text = "".join(random.Random(5000).choices("0123456789", k=5000))
        expected = 0
        for c in text:
            expected = expected * 10 + "0123456789".index(c)
        s = new_session(g, text)
        assert run_deep(entry.evaluator, parse_complete(s), text) == expected
        digits = s.apply(g.rule_id("Digits"), 0)
        assert run_deep(entry.evaluator, digits, text) == (expected, 5000)


def _sentence(rng: random.Random, entry) -> str:
    # a random sentence of the entry's grammar: numbers of up to three
    # digits and blanks where the grammar allows them, operators from its
    # alphabet, parentheses nested up to three deep
    lexed = " " in entry.alphabet
    ops = [c for c in "+-*" if c in entry.alphabet]

    def blank() -> str:
        return "".join(rng.choices(" \t", k=rng.randint(0, 2))) if lexed else ""

    def operand(depth: int) -> str:
        if depth and rng.random() < 0.3:
            return "(" + blank() + expr(depth - 1) + ")" + blank()
        k = rng.randint(1, 3) if lexed else 1
        return "".join(rng.choices("0123456789", k=k)) + blank()

    def expr(depth: int) -> str:
        out = [operand(depth)]
        for _ in range(rng.randint(0, 3)):
            out += [rng.choice(ops) + blank(), operand(depth)]
        return "".join(out)

    return blank() + expr(3)


# Recorded with the evaluator whose handlers each took a child's value
# through the public evaluator, and whose Digits recursed once per
# digit: per arithmetic grammar, the md5 of the evaluator's value at
# every success cell, all cells forced, on 300 random sentences and a
# one-character mutation of each, and the number of those cells.
PINNED_VALUES = {
    "arith": ("7fd262cf5de2c2ad0b77e704db7325d0", 14115),
    "arith_left_assoc": ("57649ee6a82e16c6f81874cea4cb290a", 24006),
    "arith_lexed": ("5ae9ba96ae56be593c01801e4638645e", 73315),
}


def test_evaluator_values_are_pinned(entries):
    got = {}
    for name in PINNED_VALUES:
        entry = entries[name]
        g = entry.grammar
        rng = random.Random(f"values:{name}")
        texts = []
        for _ in range(300):
            text = _sentence(rng, entry)
            at = rng.randrange(len(text))
            texts += [text, text[:at] + rng.choice(entry.alphabet) + text[at + 1:]]
        h = hashlib.md5()
        cells = 0
        for text in texts:
            s = new_session(g, text)
            for rule in range(len(g.rules)):
                for pos in range(len(text) + 1):
                    out = s.apply(rule, pos)
                    if out:
                        cells += 1
                        value = run_deep(entry.evaluator, out, text)
                        h.update(f"{text!r} {rule} {pos} {value!r}\n".encode())
        got[name] = (h.hexdigest(), cells)
    assert got == PINNED_VALUES


@pytest.mark.parametrize(
    "name, text, value",
    [
        ("arith", "2*(3+4)*5+6+(7)", 83),
        ("arith_left_assoc", "9-2-(3*4-1)+5", 1),
        ("arith_lexed", " 12 * (345 +6)\t* 7890 + 1", 12 * 351 * 7890 + 1),
    ],
)
def test_evaluation_takes_one_frame_per_visited_node(entries, name, text, value):
    # counted with the profiler: every catalog frame is entered with a
    # node, no node twice but the root (the public entry and its
    # handler), and a number is read from its span, not its Digits chain
    entry = entries[name]
    node = parse_complete(new_session(entry.grammar, text))
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == catalog.__file__:
            seen.append(frame.f_locals[frame.f_code.co_varnames[0]])

    sys.setprofile(profile)
    try:
        got = entry.evaluator(node, text)
    finally:
        sys.setprofile(None)
    assert got == value
    assert seen[0] is node and seen[1] is node
    assert len({id(n) for n in seen}) == len(seen) - 1
    names = entry.grammar.names
    assert "Digits" not in {names[n.rule] for n in seen}


class TestLookaheadAb:
    def test_accepts_both_suffix_lengths(self, entries, accepts):
        g = entries["lookahead_ab"].grammar
        for n in range(1, 6):
            assert accepts(g, "x" * n + "z" + "y" * n)
            assert accepts(g, "x" * n + "z" + "y" * (2 * n))

    def test_rejects_mismatched_counts(self, entries, accepts):
        g = entries["lookahead_ab"].grammar
        assert not accepts(g, "xzyy" + "y")
        assert not accepts(g, "xxzyyy")
        assert not accepts(g, "xxz")
        assert not accepts(g, "z")
        assert not accepts(g, "")

    def test_trait(self, entries):
        assert "non_lr_k" in entries["lookahead_ab"].traits


class TestComposition:
    def test_assignment_statements(self, entries, accepts):
        g = entries["composition_assign"].grammar
        assert accepts(g, "a=a+a")
        assert accepts(g, "aa=a")
        assert accepts(g, "a+a==a-a")
        assert accepts(g, "a!=a")
        assert accepts(g, "(a+a)-a")

    def test_equality_vs_assignment_disambiguation(self, entries, accepts):
        g = entries["composition_assign"].grammar
        assert accepts(g, "a==a")   # relation, not assignment to 'a='
        assert accepts(g, "a=a==a")  # assignment whose value is a relation
        assert not accepts(g, "a=")
        assert not accepts(g, "=a")

    def test_assign_requires_identifier_on_the_left(self, entries, accepts):
        assert not accepts(entries["composition_assign"].grammar, "(a)=a")

    def test_lvalue_allows_parenthesized_and_indexed_targets(self, entries, accepts):
        g = entries["composition_lvalue"].grammar
        assert accepts(g, "(a)=a")
        assert accepts(g, "a[a]=a")
        assert accepts(g, "a[a][a+a]=a[a]")
        assert accepts(g, "(a[a])[a]=a")
        assert not accepts(g, "a[=a")


class TestPegLimitation:
    def test_accepts_one_and_three_rejects_five(self, entries, accepts):
        g = entries["peg_limitation"].grammar
        assert accepts(g, "x")
        assert accepts(g, "xxx")
        assert not accepts(g, "xxxxx")

    def test_trait(self, entries):
        assert "peg_cfg_divergent" in entries["peg_limitation"].traits


class TestLeftRecursiveArith:
    def test_every_input_reports_left_recursion(self, entries):
        entry = entries["left_recursive_arith"]
        for text in ("", "1", "1+2", "(1)"):
            s = new_session(entry.grammar, text)
            with pytest.raises(LeftRecursion):
                s.apply(entry.grammar.start, 0)

    def test_trait(self, entries):
        assert "left_recursive" in entries["left_recursive_arith"].traits


class TestBlowup:
    def test_accepts_two_or_more_as(self, entries, accepts):
        entry = entries["blowup"]
        for k in range(0, 8):
            assert accepts(entry.grammar, make_input("aN_b", k)) == (k >= 2)
