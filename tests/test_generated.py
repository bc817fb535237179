"""The engine's generated rule functions: outlining, grammar text kept out
of the source, frames per rule application and the eval_expr cache."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from pegkit import (
    ParseFailed,
    char,
    charclass,
    choice,
    furthest_failure,
    grammar_text,
    lit,
    load_grammar,
    make_grammar,
    new_session,
    not_,
    parse_complete,
    plus,
    ref,
    registry,
    seq,
    stats,
)
import pegkit
from pegkit import engine
from pegkit.engine import ParseSession
from pegkit.grammar import Grammar, prepared


# Recorded with the closure compiler that the generator replaced: the
# tree's leaves, stats() and the furthest failure of "aba", and the
# message for "abba".
@pytest.mark.parametrize("depth, steps", [(30, 533), (120, 7508)])
def test_deeply_nested_repetitions_parse(depth, steps):
    # Without outlining, the inline code of 30 levels has too many
    # nested loops for Python and that of 120 too many indentation levels.
    g = load_grammar("S <- " + "(" * depth + "'a' 'b'?" + ")+" * depth + " ;")
    s = new_session(g, "aba")
    tree = parse_complete(s)
    assert [k.span for k in tree.children] == [(0, 1), (1, 2), (2, 3)]
    assert dataclasses.astuple(stats(s)) == (1, 4, steps, 1, 480)
    assert furthest_failure(s) == (3, frozenset({"'a'", "'b'"}))
    with pytest.raises(ParseFailed) as exc:
        parse_complete(new_session(g, "abba"))
    assert str(exc.value) == (
        "input not fully consumed (matched up to position 2) at position 2 "
        "(column 3); expected one of: 'a'"
    )


# Recorded on the engine whose rule functions appended to a children
# list: every cell forced on every input up to length 4.  Choices whose
# alternatives differ in child count sit inside sequences, options,
# repetitions and, in the second grammar, outlined chunks.
@pytest.mark.parametrize(
    "source, alphabet, digest",
    [
        (
            "S <- 'a' ('b' / 'c' 'd') 'e'? / 'x' T ;"
            " T <- ('a' / 'b' 'c')* ('d' 'e' / 'e')? / 'c' T ;",
            "abcdex",
            "27a4b1d10c0c23bb3620f43fc867ebaf",
        ),
        (
            "S <- " + "(" * 30 + "'a' ('b' / 'c' 'd')?" + ")+" * 30 + " 'e'? ;",
            "abcde",
            "a6c5c5c229896239f7e5fa751f45a07c",
        ),
        # recorded on the generator that kept one local per child for a
        # choice of equal arity, and wrote an option ending a body, an
        # option with no children and a repetition of one child each
        # their own way
        (
            "S <- 'x' ('a' / 'b') 'y' / ('a' 'b' / 'b' 'a') T / U ;"
            " T <- 'a' 'b'? / (&'a')? 'b' 'a'* ;"
            " U <- (T / 'b')* ('a' 'b')+ ;",
            "abxy",
            "f810afdc20ed231f1980792a48ca1526",
        ),
    ],
    ids=["choices", "outlined", "shapes"],
)
def test_variable_arity_trees_are_pinned(source, alphabet, digest, cells_digest):
    texts = ["".join(t) for n in range(5) for t in itertools.product(alphabet, repeat=n)]
    assert cells_digest(load_grammar(source), texts) == digest


def test_one_alternative_choice_tree_is_pinned(cells_digest):
    # recorded on the generator that wrote such a choice as its one
    # alternative; the notation cannot spell it
    g = make_grammar([("S", choice(seq(char("a"), choice(ref("S"))), char("b")))])
    texts = ["".join(t) for n in range(5) for t in itertools.product("ab", repeat=n)]
    assert cells_digest(g, texts) == "bcb202c0e0d0e3d9975cbeba13cca316"


def test_catalog_generated_source_is_pinned(monkeypatch):
    # The code that every benchmark workload runs.  A change to it should
    # be deliberate: re-record the digest and say so in CHANGES.md.
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(engine, "compile", spy, raising=False)
    for entry in registry().values():
        new_session(entry.grammar, "")
    assert len(sources) == 9
    digest = hashlib.md5("".join(sources).encode()).hexdigest()
    assert digest == "79c1d2ee7bf739c3c2633a18ef02e70f"


def test_three_hundred_nested_predicates():
    # the generator recurses a few frames deep per nesting level
    g = load_grammar("S <- " + "!" * 301 + "'a' 'b' ;")
    s = new_session(g, "b")
    assert parse_complete(s).span == (0, 1)
    assert stats(s).expr_steps == 304


DEEP_GRAMMARS = {
    "plus30": "S <- " + "(" * 30 + "'a' 'b'?" + ")+" * 30 + " ;",
    "plus120": "S <- " + "(" * 120 + "'a' 'b'?" + ")+" * 120 + " ;",
    "not301": "S <- " + "!" * 301 + "'a' 'b' ;",
}


@pytest.mark.parametrize("name", DEEP_GRAMMARS)
def test_outlined_code_stays_within_sixteen_levels(name, monkeypatch):
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(engine, "compile", spy, raising=False)
    new_session(load_grammar(DEEP_GRAMMARS[name]), "")
    lines = [line for source in sources for line in source.splitlines()]
    assert max((len(line) - len(line.lstrip(" "))) // 4 for line in lines) <= 16
    if name == "plus120":
        # outlined where the indentation runs out, every chunk inlines
        # several levels: one function per level would be 120
        assert sum(line.startswith("def ") for line in lines) <= 12


DEEP_CHAIN = """
from pegkit import new_session, parse_complete
from pegkit.grammar import Char, Grammar, Plus, Rule, Seq

e = Char("a")
for _ in range(5000):
    e = Plus(Seq((Char("x"), e)))
s = new_session(Grammar((Rule("S", e),)), "x" * 5000 + "a")
print(parse_complete(s).span)
"""


def test_a_five_thousand_level_chain_generates_and_parses():
    # in a subprocess: a generator that recursed through C code per level
    # overflowed the C stack here under the raised recursion limit
    env = {**os.environ, "PYTHONPATH": str(Path(pegkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_CHAIN], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "(0, 5001)\n"


def test_generated_code_is_freed_with_its_grammar():
    g = load_grammar("S <- " + "(" * 120 + "'a' 'b'?" + ")+" * 120 + " ;")
    parse_complete(new_session(g, "ab"))
    functions = [weakref.ref(f) for f in prepared(g).code]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del g
        # freed by reference counting: no function and its globals,
        # nor an outlined chunk and its caller, form a cycle
        assert [f() for f in functions] == [None]
    finally:
        if enabled:
            gc.enable()


START = "q\"uote's"
TOKEN = 'back\\slash\n{name}"""'
BANG = '__import__("os").system("exit 1")'
HOSTILE = make_grammar(
    [
        (START, seq(plus(ref(TOKEN)), not_(ref(BANG)))),
        (
            TOKEN,
            choice(
                lit('"""'),
                lit("'''"),
                lit("{0}"),
                lit('"); raise SystemExit("'),
                lit("\\n"),
                charclass("\\\n'\"{}"),
            ),
        ),
        (BANG, seq(char("!"), lit("#{x}"))),
    ]
)
# (input, (rule, start, end, child count) of each child of the tree, or
# the ParseFailed message), recorded with the closure compiler.
HOSTILE_CASES = [
    ('"""\'\'\'{0}', [(1, 0, 3, 3), (1, 3, 6, 3), (1, 6, 9, 3)]),
    ('\\\n\'"{}', [(1, 0, 1, 1), (1, 1, 2, 1), (1, 2, 3, 1), (1, 3, 4, 1), (1, 4, 5, 1), (1, 5, 6, 1)]),
    ('"); raise SystemExit("\\n', [(1, 0, 22, 22), (1, 22, 24, 2)]),
    ('{0}!', 'input not fully consumed (matched up to position 3) at position 4 (column 5); expected one of: "#{x}"'),
    ('{0}!#{x}', 'parse failed at position 3 (column 4); expected one of: !__import__("os").system("exit 1"), "\'\'\'", "\\"); raise SystemExit(\\"", "\\"\\"\\"", "\\\\n", "{0}", [\\n"\'\\\\{}]'),
    ('', 'parse failed at position 0 (column 1); expected one of: "\'\'\'", "\\"); raise SystemExit(\\"", "\\"\\"\\"", "\\\\n", "{0}", [\\n"\'\\\\{}]'),
]


@pytest.mark.parametrize("text, expected", HOSTILE_CASES)
def test_grammar_text_that_looks_like_code(text, expected):
    s = new_session(HOSTILE, text)
    try:
        tree = parse_complete(s)
        got = [(k.rule, k.start, k.end, len(k.children)) for k in tree.children]
    except ParseFailed as exc:
        got = str(exc)
    assert got == expected


def test_generated_source_holds_no_grammar_text(monkeypatch):
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(engine, "compile", spy, raising=False)
    g = Grammar(HOSTILE.rules)  # a fresh object, not yet generated
    s = new_session(g, "{0}")
    parse_complete(s)
    s.eval_expr(not_(lit("'''")), 0)
    assert len(sources) == 2
    for source in sources:
        # no string literal, escape, f-string field or comment
        assert not set(source) & set("'\"\\{}#"), source


def test_a_rule_application_costs_two_frames():
    g = load_grammar("A <- 'x' A / 'y' ;")
    depths: dict[int, int] = {}

    class Probe(ParseSession):
        def char_outcome(self, pos):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.setdefault(pos, depth)
            return super().char_outcome(pos)

    parse_complete(Probe(g, "xxxy"))
    # the first character test at each position is made by A applied
    # there, one application deeper than at the previous position
    assert [depths[p + 1] - depths[p] for p in range(3)] == [2, 2, 2]


def test_eval_expr_generates_each_expression_once(monkeypatch):
    generated = []
    real = engine._generate

    def counting(bodies, *args, **kwargs):
        generated.append(tuple(bodies))
        return real(bodies, *args, **kwargs)

    monkeypatch.setattr(engine, "_generate", counting)
    g = load_grammar(grammar_text("arith"))
    for text in ("2*", "2*3", "x"):
        s = new_session(g, text)
        for pos in range(len(text) + 1):
            s.eval_expr(seq(char("2"), char("*")), pos)
            s.eval_expr(not_(char("x")), pos)
    rules = tuple(r.body for r in g.rules)
    assert generated == [rules, (seq(char("2"), char("*")),), (not_(char("x")),)]
