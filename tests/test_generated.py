"""The engine's generated rule functions: outlining, grammar text kept out
of the source, frames per rule application, one code variant for every
session class, and the eval_expr cache."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import os
import re
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path

import pytest
from conftest import session_text, tree_text
from test_oracles import random_grammars

from pegkit import (
    FAIL,
    DepthExceeded,
    LeftRecursion,
    ParseFailed,
    and_,
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
    opt,
    parse_complete,
    plus,
    ref,
    registry,
    seq,
    star,
    stats,
)
import pegkit
from pegkit import engine
from pegkit.engine import ParseSession
from pegkit.grammar import Char, Choice, Grammar, Literal, Not, Plus, Rule, Seq, prepared
from pegkit.notation import render_expr
from pegkit.oracles import naive_parse


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


def test_random_grammar_trees_are_pinned(random_expr):
    # recorded on the generator that merged the children of a choice or
    # an option into a tuple and of a repetition into a list: every cell
    # and every rule body evaluated as an expression, at every position
    h, results = hashlib.md5(), 0
    for g, texts in random_grammars(random_expr):
        for text in texts:
            s = new_session(g, text)
            for r in range(len(g.rules)):
                for pos in range(len(text) + 1):
                    for what in ("apply", "eval"):
                        fresh = False
                        try:
                            if what == "apply":
                                out = tree_text(s.apply(r, pos))
                            else:
                                out = tree_text(s.eval_expr(g.rules[r].body, pos))
                        except (LeftRecursion, DepthExceeded) as exc:
                            out, fresh = f"{type(exc).__name__}: {exc}", True
                        h.update(
                            f"{text!r} {r} {pos} {what} {out} {session_text(s)}\n".encode()
                        )
                        results += 1
                        if fresh:
                            s = new_session(g, text)
    assert results == 24_984
    assert h.hexdigest() == "e0c6ca9da71d58ec67c13ada14d5dc22"


# Choices whose every alternative is one character: overlapping
# alternatives (A), a character written twice (B, E), a character no
# alternative takes ('x' in A to D) and the end of the input, with the
# choice ending a rule, inside a sequence, an option, a repetition and
# both predicates.
ONE_CHARACTER_CHOICES = load_grammar(
    "S <- A B / C 'x' / D S / E ;"
    " A <- 'a' / [ab] / 'b' ;"
    " B <- ('c' / 'a' / 'c') A ;"
    " C <- ('a' / 'b')? ('c' / [ca])* ;"
    " D <- !('a' / [bc]) . / &([ab] / 'c') 'a' 'b' ;"
    " E <- 'x' / 'c' / 'c' ;"
)
ONE_CHARACTER_EXPRS = [
    choice(char("a"), charclass("ab"), char("b")),
    seq(choice(char("c"), char("c")), choice(char("b"), char("a"))),
    opt(choice(char("b"), charclass("bc"))),
    star(choice(char("c"), char("a"))),
    not_(choice(char("a"), char("x"))),
    and_(choice(charclass("bc"), char("a"))),
]


def test_one_character_choice_trees_are_pinned():
    # recorded on the generator that tried such a choice's alternatives
    # one by one: every cell, every rule body and each expression above
    # evaluated as an expression at every position, on every input up to
    # length 4
    g = ONE_CHARACTER_CHOICES
    exprs = [r.body for r in g.rules] + ONE_CHARACTER_EXPRS
    h = hashlib.md5()
    for n in range(5):
        for text in map("".join, itertools.product("abcx", repeat=n)):
            s = new_session(g, text)
            for pos in range(len(text) + 1):
                for r in range(len(g.rules)):
                    out = s.apply(r, pos)
                    want = naive_parse(g, r, pos, text).outcome
                    assert (None if out is FAIL else out.end) == want, (r, pos, text)
                    h.update(f"{text!r} {r} {pos} {tree_text(out)} {session_text(s)}\n".encode())
                for i, e in enumerate(exprs):
                    out = tree_text(s.eval_expr(e, pos))
                    h.update(f"{text!r} e{i} {pos} {out} {session_text(s)}\n".encode())
    assert h.hexdigest() == "562db0a028a2eb575fa4e0e37206093d"


class FailureRecordRefused(ParseSession):
    def record_failure(self, pos, label):
        raise AssertionError("record_failure called")


def _refused_char(s, pos):
    raise AssertionError("_char called")


# Accepted and rejected inputs of the grammars whose terminals are the
# hottest code of the parse workloads.
TERMINAL_INPUTS = {
    "arith": ["2*(3+4)", "(1+2)*3+4*5", "9+8*(7+(6*5))", "2*(3+", "2*(3+4))", ""],
    "arith_left_assoc": ["7-2-2", "1+2*(3-4)-5", "(9)*(8-7)", "7-", "7-2x", ""],
    "arith_lexed": ["27 + 2*(7)", " 1+ 23 *\t(456 )", "((3))", "2 +", "12 3", ""],
}


def test_terminals_call_no_helper(monkeypatch):
    # recorded with the generated code that made character cells with
    # _char and recorded failures with record_failure: the tree or the
    # message, stats() and the furthest failure of each parse
    monkeypatch.setattr(engine, "_char", _refused_char)
    h = hashlib.md5()
    for name, texts in TERMINAL_INPUTS.items():
        g = load_grammar(grammar_text(name))  # a fresh object, generated now
        for text in texts:
            s = FailureRecordRefused(g, text)
            try:
                out = tree_text(parse_complete(s))
            except ParseFailed as exc:
                out = str(exc)
            h.update(f"{name} {text!r} {out} {session_text(s)}\n".encode())
    assert h.hexdigest() == "2eb8b77f358fe3e3300857dc20468eae"


def test_every_constant_is_used(monkeypatch):
    # each body is written once, in the form picked before it is written,
    # and each chunk's constant is bound once its function is built
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(engine, "compile", spy, raising=False)
    grammars = [
        load_grammar("S <- 'a' ('b' / 'c' 'd') 'e'? ;"),
        load_grammar("S <- 'a' [bc] ('b' / 'c') ('x' / 'y' 'z') 'e'* / 'q' ;"),
        load_grammar(DEEP_GRAMMARS["plus30"]),
    ] + [load_grammar(grammar_text(name)) for name in registry()]
    for g in grammars:
        sources.clear()
        functions = [engine._prepare(g).code[0]]  # the rules share one namespace
        used = set(re.findall(r"\bK\d+\b", "".join(sources)))
        while functions:  # that namespace, then each chunk's
            ns = functions.pop().__globals__
            names = {k for k in ns if re.fullmatch(r"K\d+", k)}
            assert names <= used, sorted(names - used)
            functions += [v for v in ns.values() if isinstance(v, types.FunctionType)]


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
    # one compile per rule of the nine grammars
    assert len(sources) == 49
    digest = hashlib.md5("".join(sources).encode()).hexdigest()
    assert digest == "7aeda39ff6bd042c55d16a381d3e7d46"


def test_listed_bodies_and_chunks_are_pinned(monkeypatch, random_expr):
    # The catalog's pin above has only bodies that keep their children in
    # locals, and no chunk.  Recorded on the generator that wrote such a
    # body a second time with the children list, and each chunk from
    # inside its caller.  Sorted: that generator compiled a chunk before
    # its caller, this one compiles it after.
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(engine, "compile", spy, raising=False)
    arity = test_variable_arity_trees_are_pinned.pytestmark[0].args[1]
    grammars = [load_grammar(source) for source, _, _ in arity]
    grammars += [load_grammar(text) for text in DEEP_GRAMMARS.values()]
    grammars.append(Grammar(HOSTILE.rules))  # a fresh object, not yet generated
    grammars += [g for g, _ in random_grammars(random_expr)]
    assert len(grammars) == 432
    for g in grammars:
        new_session(g, "")
    assert len(sources) == 1_121
    digest = hashlib.md5("".join(sorted(sources)).encode()).hexdigest()
    assert digest == "5ac284a3e60367e620036770a2c961ad"


def test_code_generation_stays_out_of_the_deep_section(monkeypatch):
    # the generator takes no interpreter frames per nesting level, so it
    # needs neither the raised recursion limit nor the collector's pause
    g = load_grammar(grammar_text("arith_lexed"))  # a fresh object, not yet generated
    entries = []
    real = engine._enter_deep

    def counting():
        entries.append(sys.getrecursionlimit())
        return real()

    monkeypatch.setattr(engine, "_enter_deep", counting)
    new_session(g, "")
    assert prepared(g).code is not None
    assert entries == []


def _plus_chain(e):
    return Plus(Seq((Char("x"), e)))


def _tail_choice_chain(e):
    return Choice((Char("x"), e))


def _seq_chain(e):
    return Seq((Char("x"), e))


# (one level of a 3,000-level chain, the rule body around it, input,
# span, stats()), recorded on the generator that ran in the deep section.
# The last two compile to one function each, of 108,000 and 66,000
# lines; at 20,000 levels the first took ~1.9 GB to compile.
@pytest.mark.parametrize(
    "level, body, text, span, counts",
    [
        # outlined every few levels, so hundreds of chunks
        (_plus_chain, lambda e: e, "x" * 3_000 + "a", (0, 3_001),
         (1, 3_002, 15_001, 1, 360_240)),
        # every alternative ends the body: one function at one level
        (_tail_choice_chain, lambda e: e, "a", (0, 1), (1, 1, 6_001, 1, 240)),
        # nested sequences add no level: one function
        (_seq_chain, lambda e: seq(not_(e), char("x")), "x", (0, 1),
         (1, 2, 7, 1, 240)),
    ],
    ids=["plus", "tail-choice", "seq-under-not"],
)
def test_deep_bodies_generate_at_the_default_recursion_limit(
    level, body, text, span, counts
):
    e = Char("a")
    for _ in range(3_000):
        e = level(e)
    g = Grammar((Rule("S", body(e)),))
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        s = new_session(g, text)
        assert parse_complete(s).span == span
    finally:
        sys.setrecursionlimit(before)
    assert dataclasses.astuple(stats(s)) == counts


def test_threads_that_first_generate_one_grammar():
    # four threads race to generate one fresh grammar's code, each with
    # the collector on and at its own recursion limit, and each parses
    text = "abaab"
    s = new_session(load_grammar(DEEP_GRAMMARS["plus120"]), text)
    serial = (tree_text(parse_complete(s)), stats(s), furthest_failure(s))
    g = load_grammar(DEEP_GRAMMARS["plus120"])
    start = threading.Barrier(4)
    got = [None] * 4

    def run(i: int) -> None:
        start.wait()
        s = new_session(g, text)
        got[i] = (tree_text(parse_complete(s)), stats(s), furthest_failure(s))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial] * 4


def test_three_hundred_nested_predicates():
    # outlined every few levels: the chunks are written one after another
    # from the generator's worklist
    g = load_grammar("S <- " + "!" * 301 + "'a' 'b' ;")
    s = new_session(g, "b")
    assert parse_complete(s).span == (0, 1)
    assert stats(s).expr_steps == 304


DEEP_GRAMMARS = {
    "plus30": "S <- " + "(" * 30 + "'a' 'b'?" + ")+" * 30 + " ;",
    "plus120": "S <- " + "(" * 120 + "'a' 'b'?" + ")+" * 120 + " ;",
    "not301": "S <- " + "!" * 301 + "'a' 'b' ;",
    # the tightest: the last choice written inline holds a sequence whose
    # terminals' failure branches reach level 16 exactly
    "choice6": "S <- " + "('x' / " * 6 + "'a' 'b'" + ")" * 6 + " 'z' ;",
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
import time
from pegkit import engine, new_session, parse_complete
from pegkit.grammar import Char, Grammar, Opt, Plus, Rule, Seq

sources = []
compile_ = compile
engine.compile = lambda source, *args: sources.append(source) or compile_(source, *args)
for wrap, levels in ((Plus, 5000), (Plus, 10000), (Opt, 10000)):
    e = Char("a")
    for _ in range(levels):
        e = wrap(Seq((Char("x"), e)))
    s = new_session(Grammar((Rule("S", e),)), "x" * levels + "a")
    start = time.process_time()
    span = parse_complete(s).span
    print(wrap.__name__, levels, span, time.process_time() - start < 0.25)
print(len(sources) > 1000, any("*v" in source for source in sources))
"""


def test_a_five_thousand_level_chain_generates_and_parses():
    # in a subprocess: a generator that recursed through C code per level
    # overflowed the C stack here under the raised recursion limit, and
    # one that generated each chunk from inside its caller ran out of
    # CPython 3.12's C recursion budget at about 6,000 levels.  Each
    # level's children are appended to one list per function, not
    # spliced into the next level's (the splices took 0.5-0.8 s at
    # 10,000 levels, growing with the square of the depth)
    env = {**os.environ, "PYTHONPATH": str(Path(pegkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_CHAIN], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "Plus 5000 (0, 5001) True",
        "Plus 10000 (0, 10001) True",
        "Opt 10000 (0, 10001) True",
        "True False",
    ]


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


def not_chain(levels: int):
    """``S <- !!…!('a' 'b') "ab"`` with ``levels`` predicates, and the
    chain's nodes from ``'a' 'b'`` outward."""
    e = Seq((Char("a"), Char("b")))
    chain = [e]
    for _ in range(levels):
        e = Not(e)
        chain.append(e)
    return Grammar((Rule("S", Seq((e, Literal("ab")))),)), chain


def test_failure_labels_are_rendered_when_read():
    # The labels of a k-level predicate chain add up to Θ(k²) characters:
    # rendered while generating the code, 4,000 levels took ~10 s.
    g, _ = not_chain(4_000)
    start = time.process_time()
    s = new_session(g, "ab")
    assert parse_complete(s).span == (0, 2)
    assert time.process_time() - start < 3.0
    # every odd level's predicate failed at 0; the labels read are the
    # text that was rendered eagerly
    g, chain = not_chain(30)
    s = new_session(g, "ab")
    parse_complete(s)
    expected = frozenset(render_expr(e, g.names) for e in chain[1::2])
    assert len(expected) == 15
    assert furthest_failure(s) == (0, expected)


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
    # one compile per rule, and one for the expression
    assert len(sources) == 4
    for source in sources:
        # no string literal, escape, f-string field or comment
        assert not set(source) & set("'\"\\{}#"), source


class ApplyCounting(ParseSession):
    """A session class that overrides ``apply`` and counts its calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.applied = 0

    def apply(self, rule, pos):
        self.applied += 1
        return super().apply(rule, pos)


def test_an_apply_override_sees_only_requests_from_outside(monkeypatch):
    generated = []
    real = engine._generate

    def counting(bodies, *args, **kwargs):
        generated.append(tuple(bodies))
        return real(bodies, *args, **kwargs)

    monkeypatch.setattr(engine, "_generate", counting)
    g = load_grammar(grammar_text("arith"))  # a fresh object, not yet generated
    text = "2*(3+4)"
    plain = new_session(g, text)
    parse_complete(plain)
    s = ApplyCounting(g, text)
    parse_complete(s)
    # rule code applies rules without going through apply
    assert s.applied == 1
    assert stats(s).cells_evaluated > len(g.rules)
    assert (s.matrix, s.char_row) == (plain.matrix, plain.char_row)
    assert stats(s) == stats(plain)
    assert furthest_failure(s) == furthest_failure(plain)
    # both classes run the one variant of the code, generated once
    assert s._code is plain._code is prepared(g).code
    assert len(generated) == 1


# the counting session's wrapper of each rule's code adds a frame
@pytest.mark.parametrize(
    "counting, frames", [(False, 1), (True, 2)], ids=["plain", "counting"]
)
def test_a_rule_application_costs_one_frame_or_two_when_counted(
    counting_session_cls, counting, frames
):
    g = load_grammar("A <- 'x' A / 'y' ;")
    depths: dict[int, int] = {}

    def probe(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "_f0":
            pos, depth = frame.f_locals["pos"], 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths[pos] = depth

    s = (counting_session_cls if counting else ParseSession)(g, "xxxy")
    sys.setprofile(probe)
    try:
        parse_complete(s)
    finally:
        sys.setprofile(None)
    # A applied at each position is one application deeper than at the
    # previous position
    assert [depths[p + 1] - depths[p] for p in range(3)] == [frames] * 3


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
