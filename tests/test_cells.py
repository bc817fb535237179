"""Memo cells built by the engine, and the running counters behind stats()."""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc

import pytest

from pegkit import EngineConfig, ParseFailed, new_session, parse_complete, stats
from pegkit.combinators import RuleSlot, chain, char_satisfy, literal, many, rule
from pegkit.engine import (
    FAIL,
    INPROGRESS,
    UNEVALUATED,
    DepthExceeded,
    LeftRecursion,
    ParseTreeNode,
)

# One input per catalog grammar: (grammar, input, depth limit or None,
# outcome of parse_complete, stats() tuple as (cells, char cells,
# expr_steps, max active depth, memo bytes)).  The first four counters
# were recorded with the interpreting evaluator that the compiled one
# replaced; the memo bytes follow the byte model documented on Stats.
CASES = [
    ("arith", "2*(3+4)", None, "ok", (14, 8, 67, 9, 2608)),
    ("arith", "1+", None, "ParseFailed", (8, 3, 41, 5, 760)),
    ("arith_left_assoc", "9-3-2", None, "ok", (13, 6, 70, 6, 2216)),
    ("arith_lexed", " 12 * (3 + 45) ", None, "ok", (57, 16, 191, 14, 7712)),
    ("arith_lexed", "1+2*", None, "ParseFailed", (34, 5, 111, 9, 2960)),
    ("lookahead_ab", "aabb", None, "ParseFailed", (3, 1, 14, 2, 256)),
    ("composition_assign", "a=!a+(a)", None, "ParseFailed", (12, 3, 55, 5, 1424)),
    ("composition_lvalue", "a[a]=a", None, "ok", (22, 7, 91, 8, 3128)),
    ("peg_limitation", "xxxxx", None, "ParseFailed", (6, 6, 31, 6, 1168)),
    ("left_recursive_arith", "1+2", None, "LeftRecursion", (0, 0, 3, 1, 160)),
    ("blowup", "xxxxxxxx", None, "ParseFailed", (1, 1, 6, 1, 240)),
    ("arith", "((((2))))", 3, "DepthExceeded", (0, 1, 10, 3, 496)),
]
CASE_IDS = [f"{name}:{text!r}" for name, text, *_ in CASES]


def run_case(entries, name, text, depth_limit):
    config = EngineConfig(depth_limit=depth_limit) if depth_limit else None
    session = new_session(entries[name].grammar, text, config=config)
    try:
        parse_complete(session)
        verdict = "ok"
    except (ParseFailed, LeftRecursion, DepthExceeded) as exc:
        verdict = type(exc).__name__
    return session, verdict


def scanned_stats(session) -> tuple[int, int, int]:
    """(cells, char cells, memo bytes) by a full scan of the matrix and
    the character row, with the formula documented on ``Stats``."""
    n1 = len(session.text) + 1
    total = 8 * (len(session.grammar.rules) + 1) * n1
    cells = 0
    for row in session.matrix:
        for cell in row:
            if isinstance(cell, ParseTreeNode):
                total += 64
                if cell.children:
                    total += 40 + 8 * len(cell.children)
            if cell is not UNEVALUATED and cell is not INPROGRESS:
                cells += 1
    char_cells = 0
    for cell in session.char_row:
        if cell is not UNEVALUATED:
            char_cells += 1
            if isinstance(cell, ParseTreeNode):
                total += 64 + 32
    return cells, char_cells, total


def counted_stats(session) -> tuple[int, int, int]:
    st = stats(session)
    return st.cells_evaluated, st.char_cells_evaluated, st.memo_bytes_estimate


def done_successes(session):
    for row in session.matrix:
        for cell in row:
            if isinstance(cell, ParseTreeNode):
                yield cell
    for cell in session.char_row:
        if isinstance(cell, ParseTreeNode):
            yield cell


@pytest.mark.parametrize("name, text, depth_limit, verdict, expected", CASES, ids=CASE_IDS)
def test_stats_are_pinned(entries, name, text, depth_limit, verdict, expected):
    session, got = run_case(entries, name, text, depth_limit)
    assert got == verdict
    st = stats(session)
    assert (
        st.cells_evaluated,
        st.char_cells_evaluated,
        st.expr_steps,
        st.max_active_depth,
        st.memo_bytes_estimate,
    ) == expected


@pytest.mark.parametrize("name, text, depth_limit, verdict, expected", CASES, ids=CASE_IDS)
def test_counted_stats_equal_a_full_scan(entries, name, text, depth_limit, verdict, expected):
    session, _ = run_case(entries, name, text, depth_limit)
    assert counted_stats(session) == scanned_stats(session)


def test_counted_stats_equal_a_full_scan_after_every_cell(entries):
    g = entries["arith_lexed"].grammar
    text = "(1 + 23) * 4 - "
    session = new_session(g, text)
    for rule in range(len(g.rules)):
        for pos in range(len(text) + 1):
            session.apply(rule, pos)
            assert counted_stats(session) == scanned_stats(session)


def test_counted_stats_equal_a_full_scan_in_a_combinator_session(entries):
    # combinators read the character row through char_outcome directly
    session = new_session(entries["arith"].grammar, "ab12cd")
    word = many(char_satisfy(str.isalpha, "letter"))
    p = chain(word, literal("12"), word)
    assert p.run(session, 0) == (6, (["a", "b"], "12", ["c", "d"]))
    assert stats(session).cells_evaluated == 0
    # 7 character cells (the last at EOF fails), 6 leaves of 64 + 32
    # bytes, 8 bytes per slot of the 4 rule rows and the character row
    assert counted_stats(session) == scanned_stats(session) == (0, 7, 6 * 96 + 8 * 5 * 7)


@pytest.mark.parametrize("name, text, depth_limit, verdict, expected", CASES, ids=CASE_IDS)
def test_engine_built_cells_match_constructor_built_ones(
    entries, name, text, depth_limit, verdict, expected
):
    session, _ = run_case(entries, name, text, depth_limit)
    for cell in done_successes(session):
        assert type(cell) is ParseTreeNode
        built = ParseTreeNode(cell.rule, cell.start, cell.end, cell.children)
        assert cell == built
        assert hash(cell) == hash(built)
        assert repr(cell) == repr(built)
        for field in ("rule", "start", "end", "children"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cell, field, None)


@pytest.mark.parametrize("name, text, depth_limit, verdict, expected", CASES, ids=CASE_IDS)
def test_done_success_cells_are_nodes_at_their_position(
    entries, name, text, depth_limit, verdict, expected
):
    session, _ = run_case(entries, name, text, depth_limit)
    rows = [(rule, row) for rule, row in enumerate(session.matrix)]
    rows.append((None, session.char_row))
    for rule, row in rows:
        for pos, cell in enumerate(row):
            if cell is UNEVALUATED or cell is INPROGRESS or cell is FAIL:
                continue
            assert type(cell) is ParseTreeNode
            assert (cell.rule, cell.start) == (rule, pos)
            if rule is None:
                assert cell.end == pos + 1 and cell.children == ()


def test_apply_returns_the_matrix_cell(entries):
    g = entries["arith_lexed"].grammar
    text = "(1 + 23) * 4 - "
    session = new_session(g, text)
    for rule in range(len(g.rules)):
        for pos in range(len(text) + 1):
            out = session.apply(rule, pos)
            assert out is session.matrix[rule][pos]
            assert session.apply(rule, pos) is out


def test_rule_decoder_receives_the_matrix_cell(entries):
    g = entries["arith"].grammar
    seen = []
    slot = RuleSlot("Additive").bind(g, lambda node, text: seen.append(node) or len(seen))
    session = new_session(g, "2*(3+4)")
    p = rule(slot)
    assert p.run(session, 3) == (6, 1)
    assert p.run(session, 0) == (7, 2)
    additive = g.rule_id("Additive")
    assert seen[0] is session.matrix[additive][3]
    assert seen[1] is session.matrix[additive][0]


def test_every_catalog_grammar_yields_engine_built_cells(entries):
    with_cells = set()
    for name, text, depth_limit, *_ in CASES:
        session, _ = run_case(entries, name, text, depth_limit)
        if any(done_successes(session)):
            with_cells.add(name)
    # a left-recursive parse stops before any rule cell is Done
    assert with_cells == set(entries) - {"left_recursive_arith"}


def lexed_expression(seed: int, min_len: int) -> str:
    """An ``arith_lexed`` sentence of at least ``min_len`` characters:
    multi-digit numbers, blanks and parentheses nested up to 3 deep."""
    rng = random.Random(seed)

    def atom(depth):
        if depth < 3 and rng.random() < 0.15:
            return "(" + rng.choice(("", " ")) + sentence(depth + 1, 60) + ")"
        return str(rng.randint(0, 999)) + rng.choice(("", "", " ", "\t "))

    def sentence(depth, length):
        parts = [atom(depth)]
        size = len(parts[0])
        while size < length:
            parts += [rng.choice(("+", "*", "+ ", "* ")), atom(depth)]
            size += len(parts[-2]) + len(parts[-1])
        return "".join(parts)

    return sentence(0, min_len)


@pytest.mark.parametrize("min_len", [2000, 4000])
def test_memo_bytes_estimate_tracks_tracemalloc(entries, min_len):
    # Retained/estimate read 0.9933-0.9936 at 2 K and 0.9966-0.9967 at
    # 4 K over seeds 0-9 (CPython 3.11.7); the rest is the session and
    # its row lists.  The band is +-5%.
    g = entries["arith_lexed"].grammar
    parse_complete(new_session(g, "1"))  # compile the grammar outside the trace
    text = lexed_expression(7, min_len)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = new_session(g, text)
        parse_complete(session)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert 0.95 <= retained / stats(session).memo_bytes_estimate <= 1.05
