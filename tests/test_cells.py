"""Memo cells built by the engine, and the running counters behind stats()."""

from __future__ import annotations

import dataclasses

import pytest

from pegkit import EngineConfig, ParseFailed, new_session, parse_complete, stats
from pegkit.combinators import chain, char_satisfy, literal, many
from pegkit.engine import (
    INPROGRESS,
    UNEVALUATED,
    DepthExceeded,
    LeftRecursion,
    ParseTreeNode,
    Success,
)

# One input per catalog grammar: (grammar, input, depth limit or None,
# outcome of parse_complete, stats() tuple as (cells, char cells,
# expr_steps, max active depth, memo bytes)).  The tuples were recorded
# with the interpreting evaluator that the compiled one replaced.
CASES = [
    ("arith", "2*(3+4)", None, "ok", (14, 8, 67, 9, 3168)),
    ("arith", "1+", None, "ParseFailed", (8, 3, 41, 5, 920)),
    ("arith_left_assoc", "9-3-2", None, "ok", (13, 6, 70, 6, 2728)),
    ("arith_lexed", " 12 * (3 + 45) ", None, "ok", (57, 16, 191, 14, 9544)),
    ("arith_lexed", "1+2*", None, "ParseFailed", (34, 5, 111, 9, 3768)),
    ("lookahead_ab", "aabb", None, "ParseFailed", (3, 1, 14, 2, 288)),
    ("composition_assign", "a=!a+(a)", None, "ParseFailed", (12, 3, 55, 5, 1640)),
    ("composition_lvalue", "a[a]=a", None, "ok", (22, 7, 91, 8, 3848)),
    ("peg_limitation", "xxxxx", None, "ParseFailed", (6, 6, 31, 6, 1448)),
    ("left_recursive_arith", "1+2", None, "LeftRecursion", (0, 0, 3, 1, 160)),
    ("blowup", "xxxxxxxx", None, "ParseFailed", (1, 1, 6, 1, 272)),
    ("arith", "((((2))))", 3, "DepthExceeded", (0, 1, 10, 3, 528)),
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
            if isinstance(cell, Success):
                total += 56 + 72 + 8 * len(cell.node.children)
            if cell is not UNEVALUATED and cell is not INPROGRESS:
                cells += 1
    char_cells = 0
    for cell in session.char_row:
        if cell is not UNEVALUATED:
            char_cells += 1
            if isinstance(cell, Success):
                total += 56 + 72
    return cells, char_cells, total


def counted_stats(session) -> tuple[int, int, int]:
    st = stats(session)
    return st.cells_evaluated, st.char_cells_evaluated, st.memo_bytes_estimate


def done_successes(session):
    for row in session.matrix:
        for cell in row:
            if isinstance(cell, Success):
                yield cell
    for cell in session.char_row:
        if isinstance(cell, Success):
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
    # 7 character cells (the last at EOF fails), 6 leaves of 56 + 72
    # bytes, 8 bytes per slot of the 4 rule rows and the character row
    assert counted_stats(session) == scanned_stats(session) == (0, 7, 6 * 128 + 8 * 5 * 7)


@pytest.mark.parametrize("name, text, depth_limit, verdict, expected", CASES, ids=CASE_IDS)
def test_engine_built_cells_match_constructor_built_ones(
    entries, name, text, depth_limit, verdict, expected
):
    session, _ = run_case(entries, name, text, depth_limit)
    for cell in done_successes(session):
        node = cell.node
        assert type(cell) is Success
        assert type(node) is ParseTreeNode
        built = Success(
            cell.end, ParseTreeNode(node.rule, node.start, node.end, node.children)
        )
        assert cell == built
        assert hash(cell) == hash(built)
        assert repr(cell) == repr(built)
        assert node.end == cell.end
        for obj, field in ((cell, "end"), (cell, "node"), (node, "rule"), (node, "children")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, None)


def test_every_catalog_grammar_yields_engine_built_cells(entries):
    with_cells = set()
    for name, text, depth_limit, *_ in CASES:
        session, _ = run_case(entries, name, text, depth_limit)
        if any(done_successes(session)):
            with_cells.add(name)
    # a left-recursive parse stops before any rule cell is Done
    assert with_cells == set(entries) - {"left_recursive_arith"}
