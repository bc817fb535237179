"""Shared fixtures for the pegkit test suite."""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import pytest

from pegkit import (
    FAIL,
    DepthExceeded,
    LeftRecursion,
    ParseFailed,
    dump_matrix,
    furthest_failure,
    new_session,
    parse_complete,
    registry,
    stats,
)
from pegkit.engine import UNEVALUATED, ParseSession
from pegkit.oracles import (
    CallBudgetExceeded,
    SamePositionCycle,
    UnsupportedConstruct,
    cfg_end_table,
    naive_parse,
    tabular_parse,
)


class CountingSession(ParseSession):
    """ParseSession that tallies evaluations per memo cell.

    ``eval_counts[(rule, pos)]`` increments exactly when the cell goes
    from Unevaluated to Done; comparing its total against the session's
    own ``cells_evaluated`` counter exposes any hidden re-evaluation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.eval_counts: Counter[tuple[int, int]] = Counter()

    def apply(self, rule: int, pos: int):
        fresh = self.matrix[rule][pos] is UNEVALUATED
        out = super().apply(rule, pos)
        if fresh:
            self.eval_counts[(rule, pos)] += 1
        return out


@pytest.fixture(scope="session")
def entries():
    return registry()


@pytest.fixture(scope="session")
def accepts():
    """Callable: does the grammar completely parse the text?"""

    def check(grammar, text, config=None) -> bool:
        session = new_session(grammar, text, config=config)
        try:
            parse_complete(session)
        except ParseFailed:
            return False
        return True

    return check


@pytest.fixture(scope="session")
def counting_session_cls():
    return CountingSession


def tree_text(out) -> str:
    """A memo cell or parse tree written out in full."""
    if out is FAIL:
        return "Fail"
    kids = "".join(" " + tree_text(k) for k in out.children)
    return f"[{out.rule} {out.start}-{out.end}{kids}]"


def session_text(s) -> str:
    """A session's stats() and furthest failure."""
    pos, labels = furthest_failure(s)
    return f"{dataclasses.astuple(stats(s))} {pos} {sorted(labels)}"


@pytest.fixture(scope="session")
def cells_digest():
    """Callable: md5 of every cell of ``grammar`` on each of ``texts``.

    The cells are forced rule by rule, position by position, in one
    session per text.  Each contributes its full tree (or the error it
    raised, after which a fresh session takes over) and the session's
    stats() and furthest failure after it.
    """

    def digest(grammar, texts, config=None) -> str:
        h = hashlib.md5()
        for text in texts:
            s = new_session(grammar, text, config=config)
            for rule in range(len(grammar.rules)):
                for pos in range(len(text) + 1):
                    fresh = False
                    try:
                        out = tree_text(s.apply(rule, pos))
                    except (LeftRecursion, DepthExceeded) as exc:
                        out, fresh = f"{type(exc).__name__}: {exc}", True
                    h.update(f"{text!r} {rule} {pos} {out} {session_text(s)}\n".encode())
                    if fresh:
                        s = new_session(grammar, text, config=config)
        return h.hexdigest()

    return digest


@pytest.fixture(scope="session")
def parses_digest():
    """Callable: md5 of ``parse_complete`` on each of ``texts`` under
    each of ``configs``: the full tree or the error message, stats(),
    the furthest failure and ``dump_matrix``."""

    def digest(grammar, texts, configs) -> str:
        h = hashlib.md5()
        for text in texts:
            for config in configs:
                s = new_session(grammar, text, config=config)
                try:
                    out = tree_text(parse_complete(s))
                except (ParseFailed, LeftRecursion, DepthExceeded) as exc:
                    out = f"{type(exc).__name__}: {exc}"
                h.update(f"{text!r} {config} {out} {session_text(s)}\n".encode())
                h.update(dump_matrix(s).encode())
        return h.hexdigest()

    return digest


def _error_text(exc: Exception) -> str:
    cycle = getattr(exc, "cycle", None)
    return f"{type(exc).__name__}: {exc} {cycle}"


@pytest.fixture(scope="session")
def oracles_digest():
    """Callable: md5 of every oracle output of ``grammar`` on ``texts``.

    Per text: for every (rule, pos), the naive report (outcome, calls,
    max_depth, sorted calls_by_cell) or its error with the
    LeftRecursion cycle, then the naive outcome or error under each of
    ``limits`` (keyword arguments of ``naive_parse``); the tabular
    ``ends`` and ``fill_order`` or the refusal; the CFG end table or
    the refusal.
    """

    def naive_text(grammar, rule, pos, text, **limits) -> str:
        try:
            r = naive_parse(grammar, rule, pos, text, **limits)
        except (CallBudgetExceeded, DepthExceeded, LeftRecursion) as exc:
            return _error_text(exc)
        if limits:
            return str(r.outcome)
        by_cell = sorted(r.calls_by_cell.items())
        return f"{r.outcome} {r.calls} {r.max_depth} {by_cell}"

    def digest(grammar, texts, limits) -> str:
        h = hashlib.md5()
        for text in texts:
            for rule in range(len(grammar.rules)):
                for pos in range(len(text) + 1):
                    out = naive_text(grammar, rule, pos, text)
                    h.update(f"{text!r} {rule} {pos} {out}\n".encode())
                    for lim in limits:
                        out = naive_text(grammar, rule, pos, text, **lim)
                        h.update(f" {lim} {out}\n".encode())
            try:
                tab = tabular_parse(grammar, text)
                out = f"{tab.ends} {tab.fill_order}"
            except (UnsupportedConstruct, SamePositionCycle) as exc:
                out = _error_text(exc)
            h.update(f"{text!r} tabular {out}\n".encode())
            try:
                table = cfg_end_table(grammar, text)
                out = str(sorted((cell, sorted(ends)) for cell, ends in table.items()))
            except UnsupportedConstruct as exc:
                out = _error_text(exc)
            h.update(f"{text!r} cfg {out}\n".encode())
        return h.hexdigest()

    return digest
