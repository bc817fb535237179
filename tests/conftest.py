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
