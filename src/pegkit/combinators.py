"""Typed combinator layer over the memoizing engine.

A :class:`Parser` is a function from (session, position) to either the
shared ``FAIL`` outcome or an ``(end, value)`` pair.  Combinator values
are ordinary Python objects and never enter the memo matrix: the matrix
stays monomorphic (parse-tree nodes only), and :func:`rule` bridges the
two worlds by routing through :meth:`ParseSession.apply` and decoding
the memoized node into a value.  Everything built from these
combinators therefore inherits the engine's at-most-once evaluation for
rule invocations while composing freely in plain code.

Sequencing is monadic: ``then(p, f)`` runs ``p`` and feeds its value to
``f`` to pick the next parser.  ``choice`` backtracks to the original
position on failure, and the repetition combinators insist on strict
progress: an iteration that succeeds without consuming raises
:class:`NoProgress` instead of looping forever.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from .engine import FAIL, ParseSession, ParseTreeNode
from .grammar import Grammar, Literal
from .notation import render_expr

V = TypeVar("V")
W = TypeVar("W")


class NoProgress(Exception):
    def __init__(self, pos: int):
        super().__init__(
            f"repetition body succeeded without consuming input at position {pos}"
        )
        self.pos = pos


class UnboundSlot(Exception):
    def __init__(self, name: str):
        super().__init__(f"rule slot {name!r} used before bind()")
        self.name = name


class Parser(Generic[V]):
    """Wraps a run function ``(session, pos) -> FAIL | (end, value)``."""

    __slots__ = ("run",)

    def __init__(self, run: Callable[[ParseSession, int], object]):
        self.run = run

    def then(self, f: "Callable[[V], Parser[W]]") -> "Parser[W]":
        return then(self, f)

    def map(self, f: "Callable[[V], W]") -> "Parser[W]":
        return then(self, lambda v: pure(f(v)))

    def __or__(self, other: "Parser[V]") -> "Parser[V]":
        return choice(self, other)


def pure(value: V) -> Parser[V]:
    """Succeed without consuming input."""
    return Parser(lambda s, pos: (pos, value))


def fail(label: str | None = None) -> Parser[object]:
    """Always fail; with a label, contribute to expected-set reporting."""

    def run(s: ParseSession, pos: int):
        if label is not None:
            s.record_failure(pos, label)
        return FAIL

    return Parser(run)


def then(p: Parser[V], f: "Callable[[V], Parser[W]]") -> Parser[W]:
    """Monadic bind: run ``p``, then the parser chosen by its value."""

    def run(s: ParseSession, pos: int):
        r = p.run(s, pos)
        if r is FAIL:
            return FAIL
        end, value = r
        return f(value).run(s, end)

    return Parser(run)


def choice(*parsers: Parser[V]) -> Parser[V]:
    """Ordered choice with full backtracking to the original position."""

    def run(s: ParseSession, pos: int):
        for p in parsers:
            r = p.run(s, pos)
            if r is not FAIL:
                return r
        return FAIL

    return Parser(run)


def char_satisfy(pred: Callable[[str], bool], label: str) -> Parser[str]:
    """One character passing ``pred``; the value is the character."""

    def run(s: ParseSession, pos: int):
        out = s.char_outcome(pos)
        if out is not FAIL:
            c = s.text[pos]
            if pred(c):
                return out.end, c
        s.record_failure(pos, label)
        return FAIL

    return Parser(run)


def literal(text: str) -> Parser[str]:
    """Fixed string; the value is the string itself.  A failure is
    labelled as the grammar's ``Literal`` of the same text is."""
    label = render_expr(Literal(text))

    def run(s: ParseSession, pos: int):
        p = pos
        for ch in text:
            out = s.char_outcome(p)
            if out is FAIL or s.text[p] != ch:
                s.record_failure(pos, label)
                return FAIL
            p = out.end
        return p, text

    return Parser(run)


def many(p: Parser[V]) -> Parser[list[V]]:
    """Zero or more, greedy; each iteration must consume input."""

    def run(s: ParseSession, pos: int):
        values: list[V] = []
        while True:
            r = p.run(s, pos)
            if r is FAIL:
                return pos, values
            end, value = r
            if end == pos:
                raise NoProgress(pos)
            values.append(value)
            pos = end

    return Parser(run)


def many1(p: Parser[V]) -> Parser[list[V]]:
    """One or more, greedy, with the same strict-progress guard."""
    return semantic_guard(many(p), bool)


def and_pred(p: Parser[V]) -> Parser[tuple]:
    """Positive lookahead: succeed with () iff ``p`` would, consume nothing."""

    def run(s: ParseSession, pos: int):
        r = p.run(s, pos)
        if r is FAIL:
            return FAIL
        return pos, ()

    return Parser(run)


def not_pred(p: Parser[V], label: str | None = None) -> Parser[tuple]:
    """Negative lookahead: succeed with () iff ``p`` fails, consume nothing."""

    def run(s: ParseSession, pos: int):
        r = p.run(s, pos)
        if r is FAIL:
            return pos, ()
        if label is not None:
            s.record_failure(pos, label)
        return FAIL

    return Parser(run)


def semantic_guard(p: Parser[V], pred: Callable[[V], bool]) -> Parser[V]:
    """Keep ``p``'s result only when ``pred`` accepts its value.

    Rejection backtracks to the original position; sub-results already
    memoized by the engine stay memoized, only the verdict is undone.
    """

    def run(s: ParseSession, pos: int):
        r = p.run(s, pos)
        if r is FAIL:
            return FAIL
        _, value = r
        if pred(value):
            return r
        return FAIL

    return Parser(run)


def chain(*parsers: Parser[object]) -> Parser[tuple]:
    """Run parsers in order; the value is the tuple of their values."""

    def run(s: ParseSession, pos: int):
        values = []
        for p in parsers:
            r = p.run(s, pos)
            if r is FAIL:
                return FAIL
            pos, value = r
            values.append(value)
        return pos, tuple(values)

    return Parser(run)


class RuleSlot(Generic[V]):
    """A grammar rule plus a decoder from its memoized trees to values.

    Slots start unbound so mutually recursive parser definitions can
    reference each other before the grammar exists; using an unbound
    slot raises :class:`UnboundSlot`.
    """

    __slots__ = ("name", "rule_id", "decoder")

    def __init__(self, name: str):
        self.name = name
        self.rule_id: int | None = None
        self.decoder: Callable[[ParseTreeNode, str], V] | None = None

    def bind(
        self,
        grammar: Grammar,
        decoder: Callable[[ParseTreeNode, str], V],
        rule_name: str | None = None,
    ) -> "RuleSlot[V]":
        """Attach the slot to ``grammar``'s rule named ``rule_name``
        (defaulting to the slot's own name) with a pure, total decoder."""
        self.rule_id = grammar.rule_id(rule_name or self.name)
        self.decoder = decoder
        return self


def rule(slot: RuleSlot[V]) -> Parser[V]:
    """Invoke a bound rule slot through the engine's memo matrix.

    The engine evaluates the rule body at most once per position; the
    decoder then maps the stored parse tree to the slot's value type.
    """

    def run(s: ParseSession, pos: int):
        if slot.rule_id is None or slot.decoder is None:
            raise UnboundSlot(slot.name)
        out = s.apply(slot.rule_id, pos)
        if out is FAIL:
            return FAIL
        return out.end, slot.decoder(out, s.text)

    return Parser(run)
