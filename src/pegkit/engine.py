"""Memoizing packrat parse engine.

A :class:`ParseSession` owns one immutable input string and a matrix of
memo cells with one row per grammar rule and one column per input
position (``n + 1`` columns for input length ``n``), plus a shared
character row.  Every cell moves through the lifecycle

    Unevaluated -> InProgress -> Done(Outcome)

exactly once.  :meth:`ParseSession.apply` forces the cell for a (rule,
position) pair: the first request evaluates the rule body and stores
the outcome; later requests return the stored outcome without
re-evaluating anything.  Because evaluation is demand-driven, cells
never touched by the parse stay Unevaluated, and total work is bounded
by the matrix size rather than by the backtracking structure.

Hitting an InProgress cell means the rule re-entered itself at the same
position with no input consumed, so the session raises a structured
:class:`LeftRecursion` error instead of looping.  Recursion depth is
also bounded: ``EngineConfig.depth_limit`` is the exact number of
nested rule applications a session allows, and interpreter stack
exhaustion is translated into :class:`DepthExceeded` as a backstop, so
no input can crash the process.  Parses run on the calling thread.
Since CPython 3.11 a Python-to-Python call uses no C stack, so deep
recursion needs only a higher interpreter recursion limit: the
outermost rule application, and :func:`run_deep`, raise it to
``DEEP_RECURSION_LIMIT`` while they run; threads may do so
concurrently.

Sessions are single-owner: no concurrent use, no reentrant callbacks.
After LeftRecursion or DepthExceeded a session may hold InProgress
cells and should be discarded.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

from .grammar import (
    And,
    AnyChar,
    Char,
    Choice,
    Class,
    Empty,
    Grammar,
    Literal,
    Not,
    Opt,
    PegExpr,
    Plus,
    PreparedGrammar,
    Ref,
    Seq,
    Star,
    ValidationIssue,
    prepared,
    validation_errors,
    walk_exprs,
)
from .notation import render_expr


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


UNEVALUATED = _Sentinel("Unevaluated")
INPROGRESS = _Sentinel("InProgress")


class _Fail:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Fail"

    def __bool__(self) -> bool:
        return False


#: The unique failure outcome.  Shared, truthy-false, carries no data.
FAIL = _Fail()


@dataclass(frozen=True, slots=True)
class ParseTreeNode:
    """Span of input labelled by the rule that matched it.

    ``rule`` is a dense rule index, or ``None`` for terminal leaves and
    anonymous wrapper nodes.  Children tile the node's span: they are
    ordered, non-overlapping, contiguous, and contained in it.
    Predicate subexpressions contribute no children.
    """

    rule: int | None
    start: int
    end: int
    children: tuple["ParseTreeNode", ...] = ()

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True, slots=True)
class Success:
    end: int
    node: ParseTreeNode


Outcome = Success | _Fail


class InvalidGrammarError(Exception):
    def __init__(self, issues: tuple[ValidationIssue, ...]):
        lines = [f"{i.code} in rule {i.rule!r}: {i.message}" for i in issues]
        super().__init__(
            "grammar has validation errors:\n  " + "\n  ".join(lines)
        )
        self.issues = issues


class ParseFailed(Exception):
    """Complete parse failed; carries rightmost-failure diagnostics."""

    def __init__(self, position: int, expected: frozenset[str], reason: str):
        expects = ", ".join(sorted(expected)) if expected else "nothing recorded"
        super().__init__(
            f"{reason} at position {position} (column {position + 1}); "
            f"expected one of: {expects}"
        )
        self.position = position
        self.expected = expected


class LeftRecursion(Exception):
    """A rule re-entered itself at the same position.

    ``cycle`` lists the (rule index, position) pairs from the first
    occurrence of the repeated cell back to itself.
    """

    def __init__(self, cycle: tuple[tuple[int, int], ...], names: tuple[str, ...]):
        trail = " -> ".join(f"{names[r]}@{p}" for r, p in cycle)
        super().__init__(f"left recursion detected: {trail}")
        self.cycle = cycle


class DepthExceeded(Exception):
    def __init__(self, limit: int, detail: str):
        super().__init__(f"recursion depth limit {limit} exceeded ({detail})")
        self.limit = limit


DEFAULT_DEPTH_LIMIT = 100_000
#: Interpreter recursion limit while a parse or a :func:`run_deep` call
#: is live: room for ``DEFAULT_DEPTH_LIMIT`` nested rule applications at
#: up to 13 interpreter frames each.
DEEP_RECURSION_LIMIT = 1_344_177


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Tunables for a parse session.

    ``depth_limit`` is the exact number of nested rule applications a
    session allows: applying one more raises :class:`DepthExceeded`
    with ``limit == depth_limit``.  It must be at least 1.
    """

    depth_limit: int = DEFAULT_DEPTH_LIMIT

    def __post_init__(self) -> None:
        if self.depth_limit < 1:
            raise ValueError(
                f"depth_limit must be at least 1, got {self.depth_limit}"
            )


# The recursion limit is process-wide, so every deep caller raises it
# under this lock, and the saved limit comes back only when no deep
# caller is left on any thread.
_deep_lock = threading.Lock()
_deep_callers = 0
_deep_saved_limit = 0


def _enter_deep() -> None:
    global _deep_callers, _deep_saved_limit
    with _deep_lock:
        limit = sys.getrecursionlimit()
        if _deep_callers == 0:
            _deep_saved_limit = limit
        if limit < DEEP_RECURSION_LIMIT:
            sys.setrecursionlimit(DEEP_RECURSION_LIMIT)
        _deep_callers += 1


def _leave_deep() -> None:
    global _deep_callers
    with _deep_lock:
        _deep_callers -= 1
        if _deep_callers == 0:
            sys.setrecursionlimit(_deep_saved_limit)


def run_deep(fn, *args, **kwargs):
    """Call ``fn`` on this thread with the recursion limit raised.

    The interpreter recursion limit is at least ``DEEP_RECURSION_LIMIT``
    while ``fn`` runs and is restored when the last deep caller, on any
    thread, has finished; nested and concurrent calls are safe.
    Exceptions propagate to the caller.
    """
    _enter_deep()
    try:
        return fn(*args, **kwargs)
    finally:
        _leave_deep()


# Node types whose failure the engine records for diagnostics.
_LABELLED = (AnyChar, Char, Class, Literal, Not)


def _failure_label(e: PegExpr, names: tuple[str, ...]) -> str:
    if isinstance(e, AnyChar):
        return "any character"
    return render_expr(e, names)


def _prepare(grammar: Grammar) -> PreparedGrammar:
    """The grammar's handle, validated and with the engine's fields set.

    Validation and labelling run once per grammar object; an invalid
    grammar raises :class:`InvalidGrammarError` on every call.
    """
    prep = prepared(grammar)
    if prep.errors is None:
        prep.errors = validation_errors(grammar)
    if prep.errors:
        raise InvalidGrammarError(prep.errors)
    if prep.labels is None:
        names = grammar.names
        prep.labels = {
            e: _failure_label(e, names)
            for e in walk_exprs(grammar)
            if isinstance(e, _LABELLED)
        }
    return prep


@dataclass(frozen=True, slots=True)
class Stats:
    """Monotone session counters plus a memory estimate.

    ``memo_bytes_estimate`` charges 8 bytes per matrix slot (including
    the character row) and, for each Done Success cell, 56 bytes for
    the outcome record, 72 bytes for its retained node, and 8 bytes per
    child pointer.  Shared Fail outcomes and sub-rule nodes owned by
    other cells cost nothing extra, so the estimate counts only what
    the memo table keeps alive.
    """

    cells_evaluated: int
    char_cells_evaluated: int
    expr_steps: int
    max_active_depth: int
    memo_bytes_estimate: int

    @property
    def total_cells(self) -> int:
        """Rule cells plus character-row cells actually evaluated."""
        return self.cells_evaluated + self.char_cells_evaluated


_SLOT_BYTES = 8
_OUTCOME_BYTES = 56
_NODE_BYTES = 72
_PTR_BYTES = 8


class ParseSession:
    """One input, one memo matrix, single-owner.

    ``evaluator``, when given, maps (rule-labelled node, input text) to
    a semantic value; it is only consulted for display by
    :func:`dump_matrix`.
    """

    def __init__(
        self,
        grammar: Grammar,
        text: str,
        evaluator=None,
        config: EngineConfig | None = None,
    ):
        prep = _prepare(grammar)
        self.grammar = grammar
        self.text = text
        self.evaluator = evaluator
        self.config = config or EngineConfig()
        n1 = len(text) + 1
        self.matrix: list[list] = [[UNEVALUATED] * n1 for _ in grammar.rules]
        self.char_row: list = [UNEVALUATED] * n1
        self._active: list[tuple[int, int]] = []
        self._labels = prep.labels
        self._cells_evaluated = 0
        self._expr_steps = 0
        self._max_active_depth = 0
        self._fail_pos = -1
        self._fail_labels: set[str] = set()

    # -- memoized entry points ------------------------------------------

    def apply(self, rule: int, pos: int) -> Outcome:
        """Force the memo cell for (rule, pos) and return its outcome.

        At most one evaluation per cell ever happens; an InProgress hit
        raises LeftRecursion with the offending cycle.
        """
        row = self.matrix[rule]
        cell = row[pos]
        if cell is UNEVALUATED:
            active = self._active
            if len(active) >= self.config.depth_limit:
                raise DepthExceeded(
                    self.config.depth_limit,
                    f"while applying rule {self.grammar.rule_name(rule)!r} at {pos}",
                )
            row[pos] = INPROGRESS
            outermost = not active
            if outermost:
                _enter_deep()
            active.append((rule, pos))
            if len(active) > self._max_active_depth:
                self._max_active_depth = len(active)
            try:
                res = self._eval(self.grammar.rules[rule].body, pos)
            except RecursionError:
                raise DepthExceeded(
                    self.config.depth_limit, "interpreter frame budget exhausted"
                ) from None
            finally:
                active.pop()
                if outermost:
                    _leave_deep()
            if res is FAIL:
                out: Outcome = FAIL
            else:
                end, kids = res
                out = Success(end, ParseTreeNode(rule, pos, end, kids))
            if row[pos] is not INPROGRESS:
                raise RuntimeError(f"memo cell ({rule}, {pos}) evaluated twice")
            row[pos] = out
            self._cells_evaluated += 1
            return out
        if cell is INPROGRESS:
            first = self._active.index((rule, pos))
            cycle = tuple(self._active[first:]) + ((rule, pos),)
            raise LeftRecursion(cycle, self.grammar.names)
        return cell

    def eval_expr(self, e: PegExpr, pos: int) -> Outcome:
        """Evaluate one expression structurally at ``pos``.

        Consumed terminals become leaf nodes; multi-part matches are
        wrapped in an anonymous node so the outcome always carries a
        single tree.
        """
        res = self._eval(e, pos)
        if res is FAIL:
            return FAIL
        end, kids = res
        if len(kids) == 1:
            return Success(end, kids[0])
        return Success(end, ParseTreeNode(None, pos, end, kids))

    def char_outcome(self, pos: int) -> Outcome:
        """Memoized character-row cell: one leaf per input position."""
        cell = self.char_row[pos]
        if cell is UNEVALUATED:
            if pos < len(self.text):
                cell = Success(pos + 1, ParseTreeNode(None, pos, pos + 1))
            else:
                cell = FAIL
            self.char_row[pos] = cell
        return cell

    def record_failure(self, pos: int, label: str) -> None:
        """Note a match failure for rightmost-failure diagnostics."""
        if pos < self._fail_pos:
            return
        if pos > self._fail_pos:
            self._fail_pos = pos
            self._fail_labels = {label}
        else:
            self._fail_labels.add(label)

    # -- internals -------------------------------------------------------

    def _fail_expr(self, pos: int, e: PegExpr) -> _Fail:
        if pos >= self._fail_pos:
            label = self._labels.get(e)
            if label is None:  # an expression from outside the grammar
                label = _failure_label(e, self.grammar.names)
            self.record_failure(pos, label)
        return FAIL

    def _eval(self, e: PegExpr, pos: int):
        self._expr_steps += 1
        return _HANDLERS[type(e)](self, e, pos)


def _h_empty(s: ParseSession, e: Empty, pos: int):
    return pos, ()


def _h_any(s: ParseSession, e: AnyChar, pos: int):
    out = s.char_outcome(pos)
    if out is FAIL:
        return s._fail_expr(pos, e)
    return out.end, (out.node,)


def _h_char(s: ParseSession, e: Char, pos: int):
    out = s.char_outcome(pos)
    if out is not FAIL and s.text[pos] == e.char:
        return out.end, (out.node,)
    return s._fail_expr(pos, e)


def _h_class(s: ParseSession, e: Class, pos: int):
    out = s.char_outcome(pos)
    if out is not FAIL and s.text[pos] in e.chars:
        return out.end, (out.node,)
    return s._fail_expr(pos, e)


def _h_literal(s: ParseSession, e: Literal, pos: int):
    kids = []
    p = pos
    for ch in e.text:
        out = s.char_outcome(p)
        if out is FAIL or s.text[p] != ch:
            return s._fail_expr(pos, e)
        kids.append(out.node)
        p = out.end
    return p, tuple(kids)


def _h_seq(s: ParseSession, e: Seq, pos: int):
    kids: list[ParseTreeNode] = []
    p = pos
    for part in e.parts:
        res = s._eval(part, p)
        if res is FAIL:
            return FAIL
        p, nodes = res
        kids.extend(nodes)
    return p, tuple(kids)


def _h_choice(s: ParseSession, e: Choice, pos: int):
    for alt in e.alts:
        res = s._eval(alt, pos)
        if res is not FAIL:
            return res
    return FAIL


def _h_repeat(s: ParseSession, e: Star | Plus, pos: int):
    kids: list[ParseTreeNode] = []
    p = pos
    while True:
        res = s._eval(e.body, p)
        if res is FAIL:
            # every iteration consumes, so p == pos only after none matched
            if p == pos and type(e) is Plus:
                return FAIL
            return p, tuple(kids)
        newp, nodes = res
        if newp == p:
            raise RuntimeError(
                f"{type(e).__name__} body matched without consuming input; "
                "validation should have rejected this grammar"
            )
        kids.extend(nodes)
        p = newp


def _h_opt(s: ParseSession, e: Opt, pos: int):
    res = s._eval(e.body, pos)
    if res is FAIL:
        return pos, ()
    return res


def _h_and(s: ParseSession, e: And, pos: int):
    res = s._eval(e.body, pos)
    if res is FAIL:
        return FAIL
    return pos, ()


def _h_not(s: ParseSession, e: Not, pos: int):
    res = s._eval(e.body, pos)
    if res is FAIL:
        return pos, ()
    return s._fail_expr(pos, e)


def _h_ref(s: ParseSession, e: Ref, pos: int):
    out = s.apply(e.rule, pos)
    if out is FAIL:
        return FAIL
    return out.end, (out.node,)


_HANDLERS = {
    Empty: _h_empty,
    AnyChar: _h_any,
    Char: _h_char,
    Class: _h_class,
    Literal: _h_literal,
    Seq: _h_seq,
    Choice: _h_choice,
    Star: _h_repeat,
    Plus: _h_repeat,
    Opt: _h_opt,
    And: _h_and,
    Not: _h_not,
    Ref: _h_ref,
}


def new_session(
    grammar: Grammar,
    text: str,
    evaluator=None,
    config: EngineConfig | None = None,
) -> ParseSession:
    """Fresh session with every cell Unevaluated."""
    return ParseSession(grammar, text, evaluator=evaluator, config=config)


def parse_complete(s: ParseSession) -> ParseTreeNode:
    """Parse the whole input with the start rule.

    Success requires the start rule to consume every character.  On
    failure (or an incomplete match) raises :class:`ParseFailed` with
    the rightmost failure position and the labels attempted there.
    """
    return run_deep(_parse_complete_inline, s)


def _parse_complete_inline(s: ParseSession) -> ParseTreeNode:
    out = s.apply(s.grammar.start, 0)
    n = len(s.text)
    if out is not FAIL and out.end == n:
        return out.node
    pos, expected = furthest_failure(s)
    if out is not FAIL:
        reason = f"input not fully consumed (matched up to position {out.end})"
        if pos < out.end:
            pos, expected = out.end, frozenset()
    else:
        reason = "parse failed"
        if pos < 0:
            pos, expected = 0, frozenset()
    raise ParseFailed(pos, expected, reason)


def furthest_failure(s: ParseSession) -> tuple[int, frozenset[str]]:
    """Rightmost position where a terminal or predicate failed, with
    the set of labels attempted there.  (-1, empty) if nothing failed."""
    return s._fail_pos, frozenset(s._fail_labels)


def stats(s: ParseSession) -> Stats:
    """Snapshot of the session counters; all monotone over a session."""
    total = _SLOT_BYTES * (len(s.grammar.rules) + 1) * (len(s.text) + 1)
    for row in s.matrix:
        for cell in row:
            if isinstance(cell, Success):
                total += (
                    _OUTCOME_BYTES
                    + _NODE_BYTES
                    + _PTR_BYTES * len(cell.node.children)
                )
    char_cells = 0
    for cell in s.char_row:
        if cell is not UNEVALUATED:
            char_cells += 1
            if isinstance(cell, Success):
                total += _OUTCOME_BYTES + _NODE_BYTES
    return Stats(
        cells_evaluated=s._cells_evaluated,
        char_cells_evaluated=char_cells,
        expr_steps=s._expr_steps,
        max_active_depth=s._max_active_depth,
        memo_bytes_estimate=total,
    )


def _cell_text(s: ParseSession, cell, char_cell: bool) -> str:
    if cell is UNEVALUATED:
        return "·"
    if cell is INPROGRESS:
        return "?"
    if cell is FAIL:
        return "X"
    assert isinstance(cell, Success)
    if char_cell:
        value: object = s.text[cell.node.start]
    elif s.evaluator is not None:
        value = s.evaluator(cell.node, s.text)
    else:
        value = cell.node.end - cell.node.start
    return f"({value},C{cell.end + 1})"


def dump_matrix(s: ParseSession) -> str:
    """Render the memo matrix without forcing any evaluation.

    One row per rule plus a CHAR row; columns C1..C(n+1).  Cells show
    ``·`` (Unevaluated), ``?`` (InProgress), ``X`` (Done Fail), or
    ``(v,Ck)`` for Done Success where v is the evaluator's value when
    one is registered (the span length otherwise; the character itself
    on the CHAR row) and Ck is the 1-indexed remainder column.
    """
    labels = list(s.grammar.names) + ["CHAR"]
    grid = [
        [_cell_text(s, cell, False) for cell in row] for row in s.matrix
    ]
    grid.append([_cell_text(s, cell, True) for cell in s.char_row])
    ncols = len(s.text) + 1
    headers = [f"C{i + 1}" for i in range(ncols)]
    label_w = max(len(x) for x in labels)
    widths = [
        max(len(headers[c]), max(len(grid[r][c]) for r in range(len(grid))))
        for c in range(ncols)
    ]
    lines = [
        " " * label_w
        + "  "
        + "  ".join(headers[c].ljust(widths[c]) for c in range(ncols))
    ]
    for label, row in zip(labels, grid):
        lines.append(
            label.ljust(label_w)
            + "  "
            + "  ".join(row[c].ljust(widths[c]) for c in range(ncols))
        )
    return "\n".join(line.rstrip() for line in lines) + "\n"
