"""Memoizing packrat parse engine.

A :class:`ParseSession` owns one immutable input string and a matrix of
memo cells with one row per grammar rule and one column per input
position (``n + 1`` columns for input length ``n``), plus a shared
character row.  Every cell moves through the lifecycle

    Unevaluated -> InProgress -> Done(Outcome)

exactly once.  An outcome is the shared ``FAIL`` or, for a success,
the :class:`ParseTreeNode` that the match built: the cell is the node,
and its ``end`` is where the match stopped.
:meth:`ParseSession.apply` forces the cell for a (rule, position) pair:
the first request evaluates the rule body and stores the outcome; later
requests return the stored outcome without re-evaluating anything.
Because evaluation is demand-driven, cells never touched by the parse
stay Unevaluated, and total work is bounded by the matrix size rather
than by the backtracking structure.

Rule bodies are compiled once per grammar, at the first session on it,
into a tree of closures ``run(session, pos)``, one per expression node
(see :func:`_compile`), kept on the grammar's
:class:`~pegkit.grammar.PreparedGrammar` handle.  A ``Ref`` closure
calls :meth:`ParseSession.apply`, the single entry point for rule
cells; the session's counters (``stats``) are kept up to date as each
cell becomes Done.

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

The same counted section also pauses the cyclic garbage collector,
process-wide, until the last live parse on any thread has left.  A
finished memo matrix is acyclic, and a parse leaves no cyclic garbage
(everything it drops is freed by reference counting), so the collector
would only rescan the growing matrix again and again.  A caller that
had already disabled the collector finds it still disabled afterwards;
cyclic garbage made by other threads meanwhile waits until the last
parse leaves.

Sessions are single-owner: no concurrent use, no reentrant callbacks.
After LeftRecursion or DepthExceeded a session may hold InProgress
cells and should be discarded.
"""

from __future__ import annotations

import gc
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

    A Done success cell of the memo matrix is a node: rule row ``r`` at
    position ``p`` holds a node with ``rule == r`` and ``start == p``,
    and the character row holds one leaf per input character.
    """

    rule: int | None
    start: int
    end: int
    children: tuple["ParseTreeNode", ...] = ()

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


#: What a Done cell holds: the node of a success, or ``FAIL``.
Outcome = ParseTreeNode | _Fail

_new = object.__new__
_set_rule = ParseTreeNode.rule.__set__
_set_start = ParseTreeNode.start.__set__
_set_end = ParseTreeNode.end.__set__
_set_children = ParseTreeNode.children.__set__


def _success(
    rule: int | None, start: int, end: int, kids: tuple[ParseTreeNode, ...]
) -> ParseTreeNode:
    """``ParseTreeNode(rule, start, end, kids)``, built through the slot
    descriptors rather than the frozen dataclass's ``__init__``, which
    sets each field by ``object.__setattr__``: about 0.6 µs per memo
    cell instead of 1.2 µs (CPython 3.11.7, Xeon).  The result is an
    ordinary, equal, immutable instance."""
    node = _new(ParseTreeNode)
    _set_rule(node, rule)
    _set_start(node, start)
    _set_end(node, end)
    _set_children(node, kids)
    return node


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
#: up to 13 interpreter frames each.  One application costs the
#: ``apply`` frame plus one closure frame per expression level between
#: the rule body and the ``Ref`` that applies the next rule, so 13
#: frames allow Refs nested 12 levels deep; the catalog grammars nest
#: theirs at most 3 deep.
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


# The recursion limit and the collector switch are process-wide, so
# every deep caller raises the one and pauses the other under this lock,
# and the saved state comes back only when no deep caller is left on any
# thread.
_deep_lock = threading.Lock()
_deep_callers = 0
_deep_saved_limit = 0
_deep_saved_gc = False


def _enter_deep() -> None:
    global _deep_callers, _deep_saved_limit, _deep_saved_gc
    with _deep_lock:
        limit = sys.getrecursionlimit()
        if _deep_callers == 0:
            _deep_saved_limit = limit
            _deep_saved_gc = gc.isenabled()
            gc.disable()
        if limit < DEEP_RECURSION_LIMIT:
            sys.setrecursionlimit(DEEP_RECURSION_LIMIT)
        _deep_callers += 1


def _leave_deep() -> None:
    global _deep_callers
    with _deep_lock:
        _deep_callers -= 1
        if _deep_callers == 0:
            sys.setrecursionlimit(_deep_saved_limit)
            if _deep_saved_gc:
                gc.enable()


def run_deep(fn, *args, **kwargs):
    """Call ``fn`` on this thread with the recursion limit raised and
    the cyclic garbage collector paused.

    The interpreter recursion limit is at least ``DEEP_RECURSION_LIMIT``
    while ``fn`` runs, and the collector is disabled process-wide.  Both
    are restored when the last deep caller, on any thread, has finished;
    nested and concurrent calls are safe.  The collector is re-enabled
    only if it was enabled when the first of those callers entered, so
    a caller's own ``gc.disable()`` is kept; cyclic garbage made on any
    thread meanwhile is collected only after the last caller leaves.
    ``fn`` should make little cyclic garbage: a parse makes none.
    Exceptions propagate to the caller.
    """
    _enter_deep()
    try:
        return fn(*args, **kwargs)
    finally:
        _leave_deep()


def _prepare(grammar: Grammar) -> PreparedGrammar:
    """The grammar's handle, validated and with the engine's fields set.

    Validation, labelling and compilation run once per grammar object;
    an invalid grammar raises :class:`InvalidGrammarError` on every
    call.
    """
    prep = prepared(grammar)
    if prep.errors is None:
        prep.errors = validation_errors(grammar)
    if prep.errors:
        raise InvalidGrammarError(prep.errors)
    if prep.code is None:
        names = grammar.names
        prep.code = tuple(_compile(r.body, names) for r in grammar.rules)
    return prep


def _compile(e: PegExpr, names: tuple[str, ...]):
    """Closure ``run(session, pos)`` that evaluates ``e`` at ``pos``.

    ``run`` returns ``FAIL`` or ``(end, kids)``, where ``kids`` is the
    tuple of nodes the match contributes to its parent, and adds 1 to
    the session's expression steps; each subexpression is a closure of
    its own.  Terminals and ``Not`` record their failure label for
    diagnostics: "any character" for ``AnyChar``, otherwise the node
    rendered here once with the grammar's rule ``names``.
    """
    t = type(e)
    if t is Ref:
        rule = e.rule

        def run(s, pos):
            s._expr_steps += 1
            out = s.apply(rule, pos)
            if out is FAIL:
                return FAIL
            return out.end, (out,)

        return run

    if t is Seq:
        parts = tuple(_compile(p, names) for p in e.parts)

        def run(s, pos):
            s._expr_steps += 1
            kids: list[ParseTreeNode] = []
            p = pos
            for part in parts:
                res = part(s, p)
                if res is FAIL:
                    return FAIL
                p, nodes = res
                kids.extend(nodes)
            return p, tuple(kids)

        return run

    if t is Choice:
        alts = tuple(_compile(a, names) for a in e.alts)

        def run(s, pos):
            s._expr_steps += 1
            for alt in alts:
                res = alt(s, pos)
                if res is not FAIL:
                    return res
            return FAIL

        return run

    if t is Star or t is Plus:
        body = _compile(e.body, names)
        at_least_one = t is Plus
        kind = t.__name__

        def run(s, pos):
            s._expr_steps += 1
            kids: list[ParseTreeNode] = []
            p = pos
            while True:
                res = body(s, p)
                if res is FAIL:
                    # every iteration consumes, so p == pos only after none matched
                    if p == pos and at_least_one:
                        return FAIL
                    return p, tuple(kids)
                newp, nodes = res
                if newp == p:
                    raise RuntimeError(
                        f"{kind} body matched without consuming input; "
                        "validation should have rejected this grammar"
                    )
                kids.extend(nodes)
                p = newp

        return run

    if t is Opt:
        body = _compile(e.body, names)

        def run(s, pos):
            s._expr_steps += 1
            res = body(s, pos)
            if res is FAIL:
                return pos, ()
            return res

        return run

    if t is And:
        body = _compile(e.body, names)

        def run(s, pos):
            s._expr_steps += 1
            if body(s, pos) is FAIL:
                return FAIL
            return pos, ()

        return run

    if t is Empty:

        def run(s, pos):
            s._expr_steps += 1
            return pos, ()

        return run

    if t is Not:
        body = _compile(e.body, names)
        label = render_expr(e, names)

        def run(s, pos):
            s._expr_steps += 1
            if body(s, pos) is FAIL:
                return pos, ()
            if pos >= s._fail_pos:
                s.record_failure(pos, label)
            return FAIL

        return run

    if t is AnyChar:
        label = "any character"

        def run(s, pos):
            s._expr_steps += 1
            out = s.char_outcome(pos)
            if out is FAIL:
                if pos >= s._fail_pos:
                    s.record_failure(pos, label)
                return FAIL
            return out.end, (out,)

        return run

    if t is Char or t is Class:
        # a one-character string is "in" a Class's set and "in" itself
        accepted = e.chars if t is Class else e.char
        label = render_expr(e, names)

        def run(s, pos):
            s._expr_steps += 1
            out = s.char_outcome(pos)
            if out is not FAIL and s.text[pos] in accepted:
                return out.end, (out,)
            if pos >= s._fail_pos:
                s.record_failure(pos, label)
            return FAIL

        return run

    if t is not Literal:
        raise TypeError(f"not a PegExpr: {e!r}")
    expected = e.text
    label = render_expr(e, names)

    def run(s, pos):
        s._expr_steps += 1
        kids = []
        p = pos
        for ch in expected:
            out = s.char_outcome(p)
            if out is FAIL or s.text[p] != ch:
                if pos >= s._fail_pos:
                    s.record_failure(pos, label)
                return FAIL
            kids.append(out)
            p = out.end
        return p, tuple(kids)

    return run


@dataclass(frozen=True, slots=True)
class Stats:
    """Monotone session counters plus a memory estimate.

    ``memo_bytes_estimate`` charges 8 bytes per matrix slot (including
    the character row) and, for each Done success cell, 64 bytes for
    its node.  A rule cell with ``k >= 1`` children adds its children
    tuple, 40 + 8·k bytes; a cell without children shares the empty
    tuple.  A character cell adds 32 bytes for the int object of its end
    position, which later cells starting there share.  These are the
    sizes ``tracemalloc`` sees on CPython 3.11.  Shared Fail outcomes
    and sub-rule nodes owned by other cells cost nothing extra, so the
    estimate counts only what the memo table keeps alive.
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
_NODE_BYTES = 64
_TUPLE_BYTES = 40
_PTR_BYTES = 8
_CHAR_CELL_BYTES = _NODE_BYTES + 32


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
        self._code = prep.code
        self._cells_evaluated = 0
        self._char_cells = 0
        self._memo_bytes = _SLOT_BYTES * (len(grammar.rules) + 1) * n1
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
                res = self._code[rule](self, pos)
            except RecursionError:
                raise DepthExceeded(
                    self.config.depth_limit, "interpreter frame budget exhausted"
                ) from None
            finally:
                active.pop()
                if outermost:
                    _leave_deep()
            if row[pos] is not INPROGRESS:
                raise RuntimeError(f"memo cell ({rule}, {pos}) evaluated twice")
            if res is FAIL:
                out: Outcome = FAIL
            else:
                end, kids = res
                out = _success(rule, pos, end, kids)
                self._memo_bytes += (
                    _NODE_BYTES + _TUPLE_BYTES + _PTR_BYTES * len(kids)
                    if kids
                    else _NODE_BYTES
                )
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

        A match that contributes exactly one node returns that node;
        any other match is wrapped in an anonymous node spanning it, so
        a success is always a single tree.
        """
        res = _compile(e, self.grammar.names)(self, pos)
        if res is FAIL:
            return FAIL
        end, kids = res
        if len(kids) == 1:
            return kids[0]
        return ParseTreeNode(None, pos, end, kids)

    def char_outcome(self, pos: int) -> Outcome:
        """Memoized character-row cell: one leaf per input position."""
        cell = self.char_row[pos]
        if cell is UNEVALUATED:
            if pos < len(self.text):
                cell = _success(None, pos, pos + 1, ())
                self._memo_bytes += _CHAR_CELL_BYTES
            else:
                cell = FAIL
            self.char_row[pos] = cell
            self._char_cells += 1
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
        return out
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
    """Snapshot of the session counters; all monotone over a session.

    The counters are kept up to date as each cell becomes Done, so a
    snapshot costs the same at any input length.
    """
    return Stats(
        cells_evaluated=s._cells_evaluated,
        char_cells_evaluated=s._char_cells,
        expr_steps=s._expr_steps,
        max_active_depth=s._max_active_depth,
        memo_bytes_estimate=s._memo_bytes,
    )


def _cell_text(s: ParseSession, cell, char_cell: bool) -> str:
    if cell is UNEVALUATED:
        return "·"
    if cell is INPROGRESS:
        return "?"
    if cell is FAIL:
        return "X"
    assert isinstance(cell, ParseTreeNode)
    if char_cell:
        value: object = s.text[cell.start]
    elif s.evaluator is not None:
        value = s.evaluator(cell, s.text)
    else:
        value = cell.end - cell.start
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
