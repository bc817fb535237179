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

Each rule body becomes one generated Python function, written and
compiled once per grammar at the first session on it (see
:func:`_generate`) and kept on the grammar's
:class:`~pegkit.grammar.PreparedGrammar` handle.  As in the paper,
where a nonterminal's parsing function returns the result that fills
its memo field, the function returns the rule's cell: ``FAIL`` or the
node it built from the locals that hold the children.  Inside it every
subexpression is straight-line code on local variables, so a rule
application costs two interpreter frames: ``apply`` and the rule's
function.  A ``Ref`` calls :meth:`ParseSession.apply`, the single entry
point for rule cells, and a terminal calls
:meth:`ParseSession.char_outcome`, the single entry point for the
character row; the session's counters (``stats``) are kept up to date
as each cell becomes Done.

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
    InvalidGrammarError,
    Literal,
    Opt,
    PegExpr,
    Plus,
    PreparedGrammar,
    Ref,
    Seq,
    Star,
    _children,
    _structural_errors,
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

class _Unfrozen:
    """A memo cell while it is being filled in.

    It has :class:`ParseTreeNode`'s slots without the frozen
    dataclass's ``__setattr__``, so the generated rule functions and
    ``char_outcome`` set each field by a plain attribute store and then
    turn the cell into a ``ParseTreeNode`` by assigning ``__class__``,
    which CPython allows only between classes of identical layout.  That
    takes about 0.35 µs per cell, against 0.7 µs through the slot
    descriptors and 1.4 µs through ``__init__`` (CPython 3.11.7).  The
    result is an ordinary, equal, immutable ``ParseTreeNode``.
    """

    __slots__ = ("rule", "start", "end", "children")


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
#: up to 13 interpreter frames each.  One application costs two frames,
#: ``apply`` and the rule's generated function, plus one per chunk (see
#: ``_OUTLINE_PAST``) between the rule body and the ``Ref`` that applies
#: the next rule.  A function inlines at least six levels of non-``Seq``
#: nodes, two indentation levels each at most, so 11 chunks take a ``Ref``
#: more than 65 such levels deep in its rule body; the catalog grammars
#: have no chunk.
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

    Validation and code generation run once per grammar object;
    an invalid grammar raises :class:`InvalidGrammarError` on every
    call.
    """
    prep = prepared(grammar)
    if prep.errors is None:
        prep.errors = validation_errors(grammar)
    if prep.errors:
        raise InvalidGrammarError(prep.errors)
    if prep.code is None:
        prep.code = _generate(
            [r.body for r in grammar.rules], grammar.names, rules=True
        )
        prep.expr_code = {}
    return prep


#: Indentation level past which :meth:`_Function.expr` outlines a node
#: with children, other than a ``Seq``, into a generated function of its
#: own (a chunk).  A node inlined at level 12 or less writes its children
#: at 14 or less, where a terminal's failure branch reaches 16 and a chunk
#: call 15, so no line is deeper than 16: within Python's 100 indentation
#: levels and, since every generated loop opens one, its 20 nested loops.
_OUTLINE_PAST = 12


def _generate(bodies, names: tuple[str, ...], rules: bool = False) -> tuple:
    """One generated function ``run(s, pos)`` per expression.

    ``run`` evaluates its expression at ``pos`` in session ``s`` and
    returns ``FAIL`` or the node of the match, built where the match
    succeeds from the locals that hold its children.  With ``rules``,
    function ``i`` is the body of rule ``i``: its node is the rule's
    memo cell, labelled ``i``, and it adds the node's bytes to
    ``s._memo_bytes``.  Otherwise the node is anonymous (``rule`` is
    None) and its caller takes the children.  ``run`` adds to
    ``s._expr_steps`` one step per expression node visited, as an
    interpreter of the tree would, and flushes them before each call
    that can raise.  Terminals and ``Not`` record their failure label
    for diagnostics: "any character" for ``AnyChar``, otherwise the node
    rendered once here with the grammar's rule ``names``.
    """
    # the generator recurses a few frames deep per nesting level
    _enter_deep()
    try:
        src = _Source(names)
        for i, e in enumerate(bodies):
            _Function(src, f"_f{i}", e, i if rules else None)
        return src.build(len(bodies))
    finally:
        _leave_deep()


class _Source:
    """Source text of generated functions that share one namespace.

    The source holds only template text, identifiers made here and
    integers; every value taken from the grammar (character sets,
    literal text, failure labels, messages) is a global constant of the
    namespace.  The functions are taken out of the namespace after
    ``exec``, so no function and its globals form a reference cycle.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.lines: list[str] = []
        self.ns: dict = {
            "FAIL": FAIL,
            "ParseTreeNode": ParseTreeNode,
            "_Unfrozen": _Unfrozen,
        }
        self._consts: dict = {}

    def const(self, value) -> str:
        key = (type(value), value)
        name = self._consts.get(key)
        if name is None:
            name = self._consts[key] = f"K{len(self._consts)}"
            self.ns[name] = value
        return name

    def label(self, e: PegExpr) -> str:
        return self.const(render_expr(e, self.names))

    def build(self, count: int) -> tuple:
        code = compile("\n".join(self.lines) + "\n", "<pegkit generated>", "exec")
        ns = self.ns
        exec(code, ns)
        return tuple(ns.pop(f"_f{i}") for i in range(count))


def _tuple(kids: list[str]) -> str:
    """A tuple display of ``kids``."""
    return "(" + ", ".join(kids) + ("," if len(kids) == 1 else "") + ")"


class _Function:
    """Writes one generated function into a :class:`_Source`.

    Code is written in failure-continuation style: the code of a
    subexpression falls through on success and runs its ``fail``
    statement, which leaves for the failure target, otherwise.  A
    subexpression written by :meth:`expr` leaves the expression of its
    end position and its children: a list of locals that each hold one
    node, and starred locals (``*v3``) that hold the nodes collected by
    a choice, an option or a repetition.  A subexpression written by
    :meth:`tail` ends the function instead: every path on which it
    matches returns the function's node, so a choice there needs no
    merge.  Expression steps are counted at generation time in
    ``pending`` and written to the session before every ``apply`` or
    chunk call, at every exit and wherever control flow merges.  The
    code relies on validation: node types are exact, every ``Ref`` names
    a rule, and no repetition's body can match empty.
    """

    def __init__(self, src: _Source, name: str, e: PegExpr, rule: int | None):
        self.src = src
        self.rule = rule
        self.body: list[str] = []
        self.pending = 0
        self.nvars = 0
        self.uses_text = False
        self.tail(e, "pos", "return FAIL", 1, [])
        src.lines.append(f"def {name}(s, pos):")
        if self.uses_text:
            src.lines.append("    text = s.text")
        # a slot left unfilled is blank
        src.lines.extend(line for line in self.body if line.strip())

    def line(self, ind: int, text: str) -> None:
        self.body.append("    " * ind + text)

    def slot(self, ind: int) -> int:
        """Reserve a line at ``ind``, for :meth:`merge` to fill."""
        self.body.append("    " * ind)
        return len(self.body) - 1

    def var(self) -> str:
        self.nvars += 1
        return f"v{self.nvars}"

    def flush(self, ind: int) -> None:
        if self.pending:
            self.line(ind, f"s._expr_steps += {self.pending}")
            self.pending = 0

    def fail(self, ind: int, fail: str) -> None:
        if self.pending:
            self.line(ind, f"s._expr_steps += {self.pending}")
        self.line(ind, fail)

    def exit(self, ind: int, end: str, kids: list[str]) -> None:
        """Return the function's node: ``pos`` to ``end``, with ``kids``.

        The node is built as :class:`_Unfrozen` and becomes a
        :class:`ParseTreeNode` by ``__class__`` assignment.  A rule's
        node is its memo cell, so its bytes are charged here, by the
        model of :class:`Stats`: a constant when the number of children
        is known here.
        """
        self.flush(ind)
        self.line(ind, "n = _Unfrozen()")
        self.line(ind, f"n.rule = {self.rule}")
        self.line(ind, "n.start = pos")
        self.line(ind, f"n.end = {end}")
        if self.rule is None:
            self.line(ind, f"n.children = {_tuple(kids)}")
        elif not any(k.startswith("*") for k in kids):
            self.line(ind, f"n.children = {_tuple(kids)}")
            size = _NODE_BYTES + (_TUPLE_BYTES + _PTR_BYTES * len(kids) if kids else 0)
            self.line(ind, f"s._memo_bytes += {size}")
        else:
            self.line(ind, f"n.children = c = {_tuple(kids)}")
            self.line(
                ind,
                f"s._memo_bytes += {_NODE_BYTES + _TUPLE_BYTES} + {_PTR_BYTES} * len(c)"
                f" if c else {_NODE_BYTES}",
            )
        self.line(ind, "n.__class__ = ParseTreeNode")
        self.line(ind, "return n")

    def tail(self, e: PegExpr, pos: str, fail: str, ind: int, kids: list[str]) -> None:
        """Write ``e`` at ``pos`` to end the function, after ``kids``."""
        t = type(e)
        if t is Seq:
            self.pending += 1
            pos, more = self.seq(e.parts[:-1], pos, fail, ind)
            self.tail(e.parts[-1], pos, fail, ind, kids + more)
        elif t is Choice and ind <= _OUTLINE_PAST:
            # each alternative but the last fails by leaving its loop
            self.pending += 1
            for alt in e.alts[:-1]:
                self.line(ind, "while True:")
                self.tail(alt, pos, "break", ind + 1, kids)
            self.tail(e.alts[-1], pos, fail, ind, kids)
        else:
            end, more = self.expr(e, pos, fail, ind)
            self.exit(ind, end, kids + more)

    def expr(self, e: PegExpr, pos: str, fail: str, ind: int):
        """Write ``e`` at ``pos``; return its end and its children."""
        src = self.src
        t = type(e)
        if ind > _OUTLINE_PAST and t is not Seq and _children(e):
            chunk = src.const(_generate((e,), src.names)[0])
            self.flush(ind)
            node = self.var()
            self.line(ind, f"{node} = {chunk}(s, {pos})")
            self.line(ind, f"if {node} is FAIL:")
            self.fail(ind + 1, fail)
            return f"{node}.end", [f"*{node}.children"]
        self.pending += 1
        if t is Ref:
            self.flush(ind)
            node = self.var()
            self.line(ind, f"{node} = s.apply({e.rule}, {pos})")
            self.line(ind, f"if {node} is FAIL:")
            self.fail(ind + 1, fail)
            return f"{node}.end", [node]
        if t is AnyChar:
            node = self.terminal(ind, pos, None, pos, src.const("any character"), fail)
            return f"{node}.end", [node]
        if t is Char or t is Class:
            # a one-character string is "in" a Class's set and "in" itself
            accepted = e.chars if t is Class else e.char
            node = self.terminal(ind, pos, accepted, pos, src.label(e), fail)
            return f"{node}.end", [node]
        if t is Literal:
            label = src.label(e) if e.text else None
            end, kids = pos, []
            for ch in e.text:
                node = self.terminal(ind, end, ch, pos, label, fail)
                end = f"{node}.end"
                kids.append(node)
            return end, kids
        if t is Empty:
            return pos, []
        if t is Seq:
            return self.seq(e.parts, pos, fail, ind)
        if t is Choice:
            return self.choice(e.alts, pos, fail, ind)
        if t is Star or t is Plus:
            return self.repeat(e, pos, fail, ind)
        if t is Opt:
            end = self.var()
            self.line(ind, f"{end} = {pos}")
            missing = self.slot(ind)
            present = self.attempt(e.body, pos, end, ind)
            return end, self.merge([(missing, []), present])
        # validation leaves only And and Not
        return self.predicate(e, pos, fail, ind), []

    def terminal(self, ind, pos, accepted, at, label, fail) -> str:
        """One character-row test at ``pos``: the character must be in
        ``accepted`` (any character when it is None).  On failure,
        record ``label`` at ``at`` and leave by ``fail``.  Returns the
        local holding the character's node, whose ``end`` is the cell's
        own, so that nodes ending there share its int."""
        node = self.var()
        test = f"{node} is FAIL"
        if accepted is not None:
            self.uses_text = True
            test += f" or text[{pos}] not in {self.src.const(accepted)}"
        self.line(ind, f"{node} = s.char_outcome({pos})")
        self.line(ind, f"if {test}:")
        self.line(ind + 1, f"if {at} >= s._fail_pos:")
        self.line(ind + 2, f"s.record_failure({at}, {label})")
        self.fail(ind + 1, fail)
        return node

    def seq(self, parts, pos: str, fail: str, ind: int):
        kids: list[str] = []
        for part in parts:
            pos, more = self.expr(part, pos, fail, ind)
            kids += more
        return pos, kids

    def choice(self, alts, pos: str, fail: str, ind: int):
        end = self.var()
        self.line(ind, f"{end} = FAIL")
        self.line(ind, "while True:")
        attempts = []
        for alt in alts:
            attempts.append(self.attempt(alt, pos, end, ind + 1))
            self.line(ind + 1, f"if {end} is not FAIL:")
            self.line(ind + 2, "break")
        self.line(ind + 1, "break")
        self.line(ind, f"if {end} is FAIL:")
        self.fail(ind + 1, fail)
        return end, self.merge(attempts)

    def attempt(self, e: PegExpr, pos: str, end: str, ind: int):
        """Try ``e`` at ``pos``: on success ``end`` becomes its end; on
        failure ``end`` keeps its value.  Steps are flushed either way.
        Returns the slot for the merge on success and ``e``'s children."""
        self.line(ind, "while True:")
        alt_end, kids = self.expr(e, pos, "break", ind + 1)
        self.flush(ind + 1)
        self.line(ind + 1, f"{end} = {alt_end}")
        slot = self.slot(ind + 1)
        self.line(ind + 1, "break")
        return slot, kids

    def merge(self, attempts) -> list[str]:
        """Fill the slot of each ``(slot, kids)`` attempt so that the
        children of the attempt that matched end up in one tuple, and
        return that tuple's local, starred."""
        merged = self.var()
        for slot, kids in attempts:
            self.body[slot] += f"{merged} = {_tuple(kids)}"
        return [f"*{merged}"]

    def repeat(self, e, pos: str, fail: str, ind: int):
        self.flush(ind)
        end = self.var()
        kids = self.var()
        self.line(ind, f"{end} = {pos}")
        self.line(ind, f"{kids} = []")
        self.line(ind, "while True:")
        body_end, more = self.expr(e.body, end, "break", ind + 1)
        self.flush(ind + 1)
        self.line(ind + 1, f"{end} = {body_end}")
        self.line(ind + 1, f"{kids} += {_tuple(more)}")
        if type(e) is Plus:
            # validation refuses a body that can match empty, so every
            # iteration consumes and end == pos only after none matched
            self.line(ind, f"if {end} == {pos}:")
            self.fail(ind + 1, fail)
        return end, [f"*{kids}"]

    def predicate(self, e, pos: str, fail: str, ind: int) -> str:
        matched = self.var()
        self.line(ind, f"{matched} = FAIL")
        self.attempt(e.body, pos, matched, ind)
        if type(e) is And:
            self.line(ind, f"if {matched} is FAIL:")
            self.fail(ind + 1, fail)
        else:
            self.line(ind, f"if {matched} is not FAIL:")
            self.line(ind + 1, f"if {pos} >= s._fail_pos:")
            self.line(ind + 2, f"s.record_failure({pos}, {self.src.label(e)})")
            self.fail(ind + 1, fail)
        return pos


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
        self._expr_code = prep.expr_code
        self._depth_limit = self.config.depth_limit
        self._cells_evaluated = 0
        self._char_cells = 0
        self._memo_bytes = _SLOT_BYTES * (len(grammar.rules) + 1) * n1
        self._expr_steps = 0
        self._max_active_depth = 0
        self._fail_pos = -1
        self._fail_labels: set[str] = set()

    def _bad_position(self, pos) -> ValueError:
        return ValueError(
            f"position {pos} is outside the input (0..{len(self.text)})"
        )

    def _bad_cell(self, rule, pos) -> ValueError:
        if 0 <= rule < len(self.matrix):
            return self._bad_position(pos)
        return ValueError(
            f"rule {rule} is outside the grammar (0..{len(self.matrix) - 1})"
        )

    # -- memoized entry points ------------------------------------------

    def apply(self, rule: int, pos: int) -> Outcome:
        """Force the memo cell for (rule, pos) and return its outcome.

        At most one evaluation per cell ever happens; an InProgress hit
        raises LeftRecursion with the offending cycle.  A cell left
        InProgress by a parse that an error aborted raises RuntimeError:
        such a session must be discarded.  A rule outside
        ``0..len(rules) - 1`` or a position outside ``0..len(text)``
        raises ValueError.
        """
        if rule < 0 or pos < 0:
            raise self._bad_cell(rule, pos)
        try:
            row = self.matrix[rule]
            cell = row[pos]
        except IndexError:
            raise self._bad_cell(rule, pos) from None
        if cell is UNEVALUATED:
            active = self._active
            depth = len(active)
            if depth >= self._depth_limit:
                raise DepthExceeded(
                    self._depth_limit,
                    f"while applying rule {self.grammar.rule_name(rule)!r} at {pos}",
                )
            row[pos] = INPROGRESS
            if not depth:
                _enter_deep()
            active.append((rule, pos))
            if depth >= self._max_active_depth:
                self._max_active_depth = depth + 1
            try:
                out = self._code[rule](self, pos)
            except RecursionError:
                raise DepthExceeded(
                    self._depth_limit, "interpreter frame budget exhausted"
                ) from None
            finally:
                active.pop()
                if not depth:
                    _leave_deep()
            if row[pos] is not INPROGRESS:
                raise RuntimeError(f"memo cell ({rule}, {pos}) evaluated twice")
            row[pos] = out
            self._cells_evaluated += 1
            return out
        if cell is INPROGRESS:
            try:
                first = self._active.index((rule, pos))
            except ValueError:
                raise RuntimeError(
                    f"memo cell ({rule}, {pos}) is InProgress with no active "
                    "call: an earlier parse in this session was aborted by an "
                    "error and left it InProgress; discard the session"
                ) from None
            cycle = tuple(self._active[first:]) + ((rule, pos),)
            raise LeftRecursion(cycle, self.grammar.names)
        return cell

    def eval_expr(self, e: PegExpr, pos: int) -> Outcome:
        """Evaluate one expression structurally at ``pos``.

        A match that contributes exactly one node returns that node;
        any other match is wrapped in an anonymous node spanning it, so
        a success is always a single tree.  The expression's code is
        generated on its first evaluation and kept on the grammar.  An
        expression that fails validation's structural checks raises
        :class:`InvalidGrammarError` and is not kept; its issues carry
        ``rule=None``.  A position outside ``0..len(text)`` raises
        ValueError.
        """
        if not 0 <= pos <= len(self.text):
            raise self._bad_position(pos)
        run = self._expr_code.get(e)
        if run is None:
            errors = _structural_errors(self.grammar, [(None, e)])
            if errors:
                raise InvalidGrammarError(tuple(errors))
            run = self._expr_code[e] = _generate((e,), self.grammar.names)[0]
        out = run(self, pos)
        if out is not FAIL and len(out.children) == 1:
            return out.children[0]
        return out

    def char_outcome(self, pos: int) -> Outcome:
        """Memoized character-row cell: one leaf per input position.  A
        position outside ``0..len(text)`` raises ValueError."""
        if pos < 0:
            raise self._bad_position(pos)
        try:
            cell = self.char_row[pos]
        except IndexError:
            raise self._bad_position(pos) from None
        if cell is UNEVALUATED:
            if pos < len(self.text):
                cell = _Unfrozen()
                cell.rule = None
                cell.start = pos
                cell.end = pos + 1
                cell.children = ()
                cell.__class__ = ParseTreeNode
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
