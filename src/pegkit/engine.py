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

Each rule becomes one generated Python function, written and compiled
once per grammar at the first session on it (see :func:`_generate`)
and kept on the grammar's :class:`~pegkit.grammar.PreparedGrammar`
handle.  As in the paper, where applying a nonterminal forces its memo
field, the function is the rule's application: it returns the cell if
it is Done, and otherwise evaluates the rule body, stores the cell
(``FAIL`` or the node it built from the children it gathered)
and returns it.  Inside it every subexpression is straight-line code on
local variables, and a ``Ref`` calls its rule's function directly, so a
rule application costs one interpreter frame.  The function takes the
number of applications it is nested in as an argument and passes it on
one higher, so the interpreter stack is the stack of active
applications and the engine keeps no copy of it.  A terminal reads the
character row, making the character cell only where it is Unevaluated,
and records its failure label, both written out in the function: the
terminal path calls no helper.  The session's counters (``stats``) are
kept up to date as each cell becomes Done.  :meth:`ParseSession.apply` and
:meth:`ParseSession.eval_expr` are the entry points from outside the
generated code, which never calls them: a session class that overrides
``apply`` sees only the requests made from outside.  Every rule
application, from outside or inside, calls the session's ``_code``
entry for the rule, which is where a session can observe each one.

Hitting an InProgress cell means the rule re-entered itself at the same
position with no input consumed, so the session raises a structured
:class:`LeftRecursion` error instead of looping; its cycle is read from
the interpreter frames of the applications in progress.  Recursion depth is
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
parse leaves.  When that last parse leaves, the young generation may
hold the whole matrix, far more objects than its threshold, and the
next collection would scan them all and free nothing.  So if the young
count is past what the young generations hold by the collector's own
thresholds (``t0 * (t1 + 1)``), every tracked object is moved to the
oldest generation unscanned (``gc.freeze()`` then ``gc.unfreeze()``)
before the collector is switched back on.  That moves every young
object, not only the matrix: the caller's own, made before the parse,
and other threads', made during it.  Cyclic garbage among them is
freed only by an explicit ``gc.collect()``: while every parse is large,
no collection runs by itself.  Nothing is moved while the collector
stays off for a caller, while the caller has frozen objects of its own,
or when ``t0`` is 0.  CPython 3.12.1 starts with 375 immortal tuples
frozen: moving them frees nothing and a full collection freezes them
again, so the freeze count seen at import allows the move as 0 does.

Sessions are single-owner: no concurrent use, no reentrant callbacks.
After LeftRecursion or DepthExceeded a session may hold InProgress
cells and should be discarded: forcing one raises RuntimeError.
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
    Not,
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


@dataclass(frozen=True, slots=True, eq=False)
class ParseTreeNode:
    """Span of input labelled by the rule that matched it.

    ``rule`` is a dense rule index, or ``None`` for terminal leaves and
    anonymous wrapper nodes.  Children tile the node's span: they are
    ordered, non-overlapping, contiguous, and contained in it.
    Predicate subexpressions contribute no children.

    A Done success cell of the memo matrix is a node: rule row ``r`` at
    position ``p`` holds a node with ``rule == r`` and ``start == p``,
    and the character row holds one leaf per input character.

    Two nodes are equal when their fields are, children compared as
    trees.  Equality walks the trees with its own stack and hashing
    reads the top node only, so both work on trees of any depth.
    """

    rule: int | None
    start: int
    end: int
    children: tuple["ParseTreeNode", ...] = ()

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or not isinstance(a, ParseTreeNode):
                # a child that is no node compares as a tuple item would
                if a == b:
                    continue
                return False
            if (
                a.rule != b.rule
                or a.start != b.start
                or a.end != b.end
                or len(a.children) != len(b.children)
            ):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        return hash((self.rule, self.start, self.end, len(self.children)))


#: What a Done cell holds: the node of a success, or ``FAIL``.
Outcome = ParseTreeNode | _Fail

class _Unfrozen:
    """A memo cell while it is being filled in.

    It has :class:`ParseTreeNode`'s slots without the frozen
    dataclass's ``__setattr__``, so the generated code, for a rule's
    node and for a character cell, and :func:`_char` set each field by a
    plain attribute store and then turn the cell into a
    ``ParseTreeNode`` by assigning ``__class__``,
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
#: up to 13 interpreter frames each.  One application costs one frame,
#: the rule's generated function, plus one per chunk (see
#: ``_OUTLINE_PAST``) between the rule body and the ``Ref`` that applies
#: the next rule.  A function inlines at least six levels of non-``Seq``
#: nodes, two indentation levels each at most, so 12 chunks take a
#: ``Ref`` more than 71 such levels deep in its rule body; the catalog
#: grammars have no chunk.
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


# what a session without a config uses: the one frozen instance serves all
_DEFAULT_CONFIG = EngineConfig()


# The recursion limit and the collector switch are process-wide, so
# every deep caller raises the one and pauses the other under this lock,
# and the saved state comes back only when no deep caller is left on any
# thread.  A thread that is already inside re-enters without the lock:
# its outer entry keeps the limit raised and the collector paused until
# it leaves, so the inner one has nothing to change and nothing to undo.
_deep_lock = threading.Lock()
# the ident of each thread inside, and its entries through the lock not
# yet left; changed under the lock, each thread changing its own key only
_deep_threads: dict[int, int] = {}
_deep_saved_limit = 0
_deep_saved_gc = False
_get_ident = threading.get_ident
# the freeze counts that hold no caller's object (see the module docstring)
_OWN_FROZEN = (0, gc.get_freeze_count())


def _enter_deep() -> bool:
    """Enter the counted deep section; False when this thread was already
    inside with the limit still raised, and nothing changed."""
    global _deep_saved_limit, _deep_saved_gc
    me = _get_ident()
    if me in _deep_threads and sys.getrecursionlimit() >= DEEP_RECURSION_LIMIT:
        return False
    with _deep_lock:
        limit = sys.getrecursionlimit()
        if not _deep_threads:
            _deep_saved_limit = limit
            _deep_saved_gc = gc.isenabled()
            gc.disable()
        if limit < DEEP_RECURSION_LIMIT:
            sys.setrecursionlimit(DEEP_RECURSION_LIMIT)
        _deep_threads[me] = _deep_threads.get(me, 0) + 1
    return True


def _leave_deep() -> None:
    """Leave an entry for which :func:`_enter_deep` returned True."""
    me = _get_ident()
    with _deep_lock:
        left = _deep_threads.pop(me) - 1
        if left:
            _deep_threads[me] = left
        elif not _deep_threads:
            sys.setrecursionlimit(_deep_saved_limit)
            if _deep_saved_gc:
                # promote the matrix unscanned (see the module docstring);
                # the freeze-count test keeps a caller's frozen objects frozen
                t0, t1, _ = gc.get_threshold()
                if (t0 and gc.get_count()[0] > t0 * (t1 + 1)
                        and gc.get_freeze_count() in _OWN_FROZEN):
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()


def _deep(limit: int | None, detail: str, fn, *args):
    """``fn(*args)`` in the counted deep section (see :func:`run_deep`),
    interpreter stack exhaustion raised as ``DepthExceeded(limit, detail)``
    (``limit`` None: the recursion limit in force)."""
    entered = _enter_deep()
    try:
        return fn(*args)
    except RecursionError:
        raise DepthExceeded(limit or sys.getrecursionlimit(), detail) from None
    finally:
        if entered:
            _leave_deep()


def run_deep(fn, *args, **kwargs):
    """Call ``fn`` on this thread with the recursion limit raised and
    the cyclic garbage collector paused.

    The interpreter recursion limit is at least ``DEEP_RECURSION_LIMIT``
    while ``fn`` runs, and the collector is disabled process-wide.  Both
    are restored when the last deep caller, on any thread, has finished;
    nested and concurrent calls are safe, and a call nested on a thread
    that is already deep takes no lock.  The collector is re-enabled
    only if it was enabled when the first of those callers entered, so
    a caller's own ``gc.disable()`` is kept; cyclic garbage made on any
    thread meanwhile is collected only after the last caller leaves.
    If at that point the young generation holds more objects than the
    collector's thresholds let the young generations hold, every tracked
    object on any thread is first moved to the oldest generation
    without a scan, unless the caller has frozen objects (see the
    module docstring): the young collection that would follow frees
    nothing from a memo matrix.  Cyclic garbage among the moved objects
    is freed only by an explicit ``gc.collect()``.
    ``fn`` should make little cyclic garbage: a parse makes none.
    Exceptions propagate to the caller.
    """
    entered = _enter_deep()
    try:
        return fn(*args, **kwargs)
    finally:
        if entered:
            _leave_deep()


def _prepare(grammar: Grammar) -> PreparedGrammar:
    """The grammar's handle, validated and with the engine's fields set:
    ``code`` holds the generated function of each rule (see
    :func:`_generate`).

    Validation and code generation run once per grammar object.  An
    invalid grammar raises :class:`InvalidGrammarError` on every call.
    """
    prep = prepared(grammar)
    if prep.errors is None:
        prep.errors = validation_errors(grammar)
    if prep.errors:
        raise InvalidGrammarError(prep.errors)
    if prep.code is None:
        prep.expr_code = {}
        bodies = [r.body for r in grammar.rules]
        prep.code = _generate(bodies, grammar.names, rules=True)
    return prep


#: Indentation level past which :meth:`_Function.expr` outlines a node
#: with children, other than a ``Seq`` or a choice of single characters,
#: into a generated function of its own (a chunk).  A node inlined at
#: level 12 or less writes its children at 14 or less, where a
#: terminal's character cell and failure record, flat by design, and a
#: choice of single characters reach 16 and a chunk call 15, so no line
#: is deeper than 16: within Python's 100 indentation levels and, since
#: every generated loop opens one, its 20 nested loops.
_OUTLINE_PAST = 12


def _generate(bodies, names: tuple[str, ...], rules: bool = False) -> tuple:
    """One generated function per expression.

    With ``rules``, function ``i`` is rule ``i``'s application
    ``run(s, pos, d)``: inside ``d`` active rule applications it forces
    the rule's memo cell at ``pos`` in session ``s`` (see
    :meth:`_Function.prologue`) and returns ``FAIL`` or the node of the
    match, labelled ``i``, whose bytes it adds to ``s._memo_bytes``.
    Otherwise ``run(s, pos, d, c)`` appends the children of the match to
    the list ``c`` and returns ``FAIL`` or the end of the match; after a
    failure ``c`` may hold nodes past its length before the call.  A
    ``Ref`` calls its rule's function ``s._code[i]`` directly, not
    through ``s.apply``, and passes ``d`` on; a terminal reads the
    character row through a local and makes an Unevaluated cell in
    place, as :func:`_char` would.  ``run`` adds to ``s._expr_steps``
    one step per expression node visited, as an interpreter of the tree
    would, and flushes them before each call that can raise.  Terminals
    and ``Not`` record their failure label for diagnostics, updating
    ``s._fail_pos`` and ``s._fail_labels`` in place as
    :meth:`ParseSession.record_failure` would: "any character" for
    ``AnyChar``, otherwise a :class:`_Label` of the node, rendered with
    the grammar's rule ``names`` when it is first read.  A choice whose
    every alternative is a ``Char`` or a ``Class`` tests the character
    once: a dict maps it to the first alternative that takes it, and
    the steps and labels of the alternatives tried before are counted
    and recorded at once (see :meth:`_Function.dispatch`).  No terminal
    calls a helper.

    Each node that :meth:`_Function.expr` outlines becomes a chunk: a
    function ``run(s, pos, d, c)`` in a namespace of its own, bound to a
    constant of its caller's.  The chunks are written from a worklist
    once their callers are built, and no part of the writer recurses
    once per nesting level of a rule body, so code generation runs at
    the caller's recursion limit, outside the deep section.
    """
    src = _Source(names)
    for i, e in enumerate(bodies):
        _Function(src, f"_f{i}", e, i if rules else None)
    code = src.build(len(bodies))
    queue = src.chunks
    while queue:
        ns, name, e = queue.pop()
        chunk = _Source(names)
        _Function(chunk, "_f0", e, None)
        ns[name], = chunk.build(1)
        queue += chunk.chunks
    return code


class _Source:
    """Source text of generated functions that share one namespace.

    The source holds only template text, identifiers made here and
    integers; every value taken from the grammar (character sets,
    literal text, failure labels, messages) is a global constant of the
    namespace.  Each function is compiled on its own, which keeps the
    compiler's peak memory to that of one function.  The functions are
    taken out of the namespace after ``exec``, so no function and its
    globals form a reference cycle.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.functions: list[str] = []
        self.ns: dict = {
            "FAIL": FAIL,
            "UNEVALUATED": UNEVALUATED,
            "INPROGRESS": INPROGRESS,
            "ParseTreeNode": ParseTreeNode,
            "_Unfrozen": _Unfrozen,
        }
        self._consts: dict = {}
        # (namespace, constant name, node) of each chunk outlined here
        self.chunks: list[tuple[dict, str, PegExpr]] = []

    def const(self, value, key=None) -> str:
        """The name of a constant equal to ``value``; ``key``, when
        given, stands for an unhashable ``value`` in that comparison."""
        key = (type(value), value if key is None else key)
        name = self._consts.get(key)
        if name is None:
            name = self._consts[key] = f"K{len(self._consts)}"
            self.ns[name] = value
        return name

    def chunk(self, e: PegExpr) -> str:
        """The name of a new constant, bound to the chunk of ``e`` once
        :func:`_generate` has written it."""
        name = self._consts[object()] = f"K{len(self._consts)}"
        self.chunks.append((self.ns, name, e))
        return name

    def label(self, e: PegExpr) -> str:
        return self.const(_Label(e, self.names))

    def build(self, count: int) -> tuple:
        ns = self.ns
        for source in self.functions:
            exec(compile(source, "<pegkit generated>", "exec"), ns)
        return tuple(ns.pop(f"_f{i}") for i in range(count))


class _Label:
    """The failure label of expression node ``expr``: its notation, with
    the rule ``names``, rendered when the label is first read as a string
    and kept.  Rendering every label while generating code would write
    Θ(k²) characters for a k-level predicate chain."""

    __slots__ = ("expr", "names", "text")

    def __init__(self, expr: PegExpr, names: tuple[str, ...]):
        self.expr = expr
        self.names = names
        self.text: str | None = None

    def __str__(self) -> str:
        if self.text is None:
            self.text = render_expr(self.expr, self.names)
        return self.text


def _char(s, pos: int) -> Outcome:
    """Make the character-row cell at ``pos``, which must be Unevaluated
    and within ``0..len(s.text)``: a leaf for an input character, ``FAIL``
    at the end of the input.  It serves :meth:`ParseSession.char_outcome`;
    generated code writes the same steps out in place (see
    :meth:`_Function.cell`)."""
    if pos < len(s.text):
        cell = _Unfrozen()
        cell.rule = None
        cell.start = pos
        cell.end = pos + 1
        cell.children = ()
        cell.__class__ = ParseTreeNode
        s._memo_bytes += _CHAR_CELL_BYTES
    else:
        cell = FAIL
    s.char_row[pos] = cell
    s._char_cells += 1
    return cell


def _of_characters(e: Choice) -> bool:
    """Is every alternative of ``e`` a ``Char`` or a ``Class``?"""
    return all(type(alt) is Char or type(alt) is Class for alt in e.alts)


def _outlined(e: PegExpr, ind: int) -> bool:
    """Does :meth:`_Function.expr` write ``e`` at indentation level
    ``ind`` as a chunk call?"""
    t = type(e)
    return (ind > _OUTLINE_PAST and t is not Seq and bool(_children(e))
            and not (t is Choice and _of_characters(e)))


def _needs_list(e: PegExpr, ind: int) -> bool:
    """Would writing rule body ``e`` at level ``ind`` meet an option, a
    repetition, a choice that does not end it or a node to outline?  The
    scan follows :meth:`_Function.tail` and :meth:`_Function.expr` on
    an explicit stack of (node, level, whether it ends the body)."""
    stack = [(e, ind, True)]
    while stack:
        e, ind, ends = stack.pop()
        t = type(e)
        if ends and t is Seq:
            stack += [(part, ind, False) for part in e.parts[:-1]]
            stack.append((e.parts[-1], ind, True))
        elif ends and t is Choice and ind <= _OUTLINE_PAST and not _of_characters(e):
            stack += [(alt, ind + 1, True) for alt in e.alts[:-1]]
            stack.append((e.alts[-1], ind, True))
        elif t is Seq:
            stack += [(part, ind, False) for part in e.parts]
        elif _outlined(e, ind) or t is Opt or t is Star or t is Plus or (
                t is Choice and not _of_characters(e)):
            return True
        elif t is And or t is Not:
            stack.append((e.body, ind + 1, False))
    return False


class _Function:
    """Writes one generated function into a :class:`_Source`.

    Code is written in failure-continuation style: the code of a
    subexpression falls through on success and runs its ``fail``
    statement, which leaves for the failure target, otherwise.  A
    subexpression written by :meth:`expr` leaves the expression of its
    end position and its children; one written by :meth:`tail` ends the
    function instead: every path on which it matches returns.
    Expression steps are counted at generation time in ``pending`` and
    written to the session before every rule application or chunk call,
    at every exit and wherever control flow merges.  The code relies on
    validation: node types are exact, every ``Ref`` names a rule, and no
    repetition's body can match empty.

    A rule body of sequences, terminals, choices of single characters,
    ``Ref``s, predicates and a choice that ends it keeps each child in a
    local.  Any other body, as :func:`_needs_list` finds before it is
    written, has one list ``c``: each terminal and ``Ref`` node is
    appended as it is made, and an alternative, an option, an
    iteration or a predicate's body notes ``len(c)`` before it runs and
    cuts ``c`` back to it when it fails (a predicate's, when it ends).
    A rule owns its list; a chunk or an expression's function appends to
    its caller's and returns its end or ``FAIL``.

    A rule's function opens with its :meth:`prologue` and runs its body
    in a ``while True`` loop whose ``break`` is the body's failure: the
    one failing exit follows the loop.  Each exit stores the cell
    (:meth:`store`).  Every function takes ``d``, the number of active
    rule applications it runs in; a rule's prologue adds its own, and
    every ``Ref`` and chunk call passes ``d`` on.
    """

    def __init__(self, src: _Source, name: str, e: PegExpr, rule: int | None):
        self.src = src
        self.rule = rule
        ind = 1 if rule is None else 2
        self.listed = rule is None or _needs_list(e, ind)
        self.body: list[str] = []
        self.pending = self.nvars = 0
        self.uses_chars = False
        self.tail(e, "pos", "return FAIL" if rule is None else "break", ind, [])
        if self.uses_chars:
            self.body[:0] = ["    " * ind + "text = s.text",
                             "    " * ind + "chars = s.char_row"]
        lines = [f"def {name}(s, pos, d{', c' if rule is None else ''}):"]
        if rule is not None:
            if self.listed:
                self.body.insert(0, "    " * ind + "c = []")
            self.store(1, "FAIL")
            lines += self.prologue()
        src.functions.append("\n".join(lines + self.body) + "\n")

    def prologue(self) -> list[str]:
        """Force the memo cell: a Done cell is returned; an InProgress
        one is a re-entry, reported by the session; an Unevaluated one
        is marked InProgress after the depth check, and the application
        counts itself in ``d``.  The depth limit is at least
        ``_max_active_depth``, so a depth below that needs neither the
        check nor the update."""
        rule = self.rule
        return [
            f"    row = s.matrix[{rule}]",
            "    n = row[pos]",
            "    if n is not UNEVALUATED:",
            "        if n is INPROGRESS:",
            f"            s._reentered({rule}, pos)",
            "        return n",
            "    if d >= s._max_active_depth:",
            f"        s._deeper({rule}, pos, d)",
            "    row[pos] = INPROGRESS",
            "    d += 1",
            "    while True:",
        ]

    def store(self, ind: int, cell: str) -> None:
        """Fill the rule's memo cell with ``cell``, count it and return
        the cell."""
        self.line(ind, "if row[pos] is not INPROGRESS:")
        self.line(ind + 1, f"s._evaluated_twice({self.rule}, pos)")
        self.line(ind, f"row[pos] = {cell}")
        self.line(ind, "s._cells_evaluated += 1")
        self.line(ind, f"return {cell}")

    def line(self, ind: int, text: str) -> None:
        self.body.append("    " * ind + text)

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

    def kid(self, ind: int, node: str) -> list[str]:
        """``node``'s local as a child: itself, or appended to ``c``."""
        if self.listed:
            self.line(ind, f"c.append({node})")
        return [] if self.listed else [node]

    def mark(self, ind: int) -> str | None:
        """With ``c``, a new local that holds its length."""
        if self.listed:
            mark = self.var()
            self.line(ind, f"{mark} = len(c)")
            return mark

    def exit(self, ind: int, end: str, kids: list[str]) -> None:
        """Return ``end``, or a rule's node from ``pos`` to ``end`` with
        ``kids`` or the children in ``c``.

        The node is built as :class:`_Unfrozen` and becomes a
        :class:`ParseTreeNode` by ``__class__`` assignment.  It is the
        rule's memo cell, so its bytes are charged here, by the model of
        :class:`Stats`: a constant when the children are locals.
        """
        self.flush(ind)
        if self.rule is None:
            self.line(ind, f"return {end}")
            return
        self.line(ind, "n = _Unfrozen()")
        self.line(ind, f"n.rule = {self.rule}")
        self.line(ind, "n.start = pos")
        self.line(ind, f"n.end = {end}")
        if self.listed:
            self.line(ind, "n.children = c = tuple(c)")
            self.line(ind, f"s._memo_bytes += {_NODE_BYTES + _TUPLE_BYTES} + "
                           f"{_PTR_BYTES} * len(c) if c else {_NODE_BYTES}")
        else:
            self.line(ind, f"n.children = ({', '.join(kids)}{',' * (len(kids) == 1)})")
            size = _NODE_BYTES + (_TUPLE_BYTES + _PTR_BYTES * len(kids) if kids else 0)
            self.line(ind, f"s._memo_bytes += {size}")
        self.line(ind, "n.__class__ = ParseTreeNode")
        self.store(ind, "n")

    def tail(self, e: PegExpr, pos: str, fail: str, ind: int, kids: list[str]) -> None:
        """Write ``e`` at ``pos`` to end the function, after ``kids``.  The
        last part of a ``Seq`` and the last alternative of a choice end
        it too, and are written in the same loop."""
        while True:
            t = type(e)
            if t is Seq:
                self.pending += 1
                pos, more = self.seq(e.parts[:-1], pos, fail, ind)
                e, kids = e.parts[-1], kids + more
            elif t is Choice and ind <= _OUTLINE_PAST and not _of_characters(e):
                # each alternative but the last fails by leaving its loop
                self.pending += 1
                mark = self.mark(ind)
                for alt in e.alts[:-1]:
                    self.line(ind, "while True:")
                    self.tail(alt, pos, "break", ind + 1, kids)
                    if mark:
                        self.line(ind, f"del c[{mark}:]")
                e = e.alts[-1]
            else:
                end, more = self.expr(e, pos, fail, ind)
                self.exit(ind, end, kids + more)
                return

    def expr(self, e: PegExpr, pos: str, fail: str, ind: int):
        """Write ``e`` at ``pos``; return its end and its children."""
        src = self.src
        t = type(e)
        if _outlined(e, ind):
            chunk = src.chunk(e)
            self.flush(ind)
            end = self.var()
            self.line(ind, f"{end} = {chunk}(s, {pos}, d, c)")
            self.line(ind, f"if {end} is FAIL:")
            self.fail(ind + 1, fail)
            return end, []
        self.pending += 1
        if t is Choice and _of_characters(e):
            # as flat as a terminal, so never outlined
            return self.dispatch(e.alts, pos, fail, ind)
        if t is Ref:
            self.flush(ind)
            node = self.var()
            self.line(ind, f"{node} = s._code[{e.rule}](s, {pos}, d)")
            self.line(ind, f"if {node} is FAIL:")
            self.fail(ind + 1, fail)
            return f"{node}.end", self.kid(ind, node)
        if t is AnyChar:
            node = self.terminal(ind, pos, None, pos, src.const("any character"), fail)
            return f"{node}.end", self.kid(ind, node)
        if t is Char or t is Class:
            # a one-character string is "in" a Class's set and "in" itself
            accepted = e.chars if t is Class else e.char
            node = self.terminal(ind, pos, accepted, pos, src.label(e), fail)
            return f"{node}.end", self.kid(ind, node)
        if t is Literal:
            label = src.label(e) if e.text else None
            end, kids = pos, []
            for ch in e.text:
                node = self.terminal(ind, end, ch, pos, label, fail)
                end = f"{node}.end"
                kids += self.kid(ind, node)
            return end, kids
        if t is Empty:
            return pos, []
        if t is Seq:
            return self.seq(e.parts, pos, fail, ind)
        if t is Choice:
            return self.choice(e.alts, pos, fail, ind), []
        if t is Star or t is Plus or t is Opt:
            return self.repeat(e, pos, fail, ind), []
        # validation leaves only And and Not
        return self.predicate(e, pos, fail, ind), []

    def cell(self, ind: int, pos: str) -> str:
        """A new local holding the character-row cell at ``pos``, made
        here where it is Unevaluated, as :func:`_char` makes it.  Its
        node's ``end`` is the cell's own, so that nodes ending there
        share its int."""
        self.uses_chars = True
        node = self.var()
        self.line(ind, f"{node} = chars[{pos}]")
        self.line(ind, f"if {node} is UNEVALUATED:")
        self.line(ind + 1, f"if {pos} < len(text):")
        self.line(ind + 2, f"{node} = _Unfrozen()")
        self.line(ind + 2, f"{node}.rule = None")
        self.line(ind + 2, f"{node}.start = {pos}")
        self.line(ind + 2, f"{node}.end = {pos} + 1")
        self.line(ind + 2, f"{node}.children = ()")
        self.line(ind + 2, f"{node}.__class__ = ParseTreeNode")
        self.line(ind + 2, f"s._memo_bytes += {_CHAR_CELL_BYTES}")
        self.line(ind + 1, "else:")
        self.line(ind + 2, f"{node} = FAIL")
        self.line(ind + 1, f"chars[{pos}] = {node}")
        self.line(ind + 1, "s._char_cells += 1")
        return node

    def record(self, ind: int, at: str, label: str, many: bool = False) -> None:
        """:meth:`ParseSession.record_failure` of ``label`` at ``at``,
        written out flat: of each label in ``label`` if ``many``."""
        self.line(ind, f"if {at} > s._fail_pos:")
        self.line(ind + 1, f"s._fail_pos = {at}")
        self.line(ind + 1, "s._fail_labels = set()")
        self.line(ind, f"if {at} == s._fail_pos:")
        self.line(ind + 1, f"s._fail_labels.{'update' if many else 'add'}({label})")

    def terminal(self, ind, pos, accepted, at, label, fail) -> str:
        """One character-row test at ``pos``: the character must be in
        ``accepted`` (any character when it is None).  On failure,
        record ``label`` at ``at`` and leave by ``fail``.  Returns the
        local holding the character's node."""
        node = self.cell(ind, pos)
        test = f"{node} is FAIL"
        if accepted is not None:
            test += f" or text[{pos}] not in {self.src.const(accepted)}"
        self.line(ind, f"if {test}:")
        self.record(ind + 1, at, label)
        self.fail(ind + 1, fail)
        return node

    def dispatch(self, alts, pos: str, fail: str, ind: int):
        """A choice whose every alternative is a ``Char`` or a
        ``Class``, at ``pos``: the character cell is read once, and one
        lookup gives ``k``, the first alternative that takes the
        character, or ``len(alts)`` for none.  Then the steps of the
        alternatives an interpreter would try and the labels of those
        that fail are counted and recorded at once, by constants indexed
        by ``k``.  Returns the end and the child, as a terminal's."""
        src = self.src
        m = len(alts)
        table: dict[str, int] = {}
        for k, alt in enumerate(alts):
            for ch in alt.chars if type(alt) is Class else alt.char:
                table.setdefault(ch, k)
        labels = [_Label(alt, src.names) for alt in alts]
        failed = tuple(frozenset(labels[:k]) for k in range(m + 1))
        steps = tuple(self.pending + min(k + 1, m) for k in range(m + 1))
        self.pending = 0
        node = self.cell(ind, pos)
        taken = self.var()
        lookup = src.const(table, tuple(table.items()))
        self.line(ind, f"{taken} = {m} if {node} is FAIL else {lookup}.get(text[{pos}], {m})")
        self.line(ind, f"s._expr_steps += {src.const(steps)}[{taken}]")
        self.line(ind, f"if {taken}:")
        self.record(ind + 1, pos, f"{src.const(failed)}[{taken}]", many=True)
        self.line(ind + 1, f"if {taken} == {m}:")
        self.fail(ind + 2, fail)
        return f"{node}.end", self.kid(ind, node)

    def seq(self, parts, pos: str, fail: str, ind: int):
        """Write ``parts`` in turn from ``pos``; return the end and the
        children.  A part that is a ``Seq`` has its parts written in its
        place, from a stack."""
        kids: list[str] = []
        stack = list(reversed(parts))
        while stack:
            part = stack.pop()
            if type(part) is Seq:
                self.pending += 1
                stack += reversed(part.parts)
            else:
                pos, more = self.expr(part, pos, fail, ind)
                kids += more
        return pos, kids

    def choice(self, alts, pos: str, fail: str, ind: int) -> str:
        end = self.var()
        self.line(ind, f"{end} = FAIL")
        mark = self.mark(ind)
        self.line(ind, "while True:")
        for alt in alts:
            self.attempt(alt, pos, end, ind + 1)
            self.line(ind + 1, f"if {end} is not FAIL:")
            self.line(ind + 2, "break")
            self.line(ind + 1, f"del c[{mark}:]")
        self.line(ind + 1, "break")
        self.line(ind, f"if {end} is FAIL:")
        self.fail(ind + 1, fail)
        return end

    def attempt(self, e: PegExpr, pos: str, end: str, ind: int) -> None:
        """Try ``e`` at ``pos``: on success ``end`` becomes its end; on
        failure ``end`` keeps its value.  Steps are flushed either way."""
        self.line(ind, "while True:")
        alt_end, _ = self.expr(e, pos, "break", ind + 1)
        self.flush(ind + 1)
        self.line(ind + 1, f"{end} = {alt_end}")
        self.line(ind + 1, "break")

    def repeat(self, e, pos: str, fail: str, ind: int) -> str:
        """A repetition, or an option: one that stops after an iteration.
        The children of the iteration that fails are cut from ``c``."""
        t = type(e)
        if t is not Opt:
            self.flush(ind)  # once, not in every iteration
        end = self.var()
        self.line(ind, f"{end} = {pos}")
        mark = self.mark(ind)
        self.line(ind, "while True:")
        body_end, _ = self.expr(e.body, end, "break", ind + 1)
        self.flush(ind + 1)
        self.line(ind + 1, f"{end} = {body_end}")
        self.line(ind + 1, f"{mark} = len(c)")
        if t is Opt:
            self.line(ind + 1, "break")
        self.line(ind, f"del c[{mark}:]")
        if t is Plus:
            # validation refuses a body that can match empty, so every
            # iteration consumes and end == pos only after none matched
            self.line(ind, f"if {end} == {pos}:")
            self.fail(ind + 1, fail)
        return end

    def predicate(self, e, pos: str, fail: str, ind: int) -> str:
        matched = self.var()
        self.line(ind, f"{matched} = FAIL")
        mark = self.mark(ind)
        self.attempt(e.body, pos, matched, ind)
        if mark:
            self.line(ind, f"del c[{mark}:]")
        if type(e) is And:
            self.line(ind, f"if {matched} is FAIL:")
            self.fail(ind + 1, fail)
        else:
            self.line(ind, f"if {matched} is not FAIL:")
            self.record(ind + 1, pos, self.src.label(e))
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
        self.config = config or _DEFAULT_CONFIG
        n1 = len(text) + 1
        self.matrix: list[list] = [[UNEVALUATED] * n1 for _ in grammar.rules]
        self.char_row: list = [UNEVALUATED] * n1
        self._code = prep.code
        self._expr_code = prep.expr_code
        self._depth_limit = self.config.depth_limit
        self._cells_evaluated = 0
        self._char_cells = 0
        self._memo_bytes = _SLOT_BYTES * (len(grammar.rules) + 1) * n1
        self._expr_steps = 0
        self._max_active_depth = 0
        self._fail_pos = -1
        self._fail_labels: set = set()

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

        The rule's generated function does the forcing (see
        :meth:`_Function.prologue`).  ``apply`` is the entry from outside
        the generated code, which applies a rule by calling its function
        directly: an override of ``apply`` sees the requests of
        ``parse_complete``, the differential checker, the combinators
        and direct callers, not those of one rule to another.  An
        ``apply`` called from inside generated code, such as from a
        wrapper of a ``_code`` entry, starts its own count of nested
        applications for the depth limit.
        """
        if rule < 0 or pos < 0:
            raise self._bad_cell(rule, pos)
        try:
            cell = self.matrix[rule][pos]
        except IndexError:
            raise self._bad_cell(rule, pos) from None
        if cell is not UNEVALUATED and cell is not INPROGRESS:
            return cell
        return self._outermost(self._code[rule], pos)

    def _outermost(self, run, pos: int, *c):
        """``run(self, pos, 0, *c)``: generated code entered from outside,
        at depth 0, in the counted deep section (see :func:`_deep`)."""
        return _deep(self._depth_limit, "interpreter frame budget exhausted",
                     run, self, pos, 0, *c)

    def _deeper(self, rule: int, pos: int, depth: int) -> None:
        """Called by a rule's function that is about to become the
        ``depth + 1``-th nested application, at least as deep as any so
        far: raise DepthExceeded past the limit, else record the new
        maximum depth."""
        if depth >= self._depth_limit:
            raise DepthExceeded(
                self._depth_limit,
                f"while applying rule {self.grammar.rule_name(rule)!r} at {pos}",
            )
        self._max_active_depth = depth + 1

    def _reentered(self, rule: int, pos: int) -> None:
        """Called by a rule's function that finds its cell InProgress.

        The applications in progress are the interpreter frames of the
        grammar's rule functions that run in this session; chunks,
        expression code and wrappers of ``_code`` entries are passed
        over.  Walking outward from the caller's caller, the frames are
        collected until the one that applied (rule, pos) is reached:
        with the re-entry, they are the cycle.  Positions never decrease
        inward, so a frame at a position before ``pos``, or the end of
        the stack, means that no call of this session holds the cell:
        an error aborted the parse that marked it.
        """
        rules = {f.__code__: i for i, f in enumerate(prepared(self.grammar).code)}
        trail = [(rule, pos)]
        frame = sys._getframe(2)
        while frame is not None:
            r = rules.get(frame.f_code)
            if r is not None and frame.f_locals["s"] is self:
                at = frame.f_locals["pos"]
                if at < pos:
                    break
                trail.append((r, at))
                if (r, at) == (rule, pos):
                    raise LeftRecursion(tuple(reversed(trail)), self.grammar.names)
            frame = frame.f_back
        raise RuntimeError(
            f"memo cell ({rule}, {pos}) is InProgress with no active "
            "call: an earlier parse in this session was aborted by an "
            "error and left it InProgress; discard the session"
        )

    def _evaluated_twice(self, rule: int, pos: int) -> None:
        raise RuntimeError(f"memo cell ({rule}, {pos}) evaluated twice")

    def eval_expr(self, e: PegExpr, pos: int) -> Outcome:
        """Evaluate one expression structurally at ``pos``.

        A match that contributes exactly one node returns that node;
        any other match is wrapped here in an anonymous node spanning it,
        so a success is always a single tree.  The expression's code is
        generated on its first evaluation and kept on the grammar; it
        appends the children to a list, applies rules as rule code does,
        not through :meth:`apply`, and has the outermost handling of
        depth and errors that :meth:`apply` has.  An
        expression that cannot be hashed, such as a ``Seq`` whose parts
        are a list, is evaluated the same way but generated anew on each
        call.  An expression that fails validation's structural checks
        raises :class:`InvalidGrammarError`, whose message names it, and
        is not kept; its issues carry ``rule=None``.  A position outside
        ``0..len(text)`` raises ValueError.
        """
        if not 0 <= pos <= len(self.text):
            raise self._bad_position(pos)
        try:
            run = self._expr_code.get(e)
            hashable = True
        except TypeError:
            run, hashable = None, False
        if run is None:
            names = self.grammar.names
            errors = _structural_errors(self.grammar, [(None, e)])
            if errors:
                try:
                    text = render_expr(e, names)
                except TypeError:  # it holds an object that is no expression node
                    text = repr(e)
                raise InvalidGrammarError(tuple(errors), text)
            run = _generate((e,), names)[0]
            if hashable:
                self._expr_code[e] = run
        c: list = []
        end = self._outermost(run, pos, c)
        if end is FAIL:
            return FAIL
        return c[0] if len(c) == 1 else ParseTreeNode(None, pos, end, tuple(c))

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
            return _char(self, pos)
        return cell

    def record_failure(self, pos: int, label) -> None:
        """Note a match failure for rightmost-failure diagnostics.
        ``label`` is the text that :func:`furthest_failure` reports, or
        an object whose ``str`` it is.  The combinators call it;
        generated code makes the same update in place (see
        :meth:`_Function.record`)."""
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
    the set of labels attempted there.  (-1, empty) if nothing failed.
    A label of generated code is rendered when it is first read here."""
    return s._fail_pos, frozenset(map(str, s._fail_labels))


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


# CPython refuses int/str conversions past sys.get_int_max_str_digits()
# digits, a limit that may be set as low as 640; chunks of 640 digits
# pass under any setting, and the process-wide limit is left alone.
_CHUNK_DIGITS = 640
_CHUNK = 10**_CHUNK_DIGITS


def span_int(text: str, start: int, end: int) -> int:
    """``int(text[start:end])`` for a run of decimal digits of any length."""
    if end - start <= _CHUNK_DIGITS:
        return int(text[start:end])
    value = 0
    for i in range(start, end, _CHUNK_DIGITS):
        j = min(i + _CHUNK_DIGITS, end)
        value = value * 10 ** (j - i) + int(text[i:j])
    return value


def value_text(value, show=str) -> str:
    """``show(value)`` for an evaluator's value (``repr`` inside tuples),
    with an integer of any length written out in decimal."""
    if type(value) is tuple:
        inner = ", ".join([value_text(v, repr) for v in value])
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if type(value) is not int or -_CHUNK < value < _CHUNK:
        return show(value)
    digits = []
    rest = abs(value)
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        digits.append(f"{low:0{_CHUNK_DIGITS}d}")
    digits.append(str(rest))
    return "-" * (value < 0) + "".join(reversed(digits))


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
    return f"({value_text(value)},C{cell.end + 1})"


def _grid(s: ParseSession) -> list[list[str]]:
    grid = [
        [_cell_text(s, cell, False) for cell in row] for row in s.matrix
    ]
    grid.append([_cell_text(s, cell, True) for cell in s.char_row])
    return grid


def dump_matrix(s: ParseSession) -> str:
    """Render the memo matrix without forcing any evaluation.

    One row per rule plus a CHAR row; columns C1..C(n+1).  Cells show
    ``·`` (Unevaluated), ``?`` (InProgress), ``X`` (Done Fail), or
    ``(v,Ck)`` for Done Success where v is the evaluator's value when
    one is registered (the span length otherwise; the character itself
    on the CHAR row) and Ck is the 1-indexed remainder column.  The
    evaluator runs in the counted deep section, as deep as the parse.
    """
    labels = list(s.grammar.names) + ["CHAR"]
    grid = _deep(None, "matrix rendering: interpreter frame budget exhausted",
                 _grid, s)
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
