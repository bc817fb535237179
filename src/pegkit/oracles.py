"""Reference interpreters used to cross-check the packrat engine.

Three independent evaluation strategies, deliberately kept separate
from the engine and from each other:

* :func:`naive_parse` - direct recursive descent with no memoization.
  Same ordered-choice semantics as the engine, but it re-evaluates
  rules freely, so its call count exposes the redundancy that
  memoization removes (exponential on crafted grammars).  Its report
  lists the verdict of every call it completed.
* :func:`tabular_parse` - fills the whole rule-by-position matrix from
  the rightmost column leftwards, callees before callers inside each
  column.  This only works when no rule can invoke another at the same
  position cyclically, and it has no way to schedule unbounded
  repetition, so Star/Plus are rejected outright.
* :func:`cfg_all_ends` - reads the grammar as a context-free grammar
  (unordered choice) and computes, per rule and start position, the set
  of all reachable end positions by Kleene iteration, column by column
  from the right, rules callee-first as the tabular filler takes them.
  Only Seq/Choice/Char/Literal/Ref/Empty are meaningful under CFG
  reading; everything else is rejected.

The naive oracle writes each rule body once per grammar as the source
of one Python function, straight-line code on locals, and compiles it
(see :func:`_naive_code`), so a run picks no case by node type.  The
function also does the call's bookkeeping (the call budget, the cell's
record, the cycle guard and the depth limit) on a :class:`NaiveRun`,
the explicit state of a run over one text, so a rule call is one
interpreter frame.  :func:`naive_parse` makes a run for one call; the
differential judge keeps one run per input and calls it for many
cells.  The other two are plain interpreters that pick a case by the
node's exact type, most frequent first.  Either way only the node
classes themselves are understood: validation refuses any other type,
a subclass of a node class included.  Verdicts are end positions (int) or None for failure;
oracle results carry no parse trees.  Each oracle refuses a cell outside
the matrix with the engine's ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter

from .engine import DEFAULT_DEPTH_LIMIT, DepthExceeded, LeftRecursion
from .engine import _deep  # the counted deep section
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
    _expr_nullable,
    postorder,
    preorder,
    prepared,
    validation_errors,
)

DEFAULT_CALL_BUDGET = 10**8


class CallBudgetExceeded(Exception):
    def __init__(self, budget: int):
        super().__init__(f"naive interpreter exceeded its call budget of {budget}")
        self.budget = budget


class SamePositionCycle(Exception):
    """Rules that can call each other without consuming input cannot be
    ordered callee-first within a column."""

    def __init__(self, cycle: tuple[int, ...], names: tuple[str, ...]):
        trail = " -> ".join(names[r] for r in cycle)
        super().__init__(f"same-position call cycle: {trail}")
        self.cycle = cycle


class UnsupportedConstruct(Exception):
    def __init__(self, what: str, rule: str, oracle: str):
        super().__init__(f"{oracle} cannot interpret {what} (in rule {rule!r})")
        self.what = what
        self.rule = rule


def _require_valid(g: Grammar) -> PreparedGrammar:
    # validation runs once per grammar object; the refusal repeats
    prep = prepared(g)
    if prep.errors is None:
        prep.errors = validation_errors(g)
    if prep.errors:
        raise InvalidGrammarError(prep.errors)
    return prep


def _require_cell(rule: int, pos: int, rules: int, n: int) -> None:
    # the engine's refusal of a cell outside the matrix (ParseSession.apply)
    if not 0 <= rule < rules:
        raise ValueError(f"rule {rule} is outside the grammar (0..{rules - 1})")
    if not 0 <= pos <= n:
        raise ValueError(f"position {pos} is outside the input (0..{n})")


@dataclass(frozen=True, slots=True)
class NaiveReport:
    """Outcome plus the work profile of a naive run.

    ``outcome`` is the end position or None.  ``calls`` counts every
    rule invocation, including redundant re-evaluations; the per-cell
    breakdown lives in ``calls_by_cell`` keyed by (rule, position).
    ``ends_by_cell`` holds, under the same keys, the end position or
    None of every call that completed.  Such a call met no active cell
    and stayed within the run's limits, and it reads only the input from
    its position on, so its verdict is that of a run started at its cell.
    Both dicts list the cells in the order of their first calls, the
    run's own cell first; a report is returned only when every call
    completed, so they have the same keys.
    """

    outcome: int | None
    calls: int
    max_depth: int
    calls_by_cell: dict[tuple[int, int], int] = field(default_factory=dict)
    ends_by_cell: dict[tuple[int, int], int | None] = field(default_factory=dict)


class _UnfrozenReport:
    """:class:`NaiveReport`'s slots without the frozen dataclass's
    ``__setattr__``: :func:`naive_parse` sets each field by a plain
    attribute store and then turns the object into a ``NaiveReport`` by
    assigning ``__class__``, which CPython allows only between classes
    of identical layout.  That skips the five ``object.__setattr__``
    calls of the frozen ``__init__``; the result is an ordinary, equal,
    immutable ``NaiveReport``."""

    __slots__ = ("outcome", "calls", "max_depth", "calls_by_cell", "ends_by_cell")


#: Most levels of indentation, and most nodes along any path, that the
#: code of one inlined subtree may take below its first line.  A
#: function body starts at level 1, so no generated line is deeper than
#: 16: within Python's 100 indentation levels and, since every generated
#: loop opens a level, its 20 statically nested blocks.  A subtree past
#: this height is outlined into a function of its own (a chunk).
_TALLEST = 15

#: the node types whose code is one test (see _Writer.test)
_TESTS = (Ref, Char, Class, AnyChar, Literal)


class _Piece:
    """The naive oracle's code of one expression node, not yet written:
    the node, its children's pieces, and ``height``, which bounds both
    the levels of indentation and the nodes along any path of the code.
    A piece with no node calls ``chunk``, the function of an outlined
    subtree."""

    __slots__ = ("node", "kids", "height", "chunk")

    def __init__(self, node, kids: tuple, height: int, chunk=None):
        self.node = node
        self.kids = kids
        self.height = height
        self.chunk = chunk


def _is_test(piece: _Piece) -> bool:
    return piece.node is None or type(piece.node) in _TESTS


def _at(pos: tuple[str, int]) -> str:
    name, off = pos
    return f"{name} + {off}" if off else name


class _Writer:
    """The source of one generated function, ``run(s, p, d)``, and the
    namespace it is compiled in: ``s`` is the :class:`NaiveRun`, ``p``
    the position and ``d`` the number of rule calls active, the
    function's own call included.

    The source holds only template text, names made here and integers;
    every value taken from the grammar (a character, a character set,
    literal text) and every chunk called is a constant of the namespace,
    ``K0``, ``K1``, ...  A position is a pair (variable, offset), written
    ``v3 + 2``, so a run of terminals adds to the offset and stores
    nothing.  The function of a rule (``rule`` not None) begins with the
    call's bookkeeping (:data:`_ENTRY`) and leaves its cell's record
    inactive at every return; a chunk does neither."""

    def __init__(self, rule: int | None):
        self.rule = rule
        self.lines: list[str] = []
        self.ns: dict = {}
        self.count = 0
        self.reads: set[str] = set()  # the run's fields that the code reads
        # the statements that return a failure
        self.give_up = "return None" if rule is None else "rec[2] = -1\nreturn None"

    def const(self, value) -> str:
        name = f"K{len(self.ns)}"
        self.ns[name] = value
        return name

    def var(self) -> str:
        self.count += 1
        return f"v{self.count}"

    def line(self, ind: int, text: str) -> None:
        self.lines += ["    " * ind + t for t in text.split("\n")]

    def ret(self, ind: int, value: str) -> None:
        # return value, the end of the match; a rule stores it in its record
        if self.rule is None:
            self.line(ind, f"return {value}")
        else:
            self.line(ind, f"rec[1] = e = {value}\nrec[2] = -1\nreturn e")

    def callee(self, piece: _Piece, x: str) -> str:
        # the call that runs a rule or a chunk at x
        if piece.node is None:
            return f"{self.const(piece.chunk)}(s, {x}, d)"
        self.reads.add("code")
        return f"code[{piece.node.rule}](s, {x}, d + 1)"

    def test(self, piece: _Piece, pos) -> tuple[str, str, tuple[str, int]]:
        """A piece that :func:`_is_test` accepts, at ``pos``: the
        condition that it fails, the condition that it matches, and the
        end of the match, read after either condition is evaluated."""
        e, x = piece.node, _at(pos)
        name, off = pos
        t = type(e)
        if e is None or t is Ref:
            v = self.var()
            run = self.callee(piece, x)
            return f"({v} := {run}) is None", f"({v} := {run}) is not None", (v, 0)
        if t is Literal:
            self.reads.add("text")
            k = self.const(e.text)
            return (f"not text.startswith({k}, {x})", f"text.startswith({k}, {x})",
                    (name, off + len(e.text)))
        self.reads.add("n")
        if t is AnyChar:
            return f"{x} >= n", f"{x} < n", (name, off + 1)
        self.reads.add("text")
        if t is Char:
            k = self.const(e.char)
            return f"{x} >= n or text[{x}] != {k}", f"{x} < n and text[{x}] == {k}", (name, off + 1)
        k = self.const(e.chars)
        return f"{x} >= n or text[{x}] not in {k}", f"{x} < n and text[{x}] in {k}", (name, off + 1)
    def emit(self, piece: _Piece, ind: int, pos, fail: str) -> tuple[str, int]:
        """Write ``piece`` at ``pos``, from indentation level ``ind``: the
        code runs the statement ``fail`` when the node fails and falls
        through when it matches.  Returns the end of the match."""
        if _is_test(piece):
            failed, _, end = self.test(piece, pos)
            self.line(ind, f"if {failed}:")
            self.line(ind + 1, fail)
            return end
        e, kids = piece.node, piece.kids
        t = type(e)
        if t is Seq:
            for kid in kids:
                pos = self.emit(kid, ind, pos, fail)
            return pos
        if t is Empty:
            return pos
        if t is And:
            self.emit(kids[0], ind, pos, fail)
            return pos
        if t is Not:
            if _is_test(kids[0]):
                self.line(ind, f"if {self.test(kids[0], pos)[1]}:")
            else:
                # the loop ends without a break only when the body matched
                self.line(ind, "for _ in (0,):")
                mark = len(self.lines)
                self.emit(kids[0], ind + 1, pos, "break")
                if len(self.lines) == mark:  # a body that always matches, as ()
                    self.line(ind + 1, "pass")
                self.line(ind, "else:")
            self.line(ind + 1, fail)
            return pos
        q = self.var()
        if t is Choice:
            # q takes the end of the first alternative that matches.  A
            # break leaves the outer loop once one matched, so its else
            # runs only when none did; the inner loop of an alternative
            # ends without a break only when the alternative matched
            self.line(ind, "for _ in (0,):")
            for alt in kids:
                self.line(ind + 1, "for _ in (0,):")
                end = self.emit(alt, ind + 2, pos, "break")
                self.line(ind + 2, f"{q} = {_at(end)}")
                self.line(ind + 1, "else:")
                self.line(ind + 2, "break")
            self.line(ind, "else:")
            self.line(ind + 1, fail)
        elif t is Opt:
            self.line(ind, f"{q} = {_at(pos)}")
            self.line(ind, "while True:")
            end = self.emit(kids[0], ind + 1, pos, "break")
            self.line(ind + 1, f"{q} = {_at(end)}")
            self.line(ind + 1, "break")
        elif t is Star or t is Plus:
            self.line(ind, f"{q} = {_at(pos)}")
            self.line(ind, "while True:")
            end = self.emit(kids[0], ind + 1, (q, 0), "break")
            self.line(ind + 1, f"{q} = {_at(end)}")
            if t is Plus:
                # every iteration consumes, so q is the start only when none matched
                self.line(ind, f"if {q} == {_at(pos)}:")
                self.line(ind + 1, fail)
        else:
            raise TypeError(f"not a PegExpr: {e!r}")
        return (q, 0)

    def tail(self, piece: _Piece, ind: int, pos, fail: str) -> None:
        """Write ``piece`` at ``pos`` as the rest of the function: the code
        returns the end when the node matches and runs ``fail`` when it
        fails."""
        t, kids = type(piece.node), piece.kids
        if t is Seq:
            for kid in kids[:-1]:
                pos = self.emit(kid, ind, pos, fail)
            self.tail(kids[-1], ind, pos, fail)
        elif t is Choice:
            for alt in kids[:-1]:
                if _is_test(alt):
                    _, matched, end = self.test(alt, pos)
                    self.line(ind, f"if {matched}:")
                    self.ret(ind + 1, _at(end))
                else:
                    self.line(ind, "while True:")
                    self.tail(alt, ind + 1, pos, "break")
            self.tail(kids[-1], ind, pos, fail)
        elif fail == self.give_up and (piece.node is None or t is Ref):
            self.ret(ind, self.callee(piece, _at(pos)))
        else:
            end = self.emit(piece, ind, pos, fail)
            self.ret(ind, _at(end))


#: The bookkeeping that a rule's function does before its body, for
#: rule ``{r}``: the call budget, the cell's record (a first call makes
#: it), the active-cell cycle guard and the depth limit.
_ENTRY = """\
s.left = left = s.left - 1
if left < 0:
    raise s.over_budget()
row = s.rows[{r}]
rec = row.get(p)
if rec is None:
    row[p] = rec = [1, None, d, {r}, p]
    s.made.append(rec)
elif rec[2] < 0:
    rec[0] += 1
    rec[2] = d
else:
    raise s.cycle(rec)
if d > s.deepest:
    if d > s.depth_limit:
        raise s.too_deep({r}, p)
    s.deepest = d"""

#: what the code reads from the run, by the name it reads it into
_READS = {"text": "text = s.text", "n": "n = s.n", "code": "code = s.code"}


def _function(piece: _Piece, rule: int | None = None) -> Callable:
    # the compiled function of one rule body (``rule``) or chunk, in a
    # namespace of its own that it is taken out of, so no function is
    # reachable from its own globals and each is freed by reference counting
    w = _Writer(rule)
    w.tail(piece, 0, ("p", 0), w.give_up)
    head = [] if rule is None else _ENTRY.format(r=rule).split("\n")
    head += [read for name, read in _READS.items() if name in w.reads]
    source = "\n".join(["def run(s, p, d):"] + ["    " + t for t in head + w.lines])
    ns = w.ns
    exec(compile(source + "\n", "<pegkit naive>", "exec"), ns)
    return ns.pop("run")


def _naive_code(g: Grammar) -> tuple[Callable, ...]:
    """Each rule body of ``g`` as one generated function, ``run(s, p,
    d)``: the end of the body's match at ``p`` in ``s.text``, or None,
    for the :class:`NaiveRun` ``s``, with ``d`` rule calls active.  It
    applies a rule ``r`` as ``s.code[r](s, q, d + 1)``, so a rule call
    is one interpreter frame.

    Every ``Seq``, ``Choice``, repetition, predicate and terminal is
    straight-line code on locals, in failure-continuation style (see
    :meth:`_Writer.emit`).  The pieces are made children first by
    :func:`~pegkit.grammar.postorder`, so nothing recurses once per
    nesting level: a child whose code would take its parent past
    ``_TALLEST`` is compiled at once as a chunk, ``run(s, p, d)`` too,
    and called.  The functions hold no state of a run and refer to no
    rule's code, so threads may share them."""
    outlined: dict[int, _Piece] = {}  # by id: the memo keeps the pieces

    def visit(e: PegExpr, kids: list[_Piece]) -> _Piece:
        weight = 2 if type(e) is Choice else 1
        for i, kid in enumerate(kids):
            if kid.height + weight > _TALLEST:
                call = outlined.get(id(kid))
                if call is None:
                    call = outlined[id(kid)] = _Piece(None, (), 1, _function(kid))
                kids[i] = call
        return _Piece(e, tuple(kids), weight + max([k.height for k in kids], default=0))

    memo: dict = {}  # by id: g keeps the nodes alive
    return tuple([_function(postorder(rule.body, visit, memo), r)
                  for r, rule in enumerate(g.rules)])


class NaiveRun:
    """The state of naive calls over one text, which the generated rule
    functions keep themselves.

    ``run(rule, pos)`` applies ``rule`` at ``pos`` with a fresh call
    budget and returns the end position or None.  A run may be called
    any number of times, and its records outlive the calls.  ``made``
    holds one record per called cell, in the order of first calls:
    ``[calls, end, depth, rule, pos]``.  ``calls`` counts the cell's
    calls and ``end`` is the end of its last completed call.  ``depth``
    is the number of calls active, this one included, while the cell is
    active, and -1 otherwise.  ``rows[r]`` maps each position of rule
    ``r`` to its record, so a call finds its record with no tuple key.
    ``left`` is what the current call has left of its budget, and
    ``deepest`` the most calls active at once so far.

    A call that raises leaves every record inactive.  The records keep
    the ends of the inner calls that completed.  Each of those calls met
    no active cell, stayed within the run's limits and read only the
    input from its position on, so its end is that of a call made at
    its cell alone.
    """

    __slots__ = ("text", "n", "code", "names", "budget", "depth_limit",
                 "left", "deepest", "rows", "made")

    def __init__(
        self,
        g: Grammar,
        text: str,
        *,
        call_budget: int = DEFAULT_CALL_BUDGET,
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
    ):
        if call_budget < 1:
            raise ValueError(f"call_budget must be at least 1, got {call_budget}")
        if depth_limit < 1:
            raise ValueError(f"depth_limit must be at least 1, got {depth_limit}")
        prep = _require_valid(g)
        code = prep.naive_code
        if code is None:
            code = prep.naive_code = _naive_code(g)
        self.text = text
        self.n = len(text)
        self.code = code
        self.names = g.names
        self.budget = self.left = call_budget
        self.depth_limit = depth_limit
        self.deepest = 0
        self.rows: list[dict[int, list]] = [{} for _ in code]
        self.made: list[list] = []

    def __call__(self, rule: int, pos: int) -> int | None:
        _require_cell(rule, pos, len(self.code), self.n)
        self.left = self.budget
        try:
            return self.code[rule](self, pos, 1)
        except BaseException:
            for rec in self.made:  # the calls that were active end here
                rec[2] = -1
            raise

    def ends(self, first: int = 0) -> list[tuple[int, int, int | None]]:
        """``(rule, pos, end)`` of each called cell from the ``first``-th
        on, in the order of first calls: the end of its last completed
        call, or None."""
        return [(rule, pos, end) for _, end, _, rule, pos in self.made[first:]]

    def over_budget(self) -> CallBudgetExceeded:
        return CallBudgetExceeded(self.budget)

    def cycle(self, rec: list) -> LeftRecursion:
        # the active cells from rec's call on, outermost first, and rec's again
        active = sorted([(x[2], (x[3], x[4])) for x in self.made if x[2] >= rec[2]])
        return LeftRecursion(tuple([key for _, key in active]) + ((rec[3], rec[4]),),
                             self.names)

    def too_deep(self, rule: int, pos: int) -> DepthExceeded:
        return DepthExceeded(self.depth_limit, f"naive interpreter at rule {rule}, pos {pos}")


_CALLS = itemgetter(0)
_END = itemgetter(1)


def naive_parse(
    g: Grammar,
    rule: int,
    pos: int,
    text: str,
    *,
    call_budget: int = DEFAULT_CALL_BUDGET,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> NaiveReport:
    """Backtracking interpretation with no memo table.

    The report records every call's verdict (``ends_by_cell``) but the
    run never reads one back: each call is evaluated afresh.
    Verdict-identical to the engine on any grammar both accept; left
    recursion is cut off by an active-call cycle guard and reported as
    :class:`LeftRecursion` rather than looping.  ``call_budget`` and
    ``depth_limit`` must each be at least 1; a call that would make
    more than ``depth_limit`` rule calls active at once raises
    :class:`DepthExceeded`.  A rule outside the grammar or a position
    outside the input raises ValueError.

    It makes a :class:`NaiveRun`, calls it once in the engine's counted
    deep section, as :func:`~pegkit.engine.run_deep` does, so deep
    inputs reach that limit, and copies the report from the run's
    records.  Each rule body runs as the function generated for it at
    the grammar's first run (see ``PreparedGrammar.naive_code``), which
    does the call's bookkeeping itself, so a rule call costs one
    interpreter frame, and one more for each chunk of a deep body that
    it enters.  The report is filled in as an :class:`_UnfrozenReport`
    and then made a :class:`NaiveReport` by ``__class__`` assignment.
    """
    run = NaiveRun(g, text, call_budget=call_budget, depth_limit=depth_limit)
    outcome = _deep(depth_limit, "interpreter frame budget exhausted", run, rule, pos)
    made = run.made
    keys = [(rec[3], rec[4]) for rec in made]
    report = _UnfrozenReport()
    report.outcome = outcome
    report.calls = call_budget - run.left
    report.max_depth = run.deepest
    report.calls_by_cell = dict(zip(keys, map(_CALLS, made)))
    report.ends_by_cell = dict(zip(keys, map(_END, made)))
    report.__class__ = NaiveReport
    return report


_UNFILLED = object()


@dataclass(frozen=True, slots=True)
class TabularMatrix:
    """Fully materialized verdict table.

    ``ends[r][p]`` is the end position or None.  ``fill_order`` records
    the exact evaluation sequence: columns right to left, callees
    before callers within a column; every cell appears exactly once.
    """

    ends: tuple[tuple[int | None, ...], ...]
    fill_order: tuple[tuple[int, int], ...]

    def verdict(self, rule: int, pos: int) -> int | None:
        """A rule outside the grammar or a position outside the input
        raises ValueError, as :meth:`~pegkit.engine.ParseSession.apply`
        does."""
        ends = self.ends
        row = ends[rule] if 0 <= rule < len(ends) else ()
        _require_cell(rule, pos, len(ends), len(row) - 1)
        return row[pos]

    @property
    def cells_filled(self) -> int:
        return len(self.fill_order)


def _same_position_refs(e: PegExpr, table, memo: dict) -> set[int]:
    # rules reachable from e before any input is consumed; see _expr_nullable
    acc: set[int] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Ref):
            acc.add(x.rule)
        for kid in _children(x):
            stack.append(kid)
            if isinstance(x, Seq) and not _expr_nullable(kid, table, memo):
                break  # later parts start after consumed input
    return acc


def _callee_first(g: Grammar) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Every rule of ``g``, each after the rules it can call at its own
    position, and the first same-position cycle met, or ``()``; worked
    out once per grammar (``PreparedGrammar.callee_first``).

    A depth-first post-order of the same-position call graph, roots and
    callees in rule order, on an explicit stack.  An edge back into the
    trail closes a cycle and is skipped, so with a cycle the order is
    callee-first only along the other edges."""
    prep = prepared(g)
    if prep.callee_first is not None:
        return prep.callee_first
    table, memo = prep.nullability, {}  # by id: g keeps the nodes alive
    graph = [sorted(_same_position_refs(r.body, table, memo)) for r in g.rules]
    order: list[int] = []
    cycle: tuple[int, ...] = ()
    color = {}  # 1 = on the trail, 2 = done
    for root in range(len(g.rules)):
        if root in color:
            continue
        # trail[i]'s callees not yet visited are left in todo[i]
        color[root] = 1
        trail, todo = [root], [iter(graph[root])]
        while todo:
            for s in todo[-1]:
                if color.get(s) == 2:
                    continue
                if color.get(s) == 1:
                    if not cycle:
                        cycle = tuple(trail[trail.index(s):] + [s])
                    continue
                color[s] = 1
                trail.append(s)
                todo.append(iter(graph[s]))
                break
            else:
                todo.pop()
                r = trail.pop()
                color[r] = 2
                order.append(r)
    prep.callee_first = (tuple(order), cycle)
    return prep.callee_first


def _tabular_refusal(g: Grammar) -> tuple[str, ...]:
    # (construct, rule name) of the first rule with a repetition, or ()
    for rule in g.rules:
        if any(isinstance(e, (Star, Plus)) for e in preorder(rule.body)):
            return ("Star/Plus repetition", rule.name)
    return ()


def tabular_parse(g: Grammar, text: str) -> TabularMatrix:
    """Fill every (rule, position) verdict right-to-left.

    Rejects Star/Plus (no tabulation schedule exists for unbounded
    repetition) with :class:`UnsupportedConstruct` and grammars whose
    same-position call graph is cyclic with :class:`SamePositionCycle`.
    The schedule is worked out on explicit stacks, so any number of rules
    and any nesting depth is fine.  The fill recurses once per nesting
    level and runs in the engine's counted deep section, as
    :func:`naive_parse` does; if the interpreter's frames still run out,
    it raises :class:`DepthExceeded`.
    """
    prep = _require_valid(g)
    refusal = prep.tabular_refusal
    if refusal is None:
        refusal = prep.tabular_refusal = _tabular_refusal(g)
    if refusal:
        raise UnsupportedConstruct(*refusal, "tabular_parse")
    order, cycle = _callee_first(g)
    if cycle:
        raise SamePositionCycle(cycle, g.names)
    n = len(text)
    table: list[list] = [[_UNFILLED] * (n + 1) for _ in g.rules]
    bodies = [(table[rid], g.rules[rid].body) for rid in order]

    def walk(e: PegExpr, p: int) -> int | None:
        t = type(e)
        if t is Ref:
            cell = table[e.rule][p]
            if cell is _UNFILLED:
                raise RuntimeError(
                    f"tabular fill order violated: rule {e.rule} at {p} unfilled"
                )
            return cell
        if t is Seq:
            for part in e.parts:
                p = walk(part, p)
                if p is None:
                    return None
            return p
        if t is Choice:
            for alt in e.alts:
                q = walk(alt, p)
                if q is not None:
                    return q
            return None
        if t is Char:
            return p + 1 if p < n and text[p] == e.char else None
        if t is Class:
            return p + 1 if p < n and text[p] in e.chars else None
        if t is Literal:
            return p + len(e.text) if text.startswith(e.text, p) else None
        if t is AnyChar:
            return p + 1 if p < n else None
        if t is Empty:
            return p
        if t is Opt:
            q = walk(e.body, p)
            return p if q is None else q
        if t is Not:
            return p if walk(e.body, p) is None else None
        if t is And:
            return p if walk(e.body, p) is not None else None
        raise TypeError(f"unexpected construct in tabular walk: {e!r}")

    def fill() -> None:
        for pos in range(n, -1, -1):
            for row, body in bodies:
                row[pos] = walk(body, pos)

    # walk recurses once per nesting level
    try:
        _deep(None, "tabular walk: interpreter frame budget exhausted", fill)
    finally:
        del walk  # it refers to itself and holds the table; see naive_parse

    fill_order = tuple([(rid, pos) for pos in range(n, -1, -1) for rid in order])
    return TabularMatrix(tuple([tuple(row) for row in table]), fill_order)


# constructs outside the CFG fragment, by what the refusal calls them
_CFG_OFFENCES = {
    Star: "repetition",
    Plus: "repetition",
    Opt: "repetition",
    And: "predicates",
    Not: "predicates",
    Class: "character classes / wildcards",
    AnyChar: "character classes / wildcards",
}


def _cfg_refusal(g: Grammar) -> tuple[str, ...]:
    # the first offending node in rule-then-preorder order
    for rule in g.rules:
        for e in preorder(rule.body):
            what = _CFG_OFFENCES.get(type(e))
            if what is not None:
                return (what, rule.name)
    return ()


def check_cfg_compatible(g: Grammar) -> None:
    """Raise UnsupportedConstruct unless the grammar stays inside the
    CFG-friendly fragment (Seq/Choice/Char/Literal/Ref/Empty only)."""
    prep = prepared(g)
    refusal = prep.cfg_refusal
    if refusal is None:
        refusal = prep.cfg_refusal = _cfg_refusal(g)
    if refusal:
        raise UnsupportedConstruct(*refusal, "cfg_all_ends")


def cfg_end_table(g: Grammar, text: str) -> dict[tuple[int, int], frozenset[int]]:
    """All-end-sets for every (rule, position) under CFG reading.

    Kleene iteration on a monotone table, so (unlike the PEG engines)
    left-recursive grammars converge to their full end-sets.  It runs
    column by column, right to left: in this fragment a cell at ``p``
    reads only cells at positions ``q >= p``, so each column is iterated
    to its own fixpoint once the columns right of it are final, which
    gives the least fixpoint of the whole table.  Each pass over a
    column takes the rules callee-first, so when no rule can call
    itself at the same position the first pass is final and is the only
    one.  The walk recurses once per nesting level and runs in the
    engine's counted deep section, as :func:`tabular_parse` does, with
    the same :class:`DepthExceeded`.
    """
    _require_valid(g)
    check_cfg_compatible(g)
    n = len(text)
    nrules = len(g.rules)
    table: list[list[set[int]]] = [[set() for _ in range(n + 1)] for _ in range(nrules)]

    def ends(e: PegExpr, p: int) -> set[int]:
        t = type(e)
        if t is Ref:
            return table[e.rule][p]  # the cell itself: no caller changes a result
        if t is Seq:
            front = {p}
            for part in e.parts:
                nxt: set[int] = set()
                for q in front:
                    nxt |= ends(part, q)
                if not nxt:
                    return set()
                front = nxt
            return front
        if t is Choice:
            out: set[int] = set()
            for alt in e.alts:
                out |= ends(alt, p)
            return out
        if t is Char:
            return {p + 1} if p < n and text[p] == e.char else set()
        if t is Literal:
            return {p + len(e.text)} if text.startswith(e.text, p) else set()
        if t is Empty:
            return {p}
        raise TypeError(f"unexpected construct in CFG walk: {e!r}")

    # callee-first: without a same-position cycle one pass fills a column
    order, cycle = _callee_first(g)
    bodies = [(rid, g.rules[rid].body) for rid in order]

    def fill() -> None:
        for p in range(n, -1, -1):
            changed = True
            while changed:
                changed = False
                for rid, body in bodies:
                    new = ends(body, p)
                    if not new <= table[rid][p]:
                        table[rid][p] |= new
                        changed = True
                changed = changed and bool(cycle)

    try:
        _deep(None, "CFG walk: interpreter frame budget exhausted", fill)
    finally:
        del ends  # it refers to itself and holds the table; see naive_parse

    return {
        (rid, p): frozenset(table[rid][p])
        for rid in range(nrules)
        for p in range(n + 1)
    }


def cfg_all_ends(g: Grammar, rule: int, pos: int, text: str) -> frozenset[int]:
    """End-set for one (rule, position); see :func:`cfg_end_table`.  A
    rule outside the grammar or a position outside the input raises
    ValueError."""
    _require_valid(g)
    _require_cell(rule, pos, len(g.rules), len(text))
    return cfg_end_table(g, text)[(rule, pos)]
