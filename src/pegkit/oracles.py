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

The naive oracle composes each rule body once per grammar into a
function built from one closure per node (see :func:`_naive_code`), so
a run picks no case by node type.  The other two are plain interpreters
that pick a case by the node's exact type, most frequent first.  Either
way only the node classes themselves are understood: validation refuses
any other type, a subclass of a node class included.  Verdicts are end
positions (int) or None for failure; oracle results carry no parse
trees.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

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


def _naive_node(e: PegExpr, kids: list[Callable]) -> Callable:
    # the naive oracle's code for one node, ``run(text, p, call)``, made
    # from its children's; see _naive_code
    t = type(e)
    if t is Ref:
        r = e.rule

        def run(text, p, call):
            return call(r, p)
    elif t is Seq:
        parts = tuple(kids)

        def run(text, p, call):
            for part in parts:
                p = part(text, p, call)
                if p is None:
                    return None
            return p
    elif t is Choice:
        alts = tuple(kids)

        def run(text, p, call):
            for alt in alts:
                q = alt(text, p, call)
                if q is not None:
                    return q
            return None
    elif t is Char:
        c = e.char

        def run(text, p, call):
            return p + 1 if p < len(text) and text[p] == c else None
    elif t is Class:
        chars = e.chars

        def run(text, p, call):
            return p + 1 if p < len(text) and text[p] in chars else None
    elif t is Literal:
        lit, k = e.text, len(e.text)

        def run(text, p, call):
            return p + k if text.startswith(lit, p) else None
    elif t is AnyChar:
        def run(text, p, call):
            return p + 1 if p < len(text) else None
    elif t is Empty:
        def run(text, p, call):
            return p
    elif t is Star or t is Plus:
        body, plus = kids[0], t is Plus

        def run(text, p, call):
            q = p
            while True:
                step = body(text, q, call)
                if step is None:
                    # every iteration consumes, so q == p only after none matched
                    return None if q == p and plus else q
                q = step
    elif t is Opt:
        body = kids[0]

        def run(text, p, call):
            q = body(text, p, call)
            return p if q is None else q
    elif t is Not:
        body = kids[0]

        def run(text, p, call):
            return p if body(text, p, call) is None else None
    elif t is And:
        body = kids[0]

        def run(text, p, call):
            return p if body(text, p, call) is not None else None
    else:
        raise TypeError(f"not a PegExpr: {e!r}")
    return run


def _naive_code(g: Grammar) -> tuple[Callable, ...]:
    """Each rule body of ``g`` as one function, ``run(text, p, call)``:
    the end of the body's match at ``p`` in ``text``, or None, where
    ``call(r, p)`` applies rule ``r``.

    Every node is turned into a closure over its children's once, so a
    run picks no case by node type.  The closures are built bottom-up
    from an explicit stack (any depth is fine); they hold no state of a
    run and refer to no rule's code, so they form no cycle, and threads
    may share them."""
    memo: dict = {}  # by id: g keeps the nodes alive
    return tuple([postorder(rule.body, _naive_node, memo) for rule in g.rules])


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
    :class:`DepthExceeded`.  Each rule body runs as the function that
    the grammar's first run composed from closures (see
    ``PreparedGrammar.naive_code``); every rule call goes through one
    per-run function that does the bookkeeping and checks the limits.
    It runs in the engine's counted deep section, as
    :func:`~pegkit.engine.run_deep` does, so deep inputs reach that limit.
    The report is filled in as an :class:`_UnfrozenReport` and then made
    a :class:`NaiveReport` by ``__class__`` assignment.
    """
    if call_budget < 1:
        raise ValueError(f"call_budget must be at least 1, got {call_budget}")
    if depth_limit < 1:
        raise ValueError(f"depth_limit must be at least 1, got {depth_limit}")
    prep = _require_valid(g)
    code = prep.naive_code
    if code is None:
        code = prep.naive_code = _naive_code(g)
    calls = max_depth = 0
    by_cell: dict[tuple[int, int], int] = {}
    ends: dict[tuple[int, int], int | None] = {}
    # the active calls, outermost first, each mapped to its depth:
    # insertion order is the stack
    active: dict[tuple[int, int], int] = {}

    def call_rule(r: int, p: int) -> int | None:
        nonlocal calls, max_depth
        calls += 1
        key = (r, p)
        by_cell[key] = by_cell.get(key, 0) + 1
        if calls > call_budget:
            raise CallBudgetExceeded(call_budget)
        depth = len(active)
        first = active.setdefault(key, depth)
        if first != depth:  # key was active already, at depth first
            raise LeftRecursion(tuple(list(active)[first:]) + (key,), g.names)
        if depth >= max_depth:  # max_depth never passes depth_limit
            if depth >= depth_limit:
                raise DepthExceeded(depth_limit, f"naive interpreter at rule {r}, pos {p}")
            max_depth = depth + 1
        ends[key] = end = code[r](text, p, call_rule)
        # an exception ends the run, and the active stack with it
        active.popitem()
        return end

    try:
        outcome = _deep(depth_limit, "interpreter frame budget exhausted",
                        call_rule, rule, pos)
    finally:
        # call_rule refers to itself; unbound here, it is freed at once
        # instead of by the cyclic collector
        del call_rule
    report = _UnfrozenReport()
    report.outcome = outcome
    report.calls = calls
    report.max_depth = max_depth
    report.calls_by_cell = by_cell
    report.ends_by_cell = ends
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
        return self.ends[rule][pos]

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
    """End-set for one (rule, position); see :func:`cfg_end_table`."""
    return cfg_end_table(g, text)[(rule, pos)]
