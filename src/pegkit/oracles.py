"""Reference interpreters used to cross-check the packrat engine.

Three independent evaluation strategies, deliberately kept separate
from the engine and from each other:

* :func:`naive_parse` - a direct recursive-descent interpreter with no
  memoization.  Same ordered-choice semantics as the engine, but it
  re-evaluates rules freely, so its call count exposes the redundancy
  that memoization removes (exponential on crafted grammars).
* :func:`tabular_parse` - fills the whole rule-by-position matrix from
  the rightmost column leftwards, callees before callers inside each
  column.  This only works when no rule can invoke another at the same
  position cyclically, and it has no way to schedule unbounded
  repetition, so Star/Plus are rejected outright.
* :func:`cfg_all_ends` - reads the grammar as a context-free grammar
  (unordered choice) and computes, per rule and start position, the set
  of all reachable end positions by exhaustive memoized search.  Only
  Seq/Choice/Char/Literal/Ref/Empty are meaningful under CFG reading;
  everything else is rejected.

Each is a plain interpreter that picks a case by the node's exact type,
most frequent first; validation refuses any other type, a subclass of a
node class included.  Verdicts are end positions (int) or None for
failure; oracle results carry no parse trees.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

from .engine import DEFAULT_DEPTH_LIMIT, DepthExceeded, LeftRecursion
from .engine import _enter_deep, _leave_deep  # the counted deep section
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
    nullable,
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
    """

    outcome: int | None
    calls: int
    max_depth: int
    calls_by_cell: dict[tuple[int, int], int] = field(default_factory=dict)


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

    Verdict-identical to the engine on any grammar both accept; left
    recursion is cut off by an active-call cycle guard and reported as
    :class:`LeftRecursion` rather than looping.  ``call_budget`` and
    ``depth_limit`` must each be at least 1; a call that would make
    more than ``depth_limit`` rule calls active at once raises
    :class:`DepthExceeded`.  It runs in the engine's counted deep
    section, as :func:`~pegkit.engine.run_deep` does, so deep inputs reach
    that limit.
    """
    if call_budget < 1:
        raise ValueError(f"call_budget must be at least 1, got {call_budget}")
    if depth_limit < 1:
        raise ValueError(f"depth_limit must be at least 1, got {depth_limit}")
    _require_valid(g)
    n = len(text)
    # a list: tuple() sizes a generator's result by resizing, so it never
    # takes from the tuple free list that each call's tuple would fill
    bodies = [r.body for r in g.rules]
    calls = max_depth = 0
    by_cell: dict[tuple[int, int], int] = {}
    # the active calls, outermost first: insertion order is the stack
    active: dict[tuple[int, int], None] = {}

    def call_rule(r: int, p: int) -> int | None:
        nonlocal calls, max_depth
        calls += 1
        key = (r, p)
        by_cell[key] = by_cell.get(key, 0) + 1
        if calls > call_budget:
            raise CallBudgetExceeded(call_budget)
        if key in active:
            stack = list(active)
            raise LeftRecursion(tuple(stack[stack.index(key):]) + (key,), g.names)
        depth = len(active)
        if depth >= depth_limit:
            raise DepthExceeded(depth_limit, f"naive interpreter at rule {r}, pos {p}")
        active[key] = None
        if depth >= max_depth:
            max_depth = depth + 1
        try:
            return walk(bodies[r], p)
        finally:
            active.popitem()

    def walk(e: PegExpr, p: int) -> int | None:
        t = type(e)
        if t is Ref:
            return call_rule(e.rule, p)
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
        if t is Star or t is Plus:
            q = p
            while True:
                step = walk(e.body, q)
                if step is None:
                    # every iteration consumes, so q == p only after none matched
                    return None if q == p and t is Plus else q
                q = step
        if t is Opt:
            q = walk(e.body, p)
            return p if q is None else q
        if t is Not:
            return p if walk(e.body, p) is None else None
        if t is And:
            return p if walk(e.body, p) is not None else None
        raise TypeError(f"not a PegExpr: {e!r}")

    _enter_deep()
    try:
        outcome = call_rule(rule, pos)
    except RecursionError:
        raise DepthExceeded(depth_limit, "interpreter frame budget exhausted") from None
    finally:
        _leave_deep()
        # The two closures refer to each other and walk to itself; unbound
        # here, they are freed at once instead of by the cyclic collector.
        del walk, call_rule
    return NaiveReport(outcome, calls, max_depth, by_cell)


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


def _same_position_refs(g: Grammar, e: PegExpr, acc: set[int]) -> None:
    # rules reachable from e before any input is consumed
    if isinstance(e, Ref):
        acc.add(e.rule)
    for kid in _children(e):
        _same_position_refs(g, kid, acc)
        if isinstance(e, Seq) and not nullable(g, kid):
            break  # later parts start after consumed input


def _topological_rules(g: Grammar) -> tuple[int, ...]:
    graph: dict[int, set[int]] = {}
    for rid, rule in enumerate(g.rules):
        acc: set[int] = set()
        _same_position_refs(g, rule.body, acc)
        graph[rid] = acc
    order: list[int] = []
    color = {}  # 1 = on stack, 2 = done

    def visit(r: int, trail: list[int]) -> None:
        if color.get(r) == 2:
            return
        if color.get(r) == 1:
            cycle = trail[trail.index(r):] + [r]
            raise SamePositionCycle(tuple(cycle), g.names)
        color[r] = 1
        trail.append(r)
        for s in sorted(graph[r]):
            visit(s, trail)
        trail.pop()
        color[r] = 2
        order.append(r)

    try:
        for r in range(len(g.rules)):
            visit(r, [])
    finally:
        del visit  # it refers to itself; see naive_parse
    return tuple(order)


def _tabular_schedule(g: Grammar) -> tuple[int, ...] | Callable[[], Exception]:
    """Rule order for :func:`tabular_parse`, or a factory for the
    exception that refuses ``g`` (a fresh one for every call)."""
    for rule in g.rules:
        if any(isinstance(e, (Star, Plus)) for e in preorder(rule.body)):
            return functools.partial(
                UnsupportedConstruct, "Star/Plus repetition", rule.name, "tabular_parse"
            )
    try:
        return _topological_rules(g)
    except SamePositionCycle as exc:
        return functools.partial(SamePositionCycle, exc.cycle, g.names)


def tabular_parse(g: Grammar, text: str) -> TabularMatrix:
    """Fill every (rule, position) verdict right-to-left.

    Rejects Star/Plus (no tabulation schedule exists for unbounded
    repetition) with :class:`UnsupportedConstruct` and grammars whose
    same-position call graph is cyclic with :class:`SamePositionCycle`.
    """
    prep = _require_valid(g)
    order = prep.tabular_schedule
    if order is None:
        order = prep.tabular_schedule = _tabular_schedule(g)
    if callable(order):
        raise order()
    n = len(text)
    table: list[list] = [[_UNFILLED] * (n + 1) for _ in g.rules]
    fill_order: list[tuple[int, int]] = []

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

    try:
        for pos in range(n, -1, -1):
            for rid in order:
                table[rid][pos] = walk(g.rules[rid].body, pos)
                fill_order.append((rid, pos))
    finally:
        del walk  # it refers to itself and holds the table; see naive_parse

    return TabularMatrix(
        tuple([tuple(row) for row in table]), tuple(fill_order)
    )


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
    left-recursive grammars converge to their full end-sets.
    """
    _require_valid(g)
    check_cfg_compatible(g)
    n = len(text)
    nrules = len(g.rules)
    table: list[list[set[int]]] = [[set() for _ in range(n + 1)] for _ in range(nrules)]

    def ends(e: PegExpr, p: int) -> set[int]:
        t = type(e)
        if t is Ref:
            return set(table[e.rule][p])
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

    changed = True
    try:
        while changed:
            changed = False
            for rid in range(nrules):
                body = g.rules[rid].body
                for p in range(n + 1):
                    new = ends(body, p)
                    if not new <= table[rid][p]:
                        table[rid][p] |= new
                        changed = True
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
