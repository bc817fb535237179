"""Parsing expression grammar intermediate representation.

A grammar is a dense, immutable table of named rules over a small
expression algebra:

    Empty            match nothing, consume nothing
    AnyChar          consume exactly one character
    Char(c)          consume the character c
    Class(chars)     consume one character drawn from a set
    Literal(text)    consume a fixed string
    Seq(parts)       match parts in order
    Choice(alts)     ordered choice: first alternative that matches wins
    Star(body)       zero or more repetitions, greedy
    Plus(body)       one or more repetitions, greedy
    Opt(body)        zero or one repetition, greedy
    And(body)        positive lookahead, consumes nothing
    Not(body)        negative lookahead, consumes nothing
    Ref(rule)        invoke another rule of the enclosing grammar

Expressions are frozen dataclasses and compare structurally.  Rules are
indexed densely from 0; ``Ref`` normally carries an integer index, but a
string name is tolerated before resolution so grammars can be assembled
by name (see :func:`make_grammar`).  Static analysis lives here too:
:func:`nullable` computes the least fixed point of the can-match-empty
relation across rules, and :func:`validate` reports structural issues
without mutating the grammar.  What is derived from a grammar alone is
computed once per :class:`Grammar` object and kept on its
:class:`PreparedGrammar` handle (see :func:`prepared`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Union, get_args


@dataclass(frozen=True, slots=True)
class Empty:
    pass


@dataclass(frozen=True, slots=True)
class AnyChar:
    pass


@dataclass(frozen=True, slots=True)
class Char:
    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise ValueError(f"Char expects a single character, got {self.char!r}")


@dataclass(frozen=True, slots=True)
class Class:
    chars: frozenset[str]

    def __post_init__(self) -> None:
        for c in self.chars:
            if len(c) != 1:
                raise ValueError(f"Class members must be single characters, got {c!r}")


@dataclass(frozen=True, slots=True)
class Literal:
    text: str


class _Composite:
    """``==`` and ``hash`` of the nodes with children, by structure, as
    the dataclass methods would compare and hash their one field.  Both
    read one flat list, :func:`_shape`, so they agree by construction and
    work at any depth, where the dataclass methods recurse through C once
    per level.  A subclass that defines its own method is compared or
    hashed by it."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _shape(self) == _shape(other)

    def __hash__(self):
        return hash(tuple(_shape(self)))


@dataclass(frozen=True, slots=True, eq=False)
class Seq(_Composite):
    parts: tuple["PegExpr", ...]


@dataclass(frozen=True, slots=True, eq=False)
class Choice(_Composite):
    alts: tuple["PegExpr", ...]


@dataclass(frozen=True, slots=True, eq=False)
class Star(_Composite):
    body: "PegExpr"


@dataclass(frozen=True, slots=True, eq=False)
class Plus(_Composite):
    body: "PegExpr"


@dataclass(frozen=True, slots=True, eq=False)
class Opt(_Composite):
    body: "PegExpr"


@dataclass(frozen=True, slots=True, eq=False)
class And(_Composite):
    body: "PegExpr"


@dataclass(frozen=True, slots=True, eq=False)
class Not(_Composite):
    body: "PegExpr"


@dataclass(frozen=True, slots=True)
class Ref:
    rule: Union[int, str]


PegExpr = Union[
    Empty, AnyChar, Char, Class, Literal, Seq, Choice, Star, Plus, Opt, And, Not, Ref
]

# the interpreters dispatch on exact type, so validation refuses the rest
_NODE_TYPES = frozenset(get_args(PegExpr))

EMPTY = Empty()
ANY = AnyChar()


def char(c: str) -> Char:
    return Char(c)


def lit(text: str) -> Literal:
    return Literal(text)


def charclass(chars: Iterable[str]) -> Class:
    """Character set from any iterable of single characters."""
    return Class(frozenset(chars))


def seq(*parts: PegExpr) -> Seq:
    return Seq(tuple(parts))


def choice(*alts: PegExpr) -> Choice:
    return Choice(tuple(alts))


def star(body: PegExpr) -> Star:
    return Star(body)


def plus(body: PegExpr) -> Plus:
    return Plus(body)


def opt(body: PegExpr) -> Opt:
    return Opt(body)


def and_(body: PegExpr) -> And:
    return And(body)


def not_(body: PegExpr) -> Not:
    return Not(body)


def ref(rule: Union[int, str]) -> Ref:
    return Ref(rule)


@dataclass(frozen=True, slots=True)
class Rule:
    name: str
    body: PegExpr


@dataclass(frozen=True, slots=True)
class Grammar:
    """Immutable rule table.  ``start`` indexes into ``rules``.

    ``_prepared`` holds the grammar's :class:`PreparedGrammar` once
    :func:`prepared` has built it; it takes no part in equality, hashing
    or repr.
    """

    rules: tuple[Rule, ...]
    start: int = 0
    _prepared: "PreparedGrammar | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("a grammar needs at least one rule")
        if not 0 <= self.start < len(self.rules):
            raise ValueError(f"start rule index {self.start} out of range")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)

    def rule_id(self, name: str) -> int:
        for i, r in enumerate(self.rules):
            if r.name == name:
                return i
        raise KeyError(name)

    def rule_name(self, rid: int) -> str:
        return self.rules[rid].name


def _children(e: PegExpr) -> tuple[PegExpr, ...]:
    if isinstance(e, Seq):
        return e.parts
    if isinstance(e, Choice):
        return e.alts
    if isinstance(e, (Star, Plus, Opt, And, Not)):
        return (e.body,)
    return ()


def _shape(e) -> list:
    """``e`` in preorder as a flat list, which ``==`` and ``hash`` of a
    ``_Composite`` read.  A node whose class keeps ``_Composite.__eq__``
    becomes ``(its class, its arity)`` followed by its parts, or ``(its
    class, its parts)`` when they are not a tuple (a list, say).  A tuple
    is listed the same way, so that no part can pass for a node's entry.
    Anything else (a leaf, or a node of its own ``==``) is kept whole."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is not tuple and t.__eq__ is not _Composite.__eq__:
            out.append(x)
            continue
        kids = x if t is tuple else _children(x)
        if type(kids) is tuple:
            out.append((t, len(kids)))
            stack.extend(reversed(kids))
        else:
            out.append((t, kids))
    return out


def preorder(*roots: PegExpr) -> Iterator[PegExpr]:
    """Every node under ``roots``, one root's tree after another, preorder."""
    stack = list(reversed(roots))
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(_children(e)))


def walk_exprs(g: Grammar) -> Iterator[PegExpr]:
    """Every expression node in every rule body, preorder."""
    return preorder(*(r.body for r in g.rules))


def postorder(root: PegExpr, visit: Callable, memo: dict | None = None):
    """The result of ``visit(node, its children's results)`` at ``root``,
    children first, from an explicit stack: any depth is fine.  ``memo``
    maps ``id(node)`` to the results worked out, so a node met twice is
    visited once; callers may share it while they keep the nodes alive."""
    memo = {} if memo is None else memo
    stack = [(root, None)]  # (node, its children once they are queued)
    while stack:
        x, kids = stack.pop()
        if kids is None:
            if id(x) in memo:
                continue
            kids = _children(x)
            if kids:
                stack.append((x, kids))
                stack.extend((k, None) for k in reversed(kids))
                continue
        memo[id(x)] = visit(x, [memo[id(k)] for k in kids])
    return memo[id(root)]


def _resolve(e: PegExpr, index: dict[str, int]) -> PegExpr:
    def visit(x, kids):
        if isinstance(x, Ref):
            t = x.rule
            return Ref(index[t]) if isinstance(t, str) and t in index else x
        old = _children(x)  # a list of parts is rebuilt as a tuple
        if not old or type(old) is tuple and all(k is o for k, o in zip(kids, old)):
            return x
        return type(x)(tuple(kids)) if isinstance(x, (Seq, Choice)) else type(x)(*kids)

    return postorder(e, visit)


def make_grammar(
    rules: Sequence[tuple[str, PegExpr]], start: str | None = None
) -> Grammar:
    """Build a grammar from (name, body) pairs, resolving name refs.

    Rule names must be unique.  ``Ref`` nodes carrying known names are
    rewritten to dense indices; unknown names are left in place for
    :func:`validate` to report.  The start rule defaults to the first.
    """
    names = [name for name, _ in rules]
    counts = Counter(names)
    for name in names:  # in order: the first name that occurs twice
        if counts[name] > 1:
            raise ValueError(f"duplicate rule name {name!r}")
    index = {name: i for i, name in enumerate(names)}
    resolved = tuple(Rule(name, _resolve(body, index)) for name, body in rules)
    start_id = index[start] if start is not None else 0
    return Grammar(resolved, start_id)


def _expr_nullable(
    e: PegExpr, table: Sequence[bool], memo: dict[int, bool] | None = None
) -> bool:
    """Can ``e`` match empty, given each rule's answer in ``table``?
    ``memo`` is that of :func:`postorder`."""

    def visit(x, kids):
        if isinstance(x, (Empty, Star, Opt, And, Not)):
            return True
        if isinstance(x, Literal):
            return x.text == ""
        if isinstance(x, Choice):
            return any(kids)
        if isinstance(x, (Seq, Plus)):
            return all(kids)
        if isinstance(x, Ref):
            t = x.rule
            return isinstance(t, int) and 0 <= t < len(table) and table[t]
        return False  # a terminal, or an object that is no expression node

    return postorder(e, visit, memo)


def _rule_nullability(g: Grammar) -> tuple[bool, ...]:
    # The least fixed point by counting down.  Each node is visited once
    # and waits for what it still needs: every part of a Seq or Plus, one
    # alternative of a Choice, a Ref's rule body.  A node that needs
    # nothing more is nullable and counts down the nodes waiting for it,
    # so each edge is followed once.
    n = len(g.rules)
    need: dict[int, int] = {}  # by id, for the nodes that wait
    waiting: dict[int, list] = {}  # by id: the nodes that wait for the node
    ready: list = []  # nullable nodes whose waiting nodes are not yet counted down

    def visit(x, _):
        if isinstance(x, (Empty, Star, Opt, And, Not)) or (
            isinstance(x, Literal) and x.text == ""
        ):
            ready.append(x)
            return
        if isinstance(x, Choice):
            deps, count = x.alts, 1
        elif isinstance(x, (Seq, Plus)):
            deps = _children(x)
            count = len(deps)
        elif isinstance(x, Ref) and isinstance(x.rule, int) and 0 <= x.rule < n:
            deps, count = (g.rules[x.rule].body,), 1
        else:
            return  # a terminal, or an object that is no expression node
        if not count:
            ready.append(x)  # a Seq of no parts
        need[id(x)] = count
        for d in deps:
            waiting.setdefault(id(d), []).append(x)

    memo: dict = {}  # by id: g keeps the nodes alive
    for rule in g.rules:
        postorder(rule.body, visit, memo)
    done: set[int] = set()
    while ready:
        x = ready.pop()
        done.add(id(x))
        for w in waiting.get(id(x), ()):
            need[id(w)] -= 1
            if need[id(w)] == 0:
                ready.append(w)
    return tuple([id(rule.body) in done for rule in g.rules])


class PreparedGrammar:
    """Everything derived from one grammar alone, computed at most once.

    :func:`prepared` builds one handle per :class:`Grammar` object and
    stores it on that object, so no lookup hashes the grammar tree and
    no cache outlives the grammar.  ``nullability`` (per rule, see
    :func:`nullable`) is filled at once.  The other fields start as
    None and are filled on first use by the module that owns them:

    * ``errors``: the error-severity issues of :func:`validate`, filled
      by ``load_grammar``, the engine or an oracle, whichever sees the
      grammar first;
    * ``code``: the engine's generated function of each rule, in rule
      order: ``run(s, pos, d)`` forces and returns the rule's memo cell
      at ``pos`` in session ``s``, inside ``d`` active applications;
      every session on the grammar, of any class, runs it;
    * ``expr_code``: the engine's generated function of each expression
      that ``ParseSession.eval_expr`` has evaluated, keyed by the
      expression;
    * ``naive_code``: the naive oracle's function of each rule, in rule
      order, generated as one Python function: ``run(s, p, d)`` does
      the call's bookkeeping on the ``NaiveRun`` ``s`` and returns the
      end of the body's match at ``p``, or None, with ``d`` rule calls
      active; it applies rule ``r`` as ``s.code[r](s, q, d + 1)``.  It
      holds no state of a run, so every run on the grammar, on any
      thread, shares it;
    * ``callee_first``: the rules, each after the rules it can call at
      its own position, and the first same-position cycle, or ``()``:
      the order in which the tabular and CFG oracles take the rules in
      a column;
    * ``tabular_refusal``: ``(construct, rule name)`` of the first rule
      with a repetition, which the tabular oracle refuses, or ``()``;
    * ``cfg_refusal``: ``(construct, rule name)`` of the first node
      outside the CFG oracle's fragment, or ``()`` when there is none.
    """

    __slots__ = (
        "nullability",
        "errors",
        "code",
        "expr_code",
        "naive_code",
        "callee_first",
        "tabular_refusal",
        "cfg_refusal",
    )

    def __init__(self, nullability: tuple[bool, ...]):
        self.nullability = nullability
        self.errors: tuple[ValidationIssue, ...] | None = None
        self.code: tuple[Callable, ...] | None = None
        self.expr_code: dict[PegExpr, Callable] | None = None
        self.naive_code: tuple[Callable, ...] | None = None
        self.callee_first: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self.tabular_refusal: tuple[str, ...] | None = None
        self.cfg_refusal: tuple[str, ...] | None = None


def prepared(g: Grammar) -> PreparedGrammar:
    """The handle of ``g``, built on first request and kept on ``g``."""
    prep = g._prepared
    if prep is None:
        prep = PreparedGrammar(_rule_nullability(g))
        object.__setattr__(g, "_prepared", prep)
    return prep


def nullable(g: Grammar, e: PegExpr) -> bool:
    """Can ``e`` succeed while consuming zero characters?

    Predicates count as nullable: when they succeed they consume
    nothing.  Unresolved refs, and objects that are not expression
    nodes, are treated as non-nullable so the analysis stays total on
    grammars that have not validated yet.
    """
    return _expr_nullable(e, prepared(g).nullability)


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One finding from :func:`validate`.

    ``path`` is the child-index trail from the rule body to the
    offending subexpression; severity is ``"error"`` or ``"warning"``.
    ``rule`` is None for an issue in an expression passed to
    ``ParseSession.eval_expr`` rather than in a rule body.
    """

    severity: str
    code: str
    rule: str | None
    path: tuple[int, ...]
    message: str


def validate(g: Grammar) -> tuple[ValidationIssue, ...]:
    """Structural checks, in deterministic rule-then-preorder order.

    Errors: UnknownNode (an object whose type is not exactly one of the
    13 expression node classes, a subclass included; its subtree is not
    checked), UnknownRef (ref to a missing rule), EmptyChoice (Choice or
    Seq with no elements), NullableRepetition (Star/Plus whose body can
    match empty, which would loop without consuming).  Warnings:
    UnreachableRule (never reachable from the start rule).
    """
    issues = _structural_errors(g, [(rule.name, rule.body) for rule in g.rules])
    nrules = len(g.rules)
    reachable = {g.start}
    frontier = [g.start]
    while frontier:
        for e in preorder(g.rules[frontier.pop()].body):
            if isinstance(e, Ref):
                t = e.rule
                if isinstance(t, int) and 0 <= t < nrules and t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
    for rid, rule in enumerate(g.rules):
        if rid not in reachable:
            issues.append(
                ValidationIssue(
                    "warning",
                    "UnreachableRule",
                    rule.name,
                    (),
                    f"rule {rule.name!r} is not reachable from the start rule",
                )
            )

    return tuple(issues)


def _structural_errors(g: Grammar, roots) -> list[ValidationIssue]:
    """The error-severity issues of :func:`validate` in the trees of the
    ``(rule name, body)`` pairs ``roots``, in root-then-preorder order."""
    issues: list[ValidationIssue] = []
    nrules = len(g.rules)
    table = prepared(g).nullability
    memo: dict[int, bool] = {}  # by id, as the roots keep the nodes alive
    # a path is a link (child index, parent's link) up to a root's (),
    # spelt out only when an issue is reported
    stack = [(name, e, ()) for name, e in reversed(roots)]
    while stack:
        name, e, link = stack.pop()
        t = type(e)
        if t not in _NODE_TYPES:  # its subtree is not checked
            code, message = "UnknownNode", f"{t.__name__} is not an expression node type"
        else:
            kids = _children(e)
            for i in range(len(kids) - 1, -1, -1):
                stack.append((name, kids[i], (i, link)))
            # a node of exact type has at most one of these
            if t is Ref and not (isinstance(e.rule, int) and 0 <= e.rule < nrules):
                code, message = "UnknownRef", f"reference to unknown rule {e.rule!r}"
            elif (t is Seq or t is Choice) and not kids:
                code, message = "EmptyChoice", f"{t.__name__} with no elements"
            elif (t is Star or t is Plus) and _expr_nullable(e.body, table, memo):
                code = "NullableRepetition"
                message = f"{t.__name__} body can match empty and would repeat forever"
            else:
                continue
        path: list[int] = []
        while link:
            i, link = link
            path.append(i)
        issues.append(ValidationIssue("error", code, name, tuple(path[::-1]), message))
    return issues


def validation_errors(g: Grammar) -> tuple[ValidationIssue, ...]:
    """Just the error-severity issues of :func:`validate`."""
    return tuple(i for i in validate(g) if i.severity == "error")


class InvalidGrammarError(Exception):
    """Error-severity validation issues, kept in ``issues``: a grammar's,
    or those of the expression whose text is ``expression``, refused by
    ``ParseSession.eval_expr``."""

    def __init__(
        self, issues: tuple[ValidationIssue, ...], expression: str | None = None
    ):
        if expression is None:
            head = "grammar"
            lines = [f"{i.code} in rule {i.rule!r}: {i.message}" for i in issues]
        else:
            head = "expression"
            lines = [
                f"{i.code} in expression {expression!r}: {i.message}" for i in issues
            ]
        super().__init__(f"{head} has validation errors:\n  " + "\n  ".join(lines))
        self.issues = issues
