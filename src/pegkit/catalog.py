"""Catalog of study grammars with evaluators and expected traits.

Each grammar is defined once, by its shipped ``.peg`` file under
``pegkit/grammars/`` (:func:`grammar_text` reads it); the file's
comments say why the grammar has its shape.  This module adds one row
of metadata per file: an optional semantic evaluator (a pure function
from rule-labelled parse-tree node and input text to a value:
integers, characters, pairs, the unit value ``()``, ...), alphabets for
input generation, and trait flags used by the differential checker.
An evaluator dispatches on a list of one handler per rule id: a
handler takes ``(node, text, table)`` and evaluates a child as
``table[kid.rule](kid, text, table)``, one frame per node; it reads a
token from its span and folds a right-recursive chain in a loop, with
no frame per digit or link.  Run a deep tree's evaluator under
``run_deep``.  The flags:

* ``left_recursive`` - every engine must terminate with a structured
  left-recursion error rather than loop;
* ``peg_cfg_divergent`` - the PEG reading accepts a strictly different
  language than the CFG reading, so oracle divergence is expected;
* ``non_lr_k`` - needs unbounded lookahead (no LR(k) parser exists),
  yet parses fine top-down with backtracking.

Adding a grammar takes one ``.peg`` file and one row of ``_TABLE``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .engine import ParseTreeNode, span_int
from .grammar import Grammar
from .notation import parse_grammar

Evaluator = Callable[[ParseTreeNode, str], object]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    grammar: Grammar
    evaluator: Evaluator | None
    alphabet: str
    exhaustive_alphabet: str
    traits: frozenset[str] = frozenset()


def grammar_text(name: str) -> str:
    """Source text of the shipped ``.peg`` file for a catalog entry."""
    return (
        resources.files("pegkit")
        .joinpath("grammars", f"{name}.peg")
        .read_text(encoding="utf-8")
    )


def _dispatch_evaluator(g: Grammar, handlers: dict[str, Callable]) -> Evaluator:
    table = [handlers[name] for name in g.names]

    def evaluate(node: ParseTreeNode, text: str) -> object:
        return table[node.rule](node, text, table)

    return evaluate


def _chain(op: Callable, unit: int) -> Callable:
    # right-recursive `operand op self / operand`, folded in a loop
    def fold(node: ParseTreeNode, text: str, t) -> object:
        total = unit
        kids = node.children
        while len(kids) == 3:
            a = kids[0]
            total = op(total, t[a.rule](a, text, t))
            kids = kids[2].children
        a = kids[0]
        return op(total, t[a.rule](a, text, t))

    return fold


def _middle(node: ParseTreeNode, text: str, t) -> object:
    # a parenthesised or bare operand, or Expr's Additive after its blanks
    kids = node.children
    a = kids[len(kids) // 2]
    return t[a.rule](a, text, t)


def _sum(node: ParseTreeNode, text: str, t) -> object:
    a, b = node.children
    return t[a.rule](a, text, t) + t[b.rule](b, text, t)


def _suffix(node: ParseTreeNode, text: str, t) -> object:
    # net contribution of a flat (op, operand) suffix, folded left to right
    total = 0
    kids = node.children
    while kids:
        a = kids[1]
        step = t[a.rule](a, text, t)
        total += step if text[kids[0].start] == "+" else -step
        kids = kids[2].children
    return total


def _decimal(node: ParseTreeNode, text: str, t) -> object:
    # the integer of the first child's span: a digit, or a Digits run
    # read without visiting its chain
    first = node.children[0]
    return span_int(text, first.start, first.end)


def _symbol(node: ParseTreeNode, text: str, t) -> object:
    return text[node.start]


_ARITH = {
    "Additive": _chain(operator.add, 0),
    "Multitive": _chain(operator.mul, 1),
    "Primary": _middle,
    "Decimal": _decimal,
}

_ARITH_LEFT_ASSOC = {**_ARITH, "Additive": _sum, "AdditiveSuffix": _suffix}

_ARITH_LEXED = {
    **_ARITH,
    "Expr": _middle,
    "Digits": lambda node, text, t: (
        span_int(text, node.start, node.end), node.end - node.start
    ),
    "Digit": _decimal,
    "PlusSym": _symbol,
    "StarSym": _symbol,
    "OpenSym": _symbol,
    "CloseSym": _symbol,
    "Whitespace": lambda node, text, t: (),
}

# name -> evaluator handlers by rule name, alphabet, exhaustive
# alphabet, traits
_TABLE = {
    "arith": (_ARITH, "0123456789+*()", "27+*()", ()),
    "arith_left_assoc": (_ARITH_LEFT_ASSOC, "0123456789+-*()", "27+-*()", ()),
    "arith_lexed": (_ARITH_LEXED, "0123456789+*() \t", "27+*( )", ()),
    "lookahead_ab": (None, "xyz", "xyz", ("non_lr_k",)),
    "composition_assign": (None, "a=!+-()", "a=!+-()", ("non_lr_k",)),
    "composition_lvalue": (None, "a=!+-()[]", "a=!+-()[]", ("non_lr_k",)),
    "peg_limitation": (None, "x", "x", ("peg_cfg_divergent",)),
    "left_recursive_arith": (None, "0123456789+-*()", "27+-*()", ("left_recursive",)),
    "blowup": (None, "ab", "ab", ()),
}


def entry(name: str) -> CatalogEntry:
    """The catalog entry ``name``, parsed from its shipped file alone.

    Each call parses the file into a fresh :class:`Grammar`.  It is not
    validated here: like any grammar, it is validated once, at its
    first session or oracle call.  An unknown name raises KeyError.
    """
    try:
        handlers, alphabet, exhaustive, traits = _TABLE[name]
    except KeyError:
        raise KeyError(
            f"unknown grammar {name!r} (catalog: {', '.join(_TABLE)})"
        ) from None
    g = parse_grammar(grammar_text(name))
    return CatalogEntry(
        name=name,
        grammar=g,
        evaluator=_dispatch_evaluator(g, handlers) if handlers else None,
        alphabet=alphabet,
        exhaustive_alphabet=exhaustive,
        traits=frozenset(traits),
    )


def registry() -> dict[str, CatalogEntry]:
    """Name -> fresh :func:`entry` for every catalog grammar, in a
    stable order."""
    return {name: entry(name) for name in _TABLE}
