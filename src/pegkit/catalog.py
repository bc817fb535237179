"""Catalog of study grammars with evaluators and expected traits.

Each grammar is defined once, by its shipped ``.peg`` file under
``pegkit/grammars/`` (:func:`grammar_text` reads it); the file's
comments say why the grammar has its shape.  This module adds one row
of metadata per file: an optional semantic evaluator (a pure function
from rule-labelled parse-tree node and input text to a value:
integers, characters, pairs, the unit value ``()``, ...), alphabets for
input generation, and trait flags used by the differential checker:

* ``left_recursive`` - every engine must terminate with a structured
  left-recursion error rather than loop;
* ``peg_cfg_divergent`` - the PEG reading accepts a strictly different
  language than the CFG reading, so oracle divergence is expected;
* ``non_lr_k`` - needs unbounded lookahead (no LR(k) parser exists),
  yet parses fine top-down with backtracking.

Adding a grammar takes one ``.peg`` file and one row of ``_TABLE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .engine import ParseTreeNode
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
    by_id = {g.rule_id(name): fn for name, fn in handlers.items()}

    def evaluate(node: ParseTreeNode, text: str) -> object:
        return by_id[node.rule](node, text, evaluate)

    return evaluate


def _binop_int(node: ParseTreeNode, text: str, ev) -> object:
    # Additive/Multitive shape: operand op operand, or bare operand
    kids = node.children
    if len(kids) == 3:
        a = ev(kids[0], text)
        b = ev(kids[2], text)
        return a + b if text[kids[1].start] == "+" else a * b
    return ev(kids[0], text)


def _paren_or_first(node: ParseTreeNode, text: str, ev) -> object:
    kids = node.children
    if len(kids) == 3:
        return ev(kids[1], text)
    return ev(kids[0], text)


def _decimal(node: ParseTreeNode, text: str, ev) -> object:
    return int(text[node.start : node.end])


def _sum(node: ParseTreeNode, text: str, ev) -> object:
    return ev(node.children[0], text) + ev(node.children[1], text)


def _suffix(node: ParseTreeNode, text: str, ev) -> object:
    # net contribution of a flat (op, operand) suffix, folded left to right
    kids = node.children
    if not kids:
        return 0
    step = ev(kids[1], text)
    rest = ev(kids[2], text)
    return (step if text[kids[0].start] == "+" else -step) + rest


def _lexed_binop(node: ParseTreeNode, text: str, ev) -> object:
    kids = node.children
    if len(kids) == 3:
        a = ev(kids[0], text)
        b = ev(kids[2], text)
        return a + b if ev(kids[1], text) == "+" else a * b
    return ev(kids[0], text)


def _digits(node: ParseTreeNode, text: str, ev) -> object:
    # (value, digit count) of a right-recursive digit run
    kids = node.children
    digit = int(text[kids[0].start])
    if len(kids) == 1:
        return (digit, 1)
    value, count = ev(kids[1], text)
    return (digit * 10**count + value, count + 1)


def _symbol(node: ParseTreeNode, text: str, ev) -> object:
    return text[node.start]


_ARITH = {
    "Additive": _binop_int,
    "Multitive": _binop_int,
    "Primary": _paren_or_first,
    "Decimal": _decimal,
}

_ARITH_LEFT_ASSOC = {**_ARITH, "Additive": _sum, "AdditiveSuffix": _suffix}

_ARITH_LEXED = {
    "Expr": lambda node, text, ev: ev(node.children[1], text),
    "Additive": _lexed_binop,
    "Multitive": _lexed_binop,
    "Primary": _paren_or_first,
    "Decimal": lambda node, text, ev: ev(node.children[0], text)[0],
    "Digits": _digits,
    "Digit": lambda node, text, ev: int(text[node.start]),
    "PlusSym": _symbol,
    "StarSym": _symbol,
    "OpenSym": _symbol,
    "CloseSym": _symbol,
    "Whitespace": lambda node, text, ev: (),
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
