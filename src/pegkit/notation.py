"""Textual grammar notation: a loader and a formatter.

Grammar files are rule definitions terminated by semicolons::

    # line comment
    @start Additive ;
    Additive  <- Multitive '+' Additive / Multitive ;
    Multitive <- Primary '*' Multitive / Primary ;
    Primary   <- '(' Additive ')' / Decimal ;
    Decimal   <- [0-9] ;

Juxtaposition is sequencing, ``/`` is ordered choice, ``* + ?`` are
greedy postfix repetition, ``& !`` are prefix lookahead predicates,
``'c'`` is a character, ``"str"`` a literal string, ``[a-z0-9]`` a
character class, ``.`` any character, ``()`` the empty expression, and
parentheses group.  Escapes ``\\n \\r \\t \\\\ \\' \\" \\[ \\] \\-``
and ``\\xHH`` work inside quotes and classes.  The start rule is the
first rule unless ``@start`` says otherwise.

:func:`load_grammar` reports syntax problems with line and column and
refuses grammars with validation errors; :func:`format_grammar` renders
a grammar back to this notation so that reloading yields a structurally
equal grammar.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .grammar import (
    ANY,
    EMPTY,
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
    Ref,
    Rule,
    Seq,
    Star,
    make_grammar,
    prepared,
    validation_errors,
)


class GrammarSyntaxError(Exception):
    """A syntax error at offset ``pos`` of ``text``; ``line`` and ``col``
    count from 1, and only ``\n`` starts a new line."""

    def __init__(self, message: str, text: str, pos: int):
        self.line = text.count("\n", 0, pos) + 1
        self.col = pos - text.rfind("\n", 0, pos)
        super().__init__(f"line {self.line}, column {self.col}: {message}")


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")

_HEX = set("0123456789abcdefABCDEF")

_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", "\\": "\\", "'": "'", '"': '"',
            "[": "[", "]": "]", "-": "-"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    value: object
    pos: int


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        raise GrammarSyntaxError(message, self.text, self.pos if pos is None else pos)

    def _take(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        return c

    def _skip_blank(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c in " \t\r\n":
                self.pos += 1
            elif c == "#":  # a comment runs to the end of its line
                end = self.text.find("\n", self.pos)
                self.pos = len(self.text) if end < 0 else end
            else:
                return

    def _name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start : self.pos]

    def _escape(self) -> str:
        # positioned just after the backslash
        if self.pos >= len(self.text):
            self.error("escape at end of input")
        c = self._take()
        if c in _ESCAPES:
            return _ESCAPES[c]
        if c == "x":
            if self.pos + 2 > len(self.text):
                self.error("truncated \\x escape")
            hh = self.text[self.pos : self.pos + 2]
            if not _HEX.issuperset(hh):
                self.error(f"bad \\x escape {hh!r}")
            self.pos += 2
            return chr(int(hh, 16))
        self.error(f"unknown escape \\{c}")
        raise AssertionError  # unreachable

    def _quoted(self, quote: str, start: int) -> str:
        out = []
        while True:
            if self.pos >= len(self.text):
                self.error("unterminated quoted literal", start)
            c = self._take()
            if c == quote:
                return "".join(out)
            if c == "\n":
                self.error("newline inside quoted literal", start)
            if c == "\\":
                out.append(self._escape())
            else:
                out.append(c)

    def _class_member(self, start: int) -> str:
        if self.pos >= len(self.text):
            self.error("unterminated character class", start)
        c = self._take()
        if c == "\n":
            self.error("newline inside character class", start)
        return self._escape() if c == "\\" else c

    def _charclass(self, start: int) -> frozenset[str]:
        members: set[str] = set()
        while True:
            if self.pos >= len(self.text):
                self.error("unterminated character class", start)
            if self.text[self.pos] == "]":
                self.pos += 1
                return frozenset(members)
            c = self._class_member(start)
            # 'a-z' forms a range; a literal '-' must be escaped
            if (
                c != "-"
                and self.pos + 1 < len(self.text)
                and self.text[self.pos] == "-"
                and self.text[self.pos + 1] != "]"
            ):
                self.pos += 1
                hi = self._class_member(start)
                if ord(hi) < ord(c):
                    self.error(f"reversed range {c!r}-{hi!r} in character class")
                members.update(chr(o) for o in range(ord(c), ord(hi) + 1))
            else:
                members.add(c)

    def tokens(self) -> list[_Token]:
        out: list[_Token] = []
        while True:
            self._skip_blank()
            start = self.pos
            if start >= len(self.text):
                out.append(_Token("eof", None, start))
                return out
            c = self._take()
            if c in _IDENT_START:
                out.append(_Token("ident", c + self._name(), start))
            elif c == "@":
                out.append(_Token("directive", self._name(), start))
            elif c == "<":
                if self.pos < len(self.text) and self.text[self.pos] == "-":
                    self.pos += 1
                    out.append(_Token("arrow", "<-", start))
                else:
                    self.error("expected '<-'", start)
            elif c == "'":
                out.append(_Token("charlit", self._quoted("'", start), start))
            elif c == '"':
                out.append(_Token("strlit", self._quoted('"', start), start))
            elif c == "[":
                out.append(_Token("class", self._charclass(start), start))
            elif c in "/*+?&!().;":
                kinds = {
                    "/": "slash", "*": "star", "+": "plus", "?": "quest",
                    "&": "amp", "!": "bang", "(": "lparen", ")": "rparen",
                    ".": "dot", ";": "semi",
                }
                out.append(_Token(kinds[c], c, start))
            else:
                self.error(f"unexpected character {c!r}", start)


#: Most groups and operators on one path through an expression.  The
#: parser refuses the token that passes it, so the position depends on
#: the text alone.  It keeps the walks over the tree that recurse
#: through C code (name resolution, ``nullable``) far from the end of
#: the C stack, and a chain of prefix or suffix operators at the cap
#: renders (two frames each) within the default recursion limit.
_MAX_NESTING = 350

_PRIMARY_STARTS = {"ident", "charlit", "strlit", "class", "dot", "lparen", "amp", "bang"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _Scanner(text).tokens()
        self.i = 0
        self.ref_sites: list[_Token] = []

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def error(self, message: str, tok: _Token | None = None):
        raise GrammarSyntaxError(message, self.text, (tok or self.tok).pos)

    def check_nesting(self, t: _Token, nesting: int) -> None:
        if nesting > _MAX_NESTING:
            self.error("expression nested too deeply", t)

    def eat(self, kind: str, what: str) -> _Token:
        t = self.tok
        if t.kind != kind:
            found = (
                "end of input" if t.kind == "eof"
                else _render_class(t.value) if t.kind == "class"
                else repr(t.value)
            )
            self.error(f"expected {what}, found {found}")
        self.i += 1
        return t

    def parse_file(self) -> tuple[list[tuple[str, PegExpr]], str | None]:
        rules: list[tuple[str, PegExpr]] = []
        seen: dict[str, _Token] = {}
        start: str | None = None
        while self.tok.kind != "eof":
            if self.tok.kind == "directive":
                t = self.tok
                self.i += 1
                if t.value != "start":
                    self.error(f"unknown directive @{t.value}", t)
                if start is not None:
                    self.error("duplicate @start directive", t)
                start = str(self.eat("ident", "a rule name").value)
                self.eat("semi", "';'")
                continue
            name_tok = self.eat("ident", "a rule name")
            name = str(name_tok.value)
            if name in seen:
                self.error(f"duplicate rule name {name!r}", name_tok)
            seen[name] = name_tok
            self.eat("arrow", "'<-'")
            body, _ = self.parse_expr(0)
            self.eat("semi", "';'")
            rules.append((name, body))
        if not rules:
            self.error("no rules defined")
        if start is not None and start not in seen:
            self.error(f"@start names unknown rule {start!r}")
        for t in self.ref_sites:
            if t.value not in seen:
                self.error(f"reference to unknown rule {t.value!r}", t)
        return rules, start

    # Each parse_* method takes the number of groups and prefix operators
    # open around it, and returns an expression and its nesting: the most
    # groups and operators on one path through it.

    def parse_expr(self, depth: int) -> tuple[PegExpr, int]:
        alts = [self.parse_seq(depth)]
        while self.tok.kind == "slash":
            self.i += 1
            alts.append(self.parse_seq(depth))
        exprs, nestings = zip(*alts)
        return (exprs[0] if len(exprs) == 1 else Choice(exprs)), max(nestings)

    def parse_seq(self, depth: int) -> tuple[PegExpr, int]:
        parts = [self.parse_prefix(depth)]
        while self.tok.kind in _PRIMARY_STARTS:
            parts.append(self.parse_prefix(depth))
        exprs, nestings = zip(*parts)
        return (exprs[0] if len(exprs) == 1 else Seq(exprs)), max(nestings)

    def parse_prefix(self, depth: int) -> tuple[PegExpr, int]:
        t = self.tok
        if t.kind not in ("amp", "bang"):
            return self.parse_suffix(depth)
        self.check_nesting(t, depth + 1)
        self.i += 1
        body, n = self.parse_prefix(depth + 1)
        return (And(body) if t.kind == "amp" else Not(body)), n + 1

    def parse_suffix(self, depth: int) -> tuple[PegExpr, int]:
        e, n = self.parse_primary(depth)
        while self.tok.kind in ("star", "plus", "quest"):
            kind = self.tok.kind
            n += 1
            self.check_nesting(self.tok, depth + n)
            self.i += 1
            e = Star(e) if kind == "star" else Plus(e) if kind == "plus" else Opt(e)
        return e, n

    def parse_primary(self, depth: int) -> tuple[PegExpr, int]:
        t = self.tok
        if t.kind == "ident":
            self.i += 1
            self.ref_sites.append(t)
            return Ref(str(t.value)), 0
        if t.kind == "charlit":
            self.i += 1
            text = str(t.value)
            return (Char(text) if len(text) == 1 else Literal(text)), 0
        if t.kind == "strlit":
            self.i += 1
            return Literal(str(t.value)), 0
        if t.kind == "class":
            self.i += 1
            chars = t.value
            assert isinstance(chars, frozenset)
            if not chars:
                self.error("empty character class", t)
            return Class(chars), 0
        if t.kind == "dot":
            self.i += 1
            return ANY, 0
        if t.kind == "lparen":
            self.i += 1
            if self.tok.kind == "rparen":
                self.i += 1
                return EMPTY, 0
            self.check_nesting(t, depth + 1)
            e, n = self.parse_expr(depth + 1)
            self.eat("rparen", "')'")
            return e, n + 1
        self.error("expected an expression")
        raise AssertionError  # unreachable


def parse_grammar(text: str) -> Grammar:
    """Parse grammar notation without semantic validation.

    Raises :class:`GrammarSyntaxError` with line/column on malformed
    input, an expression nested past ``_MAX_NESTING`` included; the
    result may still carry validation issues (see
    :func:`pegkit.grammar.validate`).
    """
    with _deep():
        rules, start = _Parser(text).parse_file()
        return make_grammar(rules, start=start)


def load_grammar(text: str) -> Grammar:
    """Parse grammar notation into a validated :class:`Grammar`.

    Raises :class:`GrammarSyntaxError` with line/column on malformed
    input and :class:`~pegkit.grammar.InvalidGrammarError` when the
    parsed grammar has error-severity validation issues.
    """
    with _deep():
        g = parse_grammar(text)
        errors = prepared(g).errors = validation_errors(g)
    if errors:
        raise InvalidGrammarError(errors)
    return g


@contextmanager
def _deep():
    # The parser, make_grammar and nullable recurse a few frames per level
    # of nesting, past the default recursion limit at the cap, so they run
    # in the engine's counted deep section.
    from .engine import _enter_deep, _leave_deep  # the engine imports this module

    _enter_deep()
    try:
        yield
    finally:
        _leave_deep()


_CHOICE, _SEQ, _PREFIX, _SUFFIX, _ATOM = range(5)


def _escape_text(text: str, specials: str) -> str:
    out = []
    for c in text:
        if c == "\\" or c in specials:
            out.append("\\" + c)
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        elif c.isprintable():
            out.append(c)
        else:
            out.append(f"\\x{ord(c):02x}")
    return "".join(out)


def _render_class(chars: frozenset[str]) -> str:
    ordered = sorted(chars)
    out = []
    i = 0
    while i < len(ordered):
        j = i
        while j + 1 < len(ordered) and ord(ordered[j + 1]) == ord(ordered[j]) + 1:
            j += 1
        if j - i >= 2:
            out.append(_escape_text(ordered[i], "[]-") + "-" + _escape_text(ordered[j], "[]-"))
            i = j + 1
        else:
            out.append(_escape_text(ordered[i], "[]-"))
            i += 1
    return "[" + "".join(out) + "]"


def render_expr(e: PegExpr, names: tuple[str, ...] = ()) -> str:
    """Render one expression; ``names`` supplies rule names for refs."""
    return _render(e, names, _CHOICE)


def _render(e: PegExpr, names: tuple[str, ...], level: int) -> str:
    text, mine = _render_inner(e, names)
    if mine < level:
        return "(" + text + ")"
    return text


def _render_inner(e: PegExpr, names: tuple[str, ...]) -> tuple[str, int]:
    if isinstance(e, Empty):
        return "()", _ATOM
    if isinstance(e, AnyChar):
        return ".", _ATOM
    if isinstance(e, Char):
        return "'" + _escape_text(e.char, "'") + "'", _ATOM
    if isinstance(e, Literal):
        return '"' + _escape_text(e.text, '"') + '"', _ATOM
    if isinstance(e, Class):
        return _render_class(e.chars), _ATOM
    if isinstance(e, Ref):
        if isinstance(e.rule, int) and 0 <= e.rule < len(names):
            return names[e.rule], _ATOM
        return str(e.rule), _ATOM
    if isinstance(e, Seq):
        return " ".join(_render(p, names, _PREFIX) for p in e.parts), _SEQ
    if isinstance(e, Choice):
        return " / ".join(_render(a, names, _SEQ) for a in e.alts), _CHOICE
    if isinstance(e, And):
        return "&" + _render(e.body, names, _PREFIX), _PREFIX
    if isinstance(e, Not):
        return "!" + _render(e.body, names, _PREFIX), _PREFIX
    if isinstance(e, Star):
        return _render(e.body, names, _ATOM) + "*", _SUFFIX
    if isinstance(e, Plus):
        return _render(e.body, names, _ATOM) + "+", _SUFFIX
    if isinstance(e, Opt):
        return _render(e.body, names, _ATOM) + "?", _SUFFIX
    raise TypeError(f"not a PegExpr: {e!r}")


def format_grammar(g: Grammar) -> str:
    """Render a grammar so that :func:`load_grammar` reproduces it."""
    names = g.names
    width = max(len(n) for n in names)
    lines = []
    if g.start != 0:
        lines.append(f"@start {names[g.start]} ;")
    for rule in g.rules:
        lines.append(f"{rule.name.ljust(width)} <- {render_expr(rule.body, names)} ;")
    return "\n".join(lines) + "\n"
