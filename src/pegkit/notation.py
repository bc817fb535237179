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
parentheses group.  Escapes ``\\n \\r \\t \\\\ \\' \\" \\[ \\] \\-``,
``\\xHH``, ``\\uHHHH`` and ``\\UHHHHHHHH`` work inside quotes and classes;
the formatter writes a non-printable character with the shortest of
the three hex escapes that holds it.  The start rule is the
first rule unless ``@start`` says otherwise.

:func:`load_grammar` reports syntax problems with line and column and
refuses grammars with validation errors; :func:`format_grammar` renders
a grammar back to this notation so that reloading yields a structurally
equal grammar.
"""

from __future__ import annotations

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
# the hex escapes, by the number of digits that each takes
_HEX_WIDTH = {"x": 2, "u": 4, "U": 8}


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
        width = _HEX_WIDTH.get(c)
        if width:
            if self.pos + width > len(self.text):
                self.error(f"truncated \\{c} escape")
            digits = self.text[self.pos : self.pos + width]
            if not _HEX.issuperset(digits) or int(digits, 16) > 0x10FFFF:
                self.error(f"bad \\{c} escape {digits!r}")
            self.pos += width
            return chr(int(digits, 16))
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


_PRIMARY_STARTS = {"ident", "charlit", "strlit", "class", "dot", "lparen", "amp", "bang"}
_PREFIX_OPS = {"amp": And, "bang": Not}
_SUFFIX_OPS = {"star": Star, "plus": Plus, "quest": Opt}


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
            body = self.parse_expr()
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

    def parse_expr(self) -> PegExpr:
        """One expression, left to right.  The group being read keeps its
        alternatives, the parts of its current sequence, and the ``& !``
        operators pending before the next part; an open ``(`` pushes the
        three for the enclosing group, and its ``)`` pops them."""
        stack: list[tuple[list, list, list]] = []
        alts: list[PegExpr] = []
        parts: list[PegExpr] = []
        ops: list = []  # outermost first
        while True:
            t = self.tok
            if t.kind in _PREFIX_OPS:
                self.i += 1
                ops.append(_PREFIX_OPS[t.kind])
                continue
            if t.kind == "lparen" and self.tokens[self.i + 1].kind != "rparen":
                self.i += 1
                stack.append((alts, parts, ops))
                alts, parts, ops = [], [], []
                continue
            e = self.parse_primary()
            while True:  # e is a primary or a closed group: finish the part
                while self.tok.kind in _SUFFIX_OPS:
                    e = _SUFFIX_OPS[self.tok.kind](e)
                    self.i += 1
                while ops:
                    e = ops.pop()(e)
                parts.append(e)
                if self.tok.kind in _PRIMARY_STARTS:
                    break
                alts.append(parts[0] if len(parts) == 1 else Seq(tuple(parts)))
                parts = []
                if self.tok.kind == "slash":
                    self.i += 1
                    break
                e = alts[0] if len(alts) == 1 else Choice(tuple(alts))
                if not stack:
                    return e
                self.eat("rparen", "')'")
                alts, parts, ops = stack.pop()

    def parse_primary(self) -> PegExpr:
        t = self.tok
        if t.kind == "ident":
            self.i += 1
            self.ref_sites.append(t)
            return Ref(str(t.value))
        if t.kind == "charlit":
            self.i += 1
            text = str(t.value)
            return Char(text) if len(text) == 1 else Literal(text)
        if t.kind == "strlit":
            self.i += 1
            return Literal(str(t.value))
        if t.kind == "class":
            self.i += 1
            chars = t.value
            assert isinstance(chars, frozenset)
            if not chars:
                self.error("empty character class", t)
            return Class(chars)
        if t.kind == "dot":
            self.i += 1
            return ANY
        if t.kind == "lparen":  # only '()': parse_expr opens other groups
            self.i += 1
            self.eat("rparen", "')'")
            return EMPTY
        self.error("expected an expression")
        raise AssertionError  # unreachable


def parse_grammar(text: str) -> Grammar:
    """Parse grammar notation without semantic validation.

    Raises :class:`GrammarSyntaxError` with line/column on malformed
    input; the result may still carry validation issues (see
    :func:`pegkit.grammar.validate`).  Expressions of any nesting parse
    at the caller's recursion limit.
    """
    rules, start = _Parser(text).parse_file()
    return make_grammar(rules, start=start)


def load_grammar(text: str) -> Grammar:
    """Parse grammar notation into a validated :class:`Grammar`.

    Raises :class:`GrammarSyntaxError` with line/column on malformed
    input and :class:`~pegkit.grammar.InvalidGrammarError` when the
    parsed grammar has error-severity validation issues.
    """
    g = parse_grammar(text)
    errors = prepared(g).errors = validation_errors(g)
    if errors:
        raise InvalidGrammarError(errors)
    return g


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
        elif c <= "\xff":
            out.append(f"\\x{ord(c):02x}")
        elif c <= "\uffff":
            out.append(f"\\u{ord(c):04x}")
        else:
            out.append(f"\\U{ord(c):08x}")
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
    """Render one expression; ``names`` supplies rule names for refs.
    The text is written left to right from one explicit stack of strings
    and ``(node, level its place requires)`` pairs: any depth renders,
    in time linear in the text."""
    out: list[str] = []
    stack: list = [(e, _CHOICE)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        x, level = item
        # own level, text before, children, separator, their level, text after
        mine, head, kids, sep, inner, tail = _ATOM, "", (), "", _ATOM, ""
        if isinstance(x, (Empty, AnyChar)):
            head = "()" if isinstance(x, Empty) else "."
        elif isinstance(x, Char):
            head = "'" + _escape_text(x.char, "'") + "'"
        elif isinstance(x, Literal):
            head = '"' + _escape_text(x.text, '"') + '"'
        elif isinstance(x, Class):
            head = _render_class(x.chars)
        elif isinstance(x, Ref):
            t = x.rule
            head = names[t] if isinstance(t, int) and 0 <= t < len(names) else str(t)
        elif isinstance(x, Seq):
            mine, kids, sep, inner = _SEQ, x.parts, " ", _PREFIX
        elif isinstance(x, Choice):
            mine, kids, sep, inner = _CHOICE, x.alts, " / ", _SEQ
        elif isinstance(x, (And, Not)):
            mine, kids, inner = _PREFIX, (x.body,), _PREFIX
            head = "&" if isinstance(x, And) else "!"
        elif isinstance(x, (Star, Plus, Opt)):
            mine, kids = _SUFFIX, (x.body,)
            tail = "*" if isinstance(x, Star) else "+" if isinstance(x, Plus) else "?"
        else:
            raise TypeError(f"not a PegExpr: {x!r}")
        if mine < level:
            head, tail = "(" + head, tail + ")"
        out.append(head)
        stack.append(tail)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], inner))
            if i:
                stack.append(sep)
    return "".join(out)


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
