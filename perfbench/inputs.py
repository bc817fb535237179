"""Seeded input generators with references computed independently of pegkit.

Every generator takes a ``random.Random`` and returns plain strings (and,
for arithmetic, the exact value built alongside the text with Python
integers).  Nothing here imports pegkit: the program under test only ever
sees the generated text.
"""

from __future__ import annotations

import random

# Nesting caps keep the naive reference interpreter cheap: it re-parses
# the last operand of every choice, so its work grows as 2^depth to 9^depth.
LARGE_PAREN_DEPTH = 4
SMALL_PAREN_DEPTH = 2


class _Arith:
    """Arithmetic sentences over ``+``/``*`` (optionally ``-``), built with
    their value.  Each sum is evaluated left to right: that is its value
    under the right-recursive grammars, where only the associative ``+``
    and ``*`` occur, and under the left-associative one for ``-``."""

    def __init__(self, rng: random.Random, *, multi_digit: bool,
                 whitespace: bool, minus: bool, max_depth: int):
        self.rng = rng
        self.multi_digit = multi_digit
        self.whitespace = whitespace
        self.minus = minus
        self.max_depth = max_depth

    def _ws(self) -> str:
        if not self.whitespace:
            return ""
        return self.rng.choice(("", "", "", " ", "  ", "\t"))

    def _number(self) -> tuple[str, int]:
        if self.multi_digit:
            digits = "".join(
                self.rng.choice("0123456789") for _ in range(self.rng.randint(1, 5))
            )
        else:
            digits = self.rng.choice("0123456789")
        return digits + self._ws(), int(digits)

    def _factor(self, depth: int) -> tuple[str, int]:
        if depth < self.max_depth and self.rng.random() < 0.15:
            inner, value = self.sum(self.rng.randint(1, 3), depth + 1)
            return "(" + self._ws() + inner + ")" + self._ws(), value
        return self._number()

    def _term(self, depth: int) -> tuple[str, int]:
        text, value = self._factor(depth)
        for _ in range(self.rng.randint(0, 2)):
            more, factor = self._factor(depth)
            text += "*" + self._ws() + more
            value *= factor
        return text, value

    def sum(self, terms: int, depth: int = 0, min_len: int = 0) -> tuple[str, int]:
        """A sum of at least ``terms`` terms and ``min_len`` characters."""
        parts, value = self._term(depth)
        pieces = [parts]
        length = len(parts)
        count = 1
        while count < terms or length < min_len:
            op = "-" if self.minus and self.rng.random() < 0.4 else "+"
            text, term = self._term(depth)
            piece = op + self._ws() + text
            pieces.append(piece)
            length += len(piece)
            value = value - term if op == "-" else value + term
            count += 1
        return "".join(pieces), value


def large_expression(rng: random.Random, min_len: int) -> tuple[str, int]:
    """An ``arith_lexed`` sentence of at least ``min_len`` characters:
    multi-digit numbers, optional blanks, nested parentheses."""
    gen = _Arith(rng, multi_digit=True, whitespace=True, minus=False,
                 max_depth=LARGE_PAREN_DEPTH)
    lead = gen._ws()
    text, value = gen.sum(1, min_len=max(0, min_len - len(lead)))
    return lead + text, value


# -- parse-small: derivations of six catalog grammars ------------------------

SMALL_GRAMMARS = (
    "arith",
    "arith_left_assoc",
    "arith_lexed",
    "lookahead_ab",
    "composition_assign",
    "composition_lvalue",
)

# Characters a one-character mutation may insert or substitute.
ALPHABETS = {
    "arith": "0123456789+*()",
    "arith_left_assoc": "0123456789+-*()",
    "arith_lexed": "0123456789+*() \t",
    "lookahead_ab": "xyz",
    "composition_assign": "a=!+-()",
    "composition_lvalue": "a=!+-()[]",
}


def _arith_sentence(rng, target, *, multi_digit, whitespace, minus):
    gen = _Arith(rng, multi_digit=multi_digit, whitespace=whitespace,
                 minus=minus, max_depth=SMALL_PAREN_DEPTH)
    lead = gen._ws()
    text, _ = gen.sum(1, min_len=max(1, target - len(lead)))
    return lead + text


def _lookahead_sentence(rng, target):
    if rng.random() < 0.5:
        n = max(1, (target - 1) // 2)
        return "x" * n + "z" + "y" * n
    n = max(1, (target - 1) // 3)
    return "x" * n + "z" + "y" * (2 * n)


class _Composition:
    """Sentences of the composition grammars.  Identifiers are emitted as a
    placeholder and stretched afterwards so the sentence reaches its target
    length without deepening the nesting."""

    ID = "\0"

    def __init__(self, rng: random.Random, lvalue: bool):
        self.rng = rng
        self.lvalue = lvalue

    def _suffixes(self, depth: int) -> str:
        if not self.lvalue or depth >= SMALL_PAREN_DEPTH:
            return ""
        return "".join(
            "[" + self.a(depth + 1) + "]" for _ in range(self.rng.randint(0, 2))
        )

    def p(self, depth: int) -> str:
        if depth < SMALL_PAREN_DEPTH and self.rng.random() < 0.2:
            head = "(" + self.r(depth + 1) + ")"
        else:
            head = self.ID
        return head + self._suffixes(depth)

    def a(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.3:
            return self.p(depth) + "+" + self.p(depth)
        if roll < 0.5:
            return self.p(depth) + "-" + self.p(depth)
        return self.p(depth)

    def r(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.25:
            return self.a(depth) + "==" + self.a(depth)
        if roll < 0.4:
            return self.a(depth) + "!=" + self.a(depth)
        return self.a(depth)

    def lhs(self, depth: int) -> str:
        if not self.lvalue:
            return self.ID
        if depth < SMALL_PAREN_DEPTH and self.rng.random() < 0.2:
            head = "(" + self.lhs(depth + 1) + ")"
        else:
            head = self.ID
        return head + self._suffixes(depth)

    def sentence(self, target: int) -> str:
        if self.rng.random() < 0.5:
            skeleton = self.lhs(0) + "=" + self.r(0)
        else:
            skeleton = self.r(0)
        slots = skeleton.count(self.ID)
        lengths = [1] * slots
        for _ in range(max(0, target - len(skeleton))):
            lengths[self.rng.randrange(slots)] += 1
        pieces = skeleton.split(self.ID)
        out = [pieces[0]]
        for length, piece in zip(lengths, pieces[1:]):
            out.append("a" * length)
            out.append(piece)
        return "".join(out)


def small_sentence(rng: random.Random, grammar: str, target: int) -> str:
    """A sentence of ``grammar`` of roughly ``target`` characters."""
    if grammar == "arith":
        return _arith_sentence(rng, target, multi_digit=False, whitespace=False, minus=False)
    if grammar == "arith_left_assoc":
        return _arith_sentence(rng, target, multi_digit=False, whitespace=False, minus=True)
    if grammar == "arith_lexed":
        return _arith_sentence(rng, target, multi_digit=True, whitespace=True, minus=False)
    if grammar == "lookahead_ab":
        return _lookahead_sentence(rng, target)
    if grammar in ("composition_assign", "composition_lvalue"):
        return _Composition(rng, grammar == "composition_lvalue").sentence(target)
    raise ValueError(f"no generator for grammar {grammar!r}")


def mutate(rng: random.Random, text: str, alphabet: str) -> str:
    """Substitute, delete or insert one character."""
    pos = rng.randrange(len(text) + 1)
    kind = rng.choice(("sub", "del", "ins")) if pos < len(text) else "ins"
    if kind == "del":
        return text[:pos] + text[pos + 1:]
    if kind == "ins":
        return text[:pos] + rng.choice(alphabet) + text[pos:]
    other = [c for c in alphabet if c != text[pos]]
    return text[:pos] + rng.choice(other) + text[pos + 1:]


LONG_SHARE = 0.25  # share of parse-small inputs at or above LONG_MIN chars
LONG_MIN = 128  # pegkit's default deep_input_threshold
MUTATED_SHARE = 1 / 3


def small_stream(rng: random.Random, count: int) -> list[tuple[str, str, bool]]:
    """``count`` (grammar, text, mutated) triples, grammars in rotation.

    About a quarter of the target lengths lie in [LONG_MIN + 8, 320] and
    the rest in [8, LONG_MIN - 8], so that share of parses crosses the
    engine's default deep-input threshold; about a third of the sentences
    get one mutation.
    """
    out = []
    for i in range(count):
        grammar = SMALL_GRAMMARS[i % len(SMALL_GRAMMARS)]
        if rng.random() < LONG_SHARE:
            target = rng.randint(LONG_MIN + 8, 320)
        else:
            target = rng.randint(8, LONG_MIN - 8)
        text = small_sentence(rng, grammar, target)
        mutated = rng.random() < MUTATED_SHARE
        if mutated:
            text = mutate(rng, text, ALPHABETS[grammar])
        out.append((grammar, text, mutated))
    return out
