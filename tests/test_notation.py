"""Textual grammar notation: loader, formatter, round-trips."""

from __future__ import annotations

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegkit import (
    ANY,
    EMPTY,
    Char,
    Class,
    Empty,
    Grammar,
    InvalidGrammarError,
    Literal,
    Ref,
    Rule,
    Seq,
    char,
    charclass,
    choice,
    format_grammar,
    lit,
    load_grammar,
    make_grammar,
    not_,
    opt,
    parse_grammar,
    plus,
    ref,
    render_expr,
    seq,
    star,
)
from pegkit import engine
from pegkit.notation import GrammarSyntaxError

ARITH_TEXT = """
# single-digit arithmetic
Additive  <- Multitive '+' Additive / Multitive ;
Multitive <- Primary '*' Multitive / Primary ;
Primary   <- '(' Additive ')' / Decimal ;
Decimal   <- [0-9] ;
"""


def structurally_equal(a: Grammar, b: Grammar) -> bool:
    return (
        a.names == b.names
        and a.start == b.start
        and all(x.body == y.body for x, y in zip(a.rules, b.rules))
    )


class TestLoadGrammar:
    def test_loads_the_module_example(self):
        g = load_grammar(ARITH_TEXT)
        assert g.names == ("Additive", "Multitive", "Primary", "Decimal")
        assert g.start == 0
        assert g.rules[3].body == charclass("0123456789")

    def test_single_rule_with_self_reference(self):
        g = load_grammar("S <- 'x' S 'x' / 'x' ;")
        assert g.rules[0].body == choice(
            seq(char("x"), Ref(0), char("x")), char("x")
        )

    def test_empty_input_is_a_syntax_error(self):
        with pytest.raises(GrammarSyntaxError, match="no rules"):
            load_grammar("")

    def test_unknown_rule_name_has_location(self):
        with pytest.raises(GrammarSyntaxError, match="line 1, column 6"):
            load_grammar("S <- T ;")

    def test_missing_semicolon_has_location(self):
        with pytest.raises(GrammarSyntaxError, match="line 2"):
            load_grammar("A <- 'x'\nB <- 'y' ;")

    def test_unterminated_quote_is_rejected(self):
        with pytest.raises(GrammarSyntaxError):
            load_grammar("A <- 'x ;")

    def test_validation_errors_propagate(self):
        with pytest.raises(InvalidGrammarError, match="NullableRepetition"):
            load_grammar("A <- ('x'?)* ;")

    def test_start_directive_overrides_first_rule(self):
        g = load_grammar("@start B ;\nA <- 'a' B ;\nB <- 'b' ;")
        assert g.start == g.rule_id("B")

    def test_comments_and_blank_lines_ignored(self):
        g = load_grammar("# head\n\nA <- 'a' ; # trailing\n# tail\n")
        assert g.names == ("A",)

    def test_parse_grammar_skips_validation(self):
        # syntactically fine, semantically bad: Star over nullable body
        g = parse_grammar("A <- ('x'?)* ;")
        assert g.names == ("A",)


class TestNotationForms:
    def test_empty_parens_mean_empty(self):
        g = parse_grammar("A <- () ;")
        assert g.rules[0].body == EMPTY

    def test_dot_means_any_char(self):
        g = parse_grammar("A <- . ;")
        assert g.rules[0].body == ANY

    def test_double_quotes_mean_literal(self):
        g = parse_grammar('A <- "==" ;')
        assert g.rules[0].body == lit("==")

    def test_prefix_and_postfix_operators(self):
        g = parse_grammar("A <- !'x' 'y'* &'z' 'w'+ 'v'? ;")
        assert g.rules[0].body == seq(
            not_(char("x")),
            star(char("y")),
            parse_grammar("Z <- &'z' ;").rules[0].body,
            plus(char("w")),
            opt(char("v")),
        )

    def test_choice_binds_looser_than_sequence(self):
        g = parse_grammar("A <- 'a' 'b' / 'c' ;")
        assert g.rules[0].body == choice(seq(char("a"), char("b")), char("c"))

    def test_grouping_overrides_precedence(self):
        g = parse_grammar("A <- 'a' ('b' / 'c') ;")
        assert g.rules[0].body == seq(char("a"), choice(char("b"), char("c")))

    def test_escapes_in_quotes_and_classes(self):
        g = parse_grammar("A <- '\\n' \"a\\tb\" [\\x41-\\x43\\]] ;")
        assert g.rules[0].body == seq(
            char("\n"), lit("a\tb"), charclass("ABC]")
        )

    @pytest.mark.parametrize("form", ["'\\x{}'", "[\\x{}]"])
    @pytest.mark.parametrize("digits", ["-1", " 1", "+f", "1_"])
    def test_hex_escape_takes_exactly_two_hex_digits(self, form, digits):
        text = "A <- " + form.format(digits) + " ;"
        with pytest.raises(GrammarSyntaxError) as exc:
            parse_grammar(text)
        assert str(exc.value) == f"line 1, column 9: bad \\x escape {digits!r}"

    def test_four_and_eight_digit_hex_escapes(self):
        g = parse_grammar("A <- '\\u2028' \"a\\U0010FFFFb\" [\\ue000-\\ue002] ;")
        assert g.rules[0].body == seq(
            char("\u2028"), lit("a\U0010ffffb"), charclass("\ue000\ue001\ue002")
        )

    @pytest.mark.parametrize("text, error", [
        ("A <- '\\u202' ;", "line 1, column 9: bad \\u escape \"202'\""),
        ("A <- '\\U00110000' ;", "line 1, column 9: bad \\U escape '00110000'"),
        ("A <- '\\U0010", "line 1, column 9: truncated \\U escape"),
    ])
    def test_bad_long_hex_escapes(self, text, error):
        with pytest.raises(GrammarSyntaxError) as exc:
            parse_grammar(text)
        assert str(exc.value) == error

    def test_a_character_past_u00ff_round_trips(self):
        g = make_grammar([("A", lit("a\u2028b"))])
        assert format_grammar(g) == 'A <- "a\\u2028b" ;\n'
        assert parse_grammar(format_grammar(g)).rules[0].body == lit("a\u2028b")

    def test_class_ranges_and_singletons(self):
        g = parse_grammar("A <- [a-c xz] ;")
        assert g.rules[0].body == charclass("abc xz")


# (text, str(error), line, column) of every syntax error kind; tabs and
# '\r' count as one column each, and only '\n' starts a new line
SYNTAX_ERRORS = [
    ("# header\r\nA <- 'x\\", "line 2, column 9: escape at end of input", 2, 9),
    ("A <-\t'\\x4", "line 1, column 9: truncated \\x escape", 1, 9),
    ("\tA <- [\\xg1] ;", "line 1, column 10: bad \\x escape 'g1'", 1, 10),
    ("A <- 'a' # note\n\tB <- '\\q' ;", "line 2, column 10: unknown escape \\q", 2, 10),
    ('A <- "abc', "line 1, column 6: unterminated quoted literal", 1, 6),
    ("A <- 'a\r\nb' ;", "line 1, column 6: newline inside quoted literal", 1, 6),
    ("A <- [ab", "line 1, column 6: unterminated character class", 1, 6),
    ("A <- [a-", "line 1, column 6: unterminated character class", 1, 6),
    ("A <- [a\nb] ;", "line 1, column 6: newline inside character class", 1, 6),
    (
        "A <- 'a'\n  / [z-a] ;",
        "line 2, column 9: reversed range 'z'-'a' in character class", 2, 9,
    ),
    ("A < 'x' ;", "line 1, column 3: expected '<-'", 1, 3),
    ("A <- 'x' ;\r\n\t$", "line 2, column 2: unexpected character '$'", 2, 2),
    (
        "A <- 'x' ;\n'y' <- 'z' ;",
        "line 2, column 1: expected a rule name, found 'y'", 2, 1,
    ),
    (
        "A <- 'x' # no semicolon",
        "line 1, column 24: expected ';', found end of input", 1, 24,
    ),
    ("A\t'x' ;", "line 1, column 3: expected '<-', found 'x'", 1, 3),
    ("A <- ('x' ;", "line 1, column 11: expected ')', found ';'", 1, 11),
    ("@start @start ;", "line 1, column 8: expected a rule name, found 'start'", 1, 8),
    ("<- 'x' ;", "line 1, column 1: expected a rule name, found '<-'", 1, 1),
    ("A <- 'x' ;\n\"yz\" ;", "line 2, column 1: expected a rule name, found 'yz'", 2, 1),
    ("@begin A ;", "line 1, column 1: unknown directive @begin", 1, 1),
    (
        "@start A ;\n@start A ;\nA <- 'a' ;",
        "line 2, column 1: duplicate @start directive", 2, 1,
    ),
    ("A <- 'a' ;\r\nA <- 'b' ;", "line 2, column 1: duplicate rule name 'A'", 2, 1),
    ("# only a comment\n\t\n", "line 3, column 1: no rules defined", 3, 1),
    ("", "line 1, column 1: no rules defined", 1, 1),
    (
        "@start B ;\nA <- 'a' ;\n",
        "line 3, column 1: @start names unknown rule 'B'", 3, 1,
    ),
    (
        "A <- B\t'x' ;\n# B is missing\n",
        "line 1, column 6: reference to unknown rule 'B'", 1, 6,
    ),
    (
        "A <- 'a' ;  # hi\n  B <- C ;",
        "line 2, column 8: reference to unknown rule 'C'", 2, 8,
    ),
    ("A <- 'a' [] ;", "line 1, column 10: empty character class", 1, 10),
    ("A <- / 'a' ;", "line 1, column 6: expected an expression", 1, 6),
    ("A <-\n;", "line 2, column 1: expected an expression", 2, 1),
    ("A <- 'a'\n\t\t'b' ) ;", "line 2, column 7: expected ';', found ')'", 2, 7),
    # errors met inside a group or under a prefix operator
    ("A <- ('a' ;", "line 1, column 11: expected ')', found ';'", 1, 11),
    ("A <- ( / 'a') ;", "line 1, column 8: expected an expression", 1, 8),
    ("A <- !) ;", "line 1, column 7: expected an expression", 1, 7),
    ("A <- ()) ;", "line 1, column 8: expected ';', found ')'", 1, 8),
    ("A <- * ;", "line 1, column 6: expected an expression", 1, 6),
]


class TestSyntaxErrors:
    @pytest.mark.parametrize("text, message, line, col", SYNTAX_ERRORS)
    def test_message_line_and_column(self, text, message, line, col):
        with pytest.raises(GrammarSyntaxError) as exc:
            parse_grammar(text)
        assert (str(exc.value), exc.value.line, exc.value.col) == (message, line, col)

    @pytest.mark.parametrize("kind", ["group", "not", "plus"])
    def test_any_nesting_loads_outside_the_deep_section(self, kind, monkeypatch):
        # 20,000 levels load at the caller's recursion limit, and the
        # parser never enters the engine's deep section
        def refuse():
            raise AssertionError("the notation parser entered the deep section")

        monkeypatch.setattr(engine, "_enter_deep", refuse)
        k = 20_000
        assert sys.getrecursionlimit() < k
        if kind == "group":
            text = "A <- " + "('a' " * k + "'b'" + ")" * k + " ;"
            e, level = char("b"), lambda body: seq(char("a"), body)
        elif kind == "not":
            text = "A <- " + "!" * k + "'a' ;"
            e, level = char("a"), not_
        else:
            text = "A <- " + "(" * k + "'a'" + ")+" * k + " ;"
            e, level = char("a"), plus
        for _ in range(k):
            e = level(e)
        g = load_grammar(text)
        assert g == make_grammar([("A", e)])
        assert load_grammar(format_grammar(g)) == g

    def test_class_token_is_shown_in_notation(self):
        # a class token prints as the formatter renders it, not as a
        # hash-ordered frozenset
        with pytest.raises(GrammarSyntaxError) as exc:
            parse_grammar("[abcdef] <- x ;")
        assert str(exc.value) == "line 1, column 1: expected a rule name, found [a-f]"
        with pytest.raises(GrammarSyntaxError) as exc:
            parse_grammar("A <- 'a' ;\n[] <- 'b' ;")
        assert str(exc.value) == "line 2, column 1: expected a rule name, found []"


class TestFormatGrammar:
    def test_round_trips_the_module_example(self):
        g = load_grammar(ARITH_TEXT)
        assert structurally_equal(load_grammar(format_grammar(g)), g)

    def test_emits_start_directive_when_needed(self):
        g = load_grammar("@start B ;\nA <- 'a' B ;\nB <- 'b' ;")
        text = format_grammar(g)
        assert text.startswith("@start B ;")
        assert structurally_equal(load_grammar(text), g)

    def test_render_expr_parenthesizes_only_when_needed(self):
        names = ("A",)
        assert render_expr(choice(seq(char("a"), char("b")), char("c")), names) == (
            "'a' 'b' / 'c'"
        )
        assert render_expr(star(choice(char("a"), char("b"))), names) == (
            "('a' / 'b')*"
        )
        assert render_expr(not_(ANY), names) == "!."

    def test_render_expr_is_pinned(self, random_expr):
        # md5 of 2,000 seeded random expressions rendered with and without
        # rule names, recorded from the recursive renderer this one replaced
        rng = random.Random(1919)
        digest = hashlib.md5()
        for _ in range(2000):
            e = random_expr(rng, rng.randint(1, 12), 3, True, [12])
            text = render_expr(e) + "\n" + render_expr(e, ("A", "B", "C")) + "\n"
            digest.update(text.encode())
        assert digest.hexdigest() == "af6f0aa295c91324e5204ab38199ee84"

    def test_render_expr_dispatches_on_isinstance(self):
        class Parts(Seq):
            __slots__ = ()

        assert render_expr(star(Parts((char("a"), ref(0)))), ("A",)) == "('a' A)*"

    def test_formats_special_characters_safely(self):
        g = Grammar((Rule("A", seq(char("'"), lit('say "hi"'), charclass("-]x"))),))
        assert structurally_equal(parse_grammar(format_grammar(g)), g)

    def test_render_expr_escapes_control_characters(self):
        e = seq(lit("a\rb"), char("\x00"), charclass("\x7f\t"))
        assert render_expr(e) == """"a\\rb" '\\x00' [\\t\\x7f]"""
        g = Grammar((Rule("A", e),))
        assert structurally_equal(parse_grammar(format_grammar(g)), g)


# -- property: format then parse is the identity ------------------------

NAMES = ("R0", "R1", "R2")

# with non-printable characters that need \x, \u and \U escapes
plain_char = st.sampled_from("abz+*()[0-9 \t\n'\"\\-\x00\u2028\ufeff\ue000\U0010ffff")


def exprs(depth: int):
    leaf = st.one_of(
        st.just(EMPTY),
        st.just(ANY),
        plain_char.map(char),
        st.text(plain_char, min_size=1, max_size=3).map(lit),
        st.sets(plain_char, min_size=1, max_size=4).map(charclass),
        st.sampled_from(range(len(NAMES))).map(Ref),
    )
    if depth == 0:
        return leaf
    inner = exprs(depth - 1)
    # singleton Seq/Choice wrappers are indistinguishable from their
    # element in the textual form, so generate only proper ones
    return st.one_of(
        leaf,
        st.lists(inner, min_size=2, max_size=3).map(lambda xs: seq(*xs)),
        st.lists(inner, min_size=2, max_size=3).map(lambda xs: choice(*xs)),
        inner.map(star),
        inner.map(plus),
        inner.map(opt),
        inner.map(not_),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(exprs(3), min_size=len(NAMES), max_size=len(NAMES)))
def test_format_parse_round_trip_is_identity(bodies):
    g = Grammar(tuple(Rule(n, b) for n, b in zip(NAMES, bodies)))
    reparsed = parse_grammar(format_grammar(g))
    assert structurally_equal(reparsed, g)


SOUP_TOKENS = ("A", "B", "'x'", '"yz"', "[a-c]", ".", "()", "(", ")", "/", "!", "&", "*", "+", "?")


def test_token_soup_is_pinned():
    # md5 over 20,000 seeded texts of one or two rules whose bodies are
    # random runs of tokens: each text's formatted grammar, or its syntax
    # error's text, recorded from the recursive parser the explicit-stack
    # one replaced (about 15% of the texts are grammars)
    rng = random.Random(30)
    digest = hashlib.md5()
    for _ in range(20_000):
        names = ("A", "B")[: rng.randint(1, 2)]
        text = "".join(
            f"{name} <- "
            + " ".join(rng.choice(SOUP_TOKENS) for _ in range(rng.randint(1, 6)))
            + " ;\n"
            for name in names
        )
        try:
            out = format_grammar(parse_grammar(text))
        except GrammarSyntaxError as exc:
            out = str(exc)
        digest.update(out.encode() + b"\0")
    assert digest.hexdigest() == "0d819b709d4ecfd21eb7c013d1dcc219"
