"""Textual grammar notation: loader, formatter, round-trips."""

from __future__ import annotations

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
    Literal,
    Ref,
    Rule,
    char,
    charclass,
    choice,
    format_grammar,
    lit,
    load_grammar,
    not_,
    opt,
    parse_grammar,
    plus,
    ref,
    render_expr,
    seq,
    star,
)
from pegkit.notation import GrammarSyntaxError, GrammarValidationError

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
        with pytest.raises(GrammarValidationError, match="NullableRepetition"):
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

    def test_class_ranges_and_singletons(self):
        g = parse_grammar("A <- [a-c xz] ;")
        assert g.rules[0].body == charclass("abc xz")


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

    def test_formats_special_characters_safely(self):
        g = Grammar((Rule("A", seq(char("'"), lit('say "hi"'), charclass("-]x"))),))
        assert structurally_equal(parse_grammar(format_grammar(g)), g)


# -- property: format then parse is the identity ------------------------

NAMES = ("R0", "R1", "R2")

plain_char = st.sampled_from("abz+*()[0-9 \t\n'\"\\-")


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
