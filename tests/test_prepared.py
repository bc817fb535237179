"""Per-grammar preparation: each Grammar object is validated once, and
every entry point refuses a grammar it cannot take on every call."""

from __future__ import annotations

from collections import Counter

import pytest

import pegkit.grammar
from pegkit import (
    InvalidGrammarError,
    ParseSession,
    Char,
    SamePositionCycle,
    UnsupportedConstruct,
    cfg_end_table,
    char,
    check_cfg_compatible,
    choice,
    grammar_text,
    load_grammar,
    make_grammar,
    naive_parse,
    new_session,
    opt,
    ref,
    registry,
    seq,
    star,
    tabular_parse,
)
from pegkit.diffcheck import CheckConfig, run_check


@pytest.fixture
def validations(monkeypatch):
    """``validate`` calls so far, per Grammar object (keyed by id)."""
    counts: Counter[int] = Counter()
    real = pegkit.grammar.validate

    def counting(g):
        counts[id(g)] += 1
        return real(g)

    monkeypatch.setattr(pegkit.grammar, "validate", counting)
    return counts


def test_run_check_validates_each_grammar_once(validations):
    catalog = list(registry().values())  # fresh Grammar objects
    validations.clear()
    for cfg in (
        CheckConfig(max_len=2, mode="exhaustive"),
        CheckConfig(max_len=4, mode="random", trials=10),
    ):
        assert run_check(catalog, cfg).ok
    assert validations == Counter({id(e.grammar): 1 for e in catalog})


def test_sessions_share_one_validation(validations):
    g = registry()["arith"].grammar
    validations.clear()
    for _ in range(100):
        new_session(g, "1+2")
    assert validations == Counter({id(g): 1})


def test_load_grammar_validation_is_kept(validations):
    g = load_grammar(grammar_text("arith"))
    new_session(g, "1+2")
    naive_parse(g, g.start, 0, "1+2")
    tabular_parse(g, "1+2")
    assert validations == Counter({id(g): 1})


class MyChar(Char):
    """Not one of the expression node types, though it behaves as one."""


INVALID = {
    "UnknownNode": lambda: make_grammar([("S", seq(MyChar("a"), char("b")))]),
    "NullableRepetition": lambda: make_grammar([("S", star(opt(char("a"))))]),
    "UnknownRef": lambda: make_grammar([("S", seq(char("a"), ref("Missing")))]),
}

ENTRY_POINTS = {
    "ParseSession": lambda g: ParseSession(g, "a"),
    "naive_parse": lambda g: naive_parse(g, 0, 0, "a"),
    "tabular_parse": lambda g: tabular_parse(g, "a"),
    "cfg_end_table": lambda g: cfg_end_table(g, "a"),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("code", sorted(INVALID))
def test_invalid_grammar_refused_on_every_call(code, entry_point):
    g = INVALID[code]()
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidGrammarError, match=code) as info:
            ENTRY_POINTS[entry_point](g)
        assert [i.code for i in info.value.issues] == [code]
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "grammar, call, exc_type",
    [
        (
            lambda: make_grammar([("S", star(char("a")))]),
            lambda g: tabular_parse(g, "a"),
            UnsupportedConstruct,
        ),
        (
            lambda: make_grammar([("S", choice(ref("T"), char("a"))), ("T", ref("S"))]),
            lambda g: tabular_parse(g, "a"),
            SamePositionCycle,
        ),
        (
            lambda: make_grammar([("S", opt(char("a")))]),
            check_cfg_compatible,
            UnsupportedConstruct,
        ),
    ],
)
def test_oracle_refusals_repeat_with_fresh_exceptions(grammar, call, exc_type):
    g = grammar()
    raised = []
    for _ in range(2):
        with pytest.raises(exc_type) as info:
            call(g)
        raised.append(info.value)
    assert str(raised[0]) == str(raised[1])
    assert raised[0] is not raised[1]
