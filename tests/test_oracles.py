"""Reference oracles: naive backtracker, tabular filler, CFG end-sets."""

from __future__ import annotations

import gc
import itertools
import random
import sys
import tracemalloc

import pytest

from pegkit import (
    ANY,
    EMPTY,
    FAIL,
    LeftRecursion,
    and_,
    char,
    charclass,
    choice,
    format_grammar,
    lit,
    load_grammar,
    make_grammar,
    new_session,
    not_,
    opt,
    parse_complete,
    plus,
    ref,
    seq,
    star,
    validation_errors,
)
from pegkit.bench import make_input
from pegkit.oracles import (
    CallBudgetExceeded,
    SamePositionCycle,
    UnsupportedConstruct,
    cfg_all_ends,
    cfg_end_table,
    check_cfg_compatible,
    naive_parse,
    tabular_parse,
)


def short_texts(alphabet: str, max_len: int) -> list[str]:
    return [
        "".join(t)
        for n in range(max_len + 1)
        for t in itertools.product(alphabet, repeat=n)
    ]


@pytest.fixture
def arith(entries):
    return entries["arith"]


class TestNaiveParse:
    def test_agrees_with_engine_on_samples(self, arith):
        g = arith.grammar
        for text in ("2*2", "2*(3+4)", "1+", "(", "", "7"):
            session = new_session(g, text)
            for rid in range(len(g.rules)):
                for pos in range(len(text) + 1):
                    out = session.apply(rid, pos)
                    peg = None if out is FAIL else out.end
                    assert naive_parse(g, rid, pos, text).outcome == peg

    def test_redundant_reevaluation_is_visible(self, arith):
        # '2*2' makes the choice inside Additive parse Multitive at 0,
        # fail on '+', and re-parse the same Multitive from scratch
        g = arith.grammar
        report = naive_parse(g, g.rule_id("Additive"), 0, "2*2")
        assert report.calls_by_cell[(g.rule_id("Multitive"), 0)] == 2

    def test_calls_by_cell_totals_match_calls(self, arith):
        g = arith.grammar
        report = naive_parse(g, 0, 0, "2*(3+4)")
        assert sum(report.calls_by_cell.values()) == report.calls

    def test_call_budget_enforced(self, entries):
        entry = entries["blowup"]
        with pytest.raises(CallBudgetExceeded):
            naive_parse(
                entry.grammar, 0, 0, make_input("aN_b", 30), call_budget=1000
            )

    @pytest.mark.parametrize("budget", [0, -1])
    def test_call_budget_below_one_is_rejected(self, arith, budget):
        with pytest.raises(ValueError, match="call_budget must be at least 1"):
            naive_parse(arith.grammar, 0, 0, "2", call_budget=budget)

    @pytest.mark.parametrize("limit", [0, -5])
    def test_depth_limit_below_one_is_rejected(self, arith, limit):
        with pytest.raises(
            ValueError, match=f"depth_limit must be at least 1, got {limit}"
        ):
            naive_parse(arith.grammar, 0, 0, "2", depth_limit=limit)

    def test_left_recursion_cut_by_cycle_guard(self, entries):
        g = entries["left_recursive_arith"].grammar
        with pytest.raises(LeftRecursion):
            naive_parse(g, g.start, 0, "1+2")

    def test_max_depth_reflects_nesting(self, arith):
        shallow = naive_parse(arith.grammar, 0, 0, "2").max_depth
        deep = naive_parse(arith.grammar, 0, 0, "((((2))))").max_depth
        assert deep > shallow

    def test_deep_input_runs_in_the_counted_section(self):
        # a few frames per rule call: 400 levels outrun the interpreter's
        # default recursion limit, as they would the engine's
        g = load_grammar("P <- '(' P ')' / '1' ;")
        text = "(" * 400 + "1" + ")" * 400
        before = (sys.getrecursionlimit(), gc.isenabled())
        report = naive_parse(g, g.start, 0, text)
        assert report.outcome == parse_complete(new_session(g, text)).end == 801
        assert report.max_depth == 401
        assert (sys.getrecursionlimit(), gc.isenabled()) == before


class TestTabularParse:
    def test_fills_every_cell_exactly_once(self, arith):
        text = "2*(3+4)"
        tab = tabular_parse(arith.grammar, text)
        cells = len(arith.grammar.rules) * (len(text) + 1)
        assert tab.cells_filled == cells
        assert len(set(tab.fill_order)) == cells

    def test_fill_order_is_right_to_left(self, arith):
        tab = tabular_parse(arith.grammar, "1+2")
        positions = [pos for _, pos in tab.fill_order]
        assert positions == sorted(positions, reverse=True)

    def test_callees_fill_before_callers_within_a_column(self, arith):
        g = arith.grammar
        tab = tabular_parse(g, "1+2")
        order = {cell: i for i, cell in enumerate(tab.fill_order)}
        for pos in range(4):
            assert order[(g.rule_id("Decimal"), pos)] < order[(g.rule_id("Primary"), pos)]
            assert order[(g.rule_id("Primary"), pos)] < order[(g.rule_id("Multitive"), pos)]
            assert order[(g.rule_id("Multitive"), pos)] < order[(g.rule_id("Additive"), pos)]

    def test_verdicts_agree_with_engine(self, arith):
        g = arith.grammar
        for text in ("2*2", "2*(3+4", "", "5+5+5"):
            tab = tabular_parse(g, text)
            session = new_session(g, text)
            for rid in range(len(g.rules)):
                for pos in range(len(text) + 1):
                    out = session.apply(rid, pos)
                    peg = None if out is FAIL else out.end
                    assert tab.verdict(rid, pos) == peg

    def test_star_and_plus_are_rejected(self):
        g = make_grammar([("S", star(char("a")))])
        with pytest.raises(UnsupportedConstruct, match="repetition"):
            tabular_parse(g, "aa")

    def test_opt_and_predicates_are_supported(self):
        g = make_grammar([("S", seq(opt(char("a")), char("b")))])
        tab = tabular_parse(g, "ab")
        assert tab.verdict(0, 0) == 2
        assert tab.verdict(0, 1) == 2

    def test_same_position_cycle_detected(self, entries):
        g = entries["left_recursive_arith"].grammar
        with pytest.raises(SamePositionCycle):
            tabular_parse(g, "1")

    def test_nullable_prefix_cycles_are_cycles_too(self):
        g = make_grammar(
            [("A", choice(seq(opt(char("x")), ref("A"), char("y")), char("z")))]
        )
        with pytest.raises(SamePositionCycle):
            tabular_parse(g, "zy")

    def test_repeated_calls_leave_no_garbage_behind(self, entries):
        # An outer tuple built from a generator, once freed, stayed on
        # CPython's tuple free list: 3000 calls held ~280 KB until a
        # full collection.  Built from a list they hold ~10 KB.
        g = entries["composition_lvalue"].grammar
        texts = ("a=a", "a[a]=a+a", "(a)=a==a", "a!=a")
        tabular_parse(g, "a=a")  # prepare the grammar outside the trace
        gc.collect()  # also empties the free lists
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(3000):
                tabular_parse(g, texts[i % len(texts)])
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


class TestCfgOracle:
    def test_collects_all_derivation_ends(self, entries):
        g = entries["peg_limitation"].grammar
        assert cfg_all_ends(g, 0, 0, "xxxxx") == frozenset({1, 3, 5})

    def test_peg_commits_where_cfg_branches(self, entries):
        entry = entries["peg_limitation"]
        out = new_session(entry.grammar, "xxxxx").apply(0, 0)
        assert out.end == 3  # greedy first alternative stops short

    def test_every_engine_success_is_a_cfg_derivation(self, arith):
        g = arith.grammar
        for text in ("2*2", "1+2*3", "(4)", "12"):
            table = cfg_end_table(g, text)
            session = new_session(g, text)
            for rid in range(len(g.rules)):
                for pos in range(len(text) + 1):
                    out = session.apply(rid, pos)
                    if out is not FAIL:
                        assert out.end in table[(rid, pos)]

    def test_left_recursive_grammars_converge(self, entries):
        g = entries["left_recursive_arith"].grammar
        ends = cfg_all_ends(g, g.rule_id("Additive"), 0, "1+2+3")
        assert ends == frozenset({1, 3, 5})

    def test_unsupported_constructs_rejected(self):
        for body in (star(char("a")), opt(char("a")), charclass("ab")):
            g = make_grammar([("S", seq(body, char("c")))])
            with pytest.raises(UnsupportedConstruct):
                check_cfg_compatible(g)

    def test_compatible_fragment_accepted(self, entries):
        check_cfg_compatible(entries["arith"].grammar)
        check_cfg_compatible(entries["blowup"].grammar)

    def test_empty_alternatives_contribute_zero_width_ends(self):
        g = make_grammar([("S", choice(seq(char("a"), ref("S")), EMPTY))])
        assert cfg_all_ends(g, 0, 0, "aaa") == frozenset({0, 1, 2, 3})


# Recorded on the isinstance-ladder oracles: per catalog grammar, the
# digests of every oracle output (see conftest.oracles_digest) on inputs
# up to length 3 from the exhaustive alphabet, and on inputs up to
# length 2 plus 12 random ones of length 4 to 9 with the naive oracle
# also run under each of LIMITS.
LIMITS = (
    {"call_budget": 1},
    {"call_budget": 4},
    {"depth_limit": 1},
    {"call_budget": 9, "depth_limit": 2},
)
PINNED = {
    "arith": (
        "1060b6d4b37fbf186b5a83cb1397bf0b",
        "5f1cdebdbb234e610abde8439ed94b6e",
    ),
    "arith_left_assoc": (
        "2c93cdd226f70c37699ad81d9f7fd79d",
        "31d5bc48b1dd0243b631119bb46e26c8",
    ),
    "arith_lexed": (
        "8466fa711051640b97ffdb97c930d366",
        "2931319467abe731eae0fe1e4627c062",
    ),
    "blowup": (
        "11fb69b58f9b1920eea4b244203aaf56",
        "b3c0770b26a5e93b5d15853cd10ccaeb",
    ),
    "composition_assign": (
        "c9473fd5026ad27b07000c259c7360d3",
        "3c747e5200cc7fb00a3bc31b2fb165ca",
    ),
    "composition_lvalue": (
        "47c0747ca297deab646773652f993447",
        "2d881ecaa72f9a163477199cf62e8d3a",
    ),
    "left_recursive_arith": (
        "cbfe1ba2f8188a4f0df87f3f89d20db1",
        "5c580a1e64ffb1809f1f69f1ecd828a5",
    ),
    "lookahead_ab": (
        "677dc0181d9c14110cbf168ad8ae7a22",
        "794244784eb489c9dddb82b6788ce4ac",
    ),
    "peg_limitation": (
        "36717674d3389baac17320d0590a18e9",
        "42104bd4feb97d8b0f48e38ffbcadadb",
    ),
}


def test_oracle_outputs_are_pinned(entries, oracles_digest):
    rng = random.Random(0)
    got = {}
    for name in sorted(entries):
        entry = entries[name]
        randoms = [
            "".join(rng.choices(entry.alphabet, k=rng.randint(4, 9)))
            for _ in range(12)
        ]
        got[name] = (
            oracles_digest(
                entry.grammar, short_texts(entry.exhaustive_alphabet, 3), ()
            ),
            oracles_digest(
                entry.grammar,
                short_texts(entry.exhaustive_alphabet, 2) + randoms,
                LIMITS,
            ),
        )
    assert got == PINNED


# -- seeded random grammars: engine, naive and tabular verdicts agree ---


def random_expr(rng: random.Random, depth: int, nrules: int, repeat: bool, budget):
    """A random expression nested at most ``depth`` deep, with Star and
    Plus only if ``repeat``; ``budget`` (a one-item list) caps the
    composite nodes of one rule body."""
    if depth == 0 or budget[0] <= 0 or rng.random() < 0.3:
        return rng.choice([
            EMPTY, ANY, char("a"), char("b"), charclass("ab"), lit("ab"),
            lit(""), ref(rng.randrange(nrules)), ref(rng.randrange(nrules)),
        ])
    budget[0] -= 1
    kinds = ["seq", "choice", "opt", "and", "not"] + ["star", "plus"] * repeat
    kind = rng.choice(kinds)
    if kind in ("seq", "choice"):
        parts = [
            random_expr(rng, depth - 1, nrules, repeat, budget)
            for _ in range(rng.randint(2, 3))
        ]
        return seq(*parts) if kind == "seq" else choice(*parts)
    body = random_expr(rng, depth - 1, nrules, repeat, budget)
    return {"opt": opt, "and": and_, "not": not_, "star": star, "plus": plus}[kind](body)


def engine_verdict(session, rid: int, pos: int):
    try:
        out = session.apply(rid, pos)
    except LeftRecursion:
        return "left-recursion"
    return None if out is FAIL else out.end


def naive_verdict(g, rid: int, pos: int, text: str):
    try:
        return naive_parse(g, rid, pos, text).outcome
    except LeftRecursion:
        return "left-recursion"


def test_random_grammars_agree_three_ways():
    # 1-4 rules nested up to 12 deep, with predicates, and repetitions in
    # every other grammar, since the tabular oracle refuses Star and Plus
    rng = random.Random(20061)
    valid = tabulated = cells = cycles = 0
    for index in range(600):
        nrules, repeat = rng.randint(1, 4), index % 2 == 0
        g = make_grammar([
            (f"R{i}", random_expr(rng, rng.randint(1, 12), nrules, repeat, [12]))
            for i in range(nrules)
        ])
        if validation_errors(g):
            continue
        valid += 1
        try:
            tabular_parse(g, "")
            tabulated += 1
            tabular = True
        except (UnsupportedConstruct, SamePositionCycle):
            tabular = False
        for _ in range(3):
            text = "".join(rng.choices("ab", k=rng.randint(0, 6)))
            session = new_session(g, text)
            tab = tabular_parse(g, text) if tabular else None
            for rid in range(nrules):
                for pos in range(len(text) + 1):
                    peg = engine_verdict(session, rid, pos)
                    if peg == "left-recursion":
                        cycles += 1
                        session = new_session(g, text)  # the old one is spent
                    nai = naive_verdict(g, rid, pos, text)
                    tabv = peg if tab is None else tab.verdict(rid, pos)
                    assert peg == nai == tabv, (
                        format_grammar(g), text, rid, pos, peg, nai, tabv
                    )
                    cells += 1
    # seed 20061 gives 424 valid grammars, 245 of them tabulated, and
    # 12,492 cells, 1,925 of them left-recursive
    assert valid > 350 and tabulated > 200 and cells > 10_000 and cycles > 1000
