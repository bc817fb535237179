"""Reference oracles: naive backtracker, tabular filler, CFG end-sets."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import random
import sys
import threading
import time
import tracemalloc
import types
import weakref

import pytest

from pegkit import (
    EMPTY,
    FAIL,
    Grammar,
    LeftRecursion,
    Rule,
    char,
    charclass,
    choice,
    format_grammar,
    grammar_text,
    lit,
    load_grammar,
    make_grammar,
    new_session,
    opt,
    parse_complete,
    plus,
    ref,
    registry,
    seq,
    star,
    validation_errors,
)
from pegkit import engine, oracles
from pegkit.bench import make_input
from pegkit.engine import DepthExceeded
from pegkit.grammar import Char, Choice, Empty, Literal, Plus, Ref, Seq, prepared
from pegkit.oracles import (
    _callee_first,
    CallBudgetExceeded,
    NaiveReport,
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

    def test_report_is_an_ordinary_frozen_report(self, arith):
        report = naive_parse(arith.grammar, 0, 0, "2*2")
        assert type(report) is NaiveReport
        built = NaiveReport(*(getattr(report, f.name) for f in dataclasses.fields(report)))
        assert report == built
        assert repr(report) == repr(built)
        for f in dataclasses.fields(report):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, f.name, None)

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

    def test_memory_grows_with_cells_not_calls(self, entries):
        # a^16 b makes 81,919 calls on 17 cells; a record kept per call
        # would take over 5 MB
        g = entries["blowup"].grammar
        tracemalloc.start()
        try:
            report = naive_parse(g, 0, 0, make_input("aN_b", 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.calls, len(report.calls_by_cell)) == (81_919, 17)
        assert peak < 64 * 1024

    def test_memory_per_cell_is_bounded(self, arith):
        # 6,011 calls on 4,004 cells.  A run keeps, per cell, a record of
        # three (~80 bytes) under a (rule, pos) key (~64 bytes), and the
        # report copies its counts and ends into two dicts of its own:
        # ~280 bytes at the peak
        g = arith.grammar
        text = "1+" * 1000 + "1"
        naive_parse(g, g.start, 0, text)  # compile the rules outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            report = naive_parse(g, g.start, 0, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.calls, len(report.calls_by_cell)) == (6_011, 4_004)
        assert peak < 320 * len(report.calls_by_cell)

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
        # one frame per rule call: 1,200 levels outrun the interpreter's
        # default recursion limit, as they would the engine's
        g = load_grammar("P <- '(' P ')' / '1' ;")
        text = "(" * 1_200 + "1" + ")" * 1_200
        before = (sys.getrecursionlimit(), gc.isenabled())
        report = naive_parse(g, g.start, 0, text)
        assert report.outcome == parse_complete(new_session(g, text)).end == 2_401
        assert report.max_depth == 1_201
        assert (sys.getrecursionlimit(), gc.isenabled()) == before

    def test_compiled_rules_are_freed_with_their_grammar(self):
        def functions(code):
            # every generated function: the rule functions and the chunks
            # that their namespaces hold, and theirs
            seen, stack = [], list(code)
            while stack:
                f = stack.pop()
                seen.append(f)
                stack += [v for v in f.__globals__.values() if type(v) is types.FunctionType]
            return seen

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for source, text, end, chunks in (
                (grammar_text("composition_lvalue"), "a[a]=(a)", 8, False),
                ("S <- " + "(" * 60 + "'a' 'b'?" + ")+" * 60 + " ;", "aba", 3, True),
            ):
                g = load_grammar(source)
                assert naive_parse(g, g.start, 0, text).outcome == end
                refs = [weakref.ref(f) for f in functions(prepared(g).naive_code)]
                assert (len(refs) > len(g.rules)) == chunks
                del g
                # freed by reference counting: no function is reachable
                # from its own globals
                assert [r for r in refs if r() is not None] == []
        finally:
            if was_enabled:
                gc.enable()

    def test_threads_running_at_once_get_the_serial_reports(self):
        # more threads than cores, switching often, on one grammar object
        # that none has run before: they compile its rules and enter and
        # leave the counted deep section concurrently
        g = load_grammar(grammar_text("composition_lvalue"))
        cells = [
            (rid, pos, text)
            for text in ("a[a]=a", "(a)=a==a", "a[(a[a])]=a!=a", "((a)")
            for rid in range(len(g.rules))
            for pos in range(len(text) + 1)
        ]
        serial = [
            naive_parse(load_grammar(grammar_text("composition_lvalue")), *cell)
            for cell in cells
        ]
        start = threading.Barrier(4)
        got = [None] * 4

        def run(i: int) -> None:
            start.wait()
            got[i] = [naive_parse(g, *cell) for cell in cells]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [serial] * 4

    def test_deep_grammar_compiles_at_the_default_recursion_limit(self):
        # the rule functions are composed from an explicit stack; the run
        # recurses once per level, in the counted deep section
        e = char("y")
        for _ in range(20_000):
            e = seq(char("x"), e)
        g = make_grammar([("S", e)])
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            assert naive_parse(g, 0, 0, "xy").outcome is None
            assert prepared(g).naive_code is not None
        finally:
            sys.setrecursionlimit(before)
        report = naive_parse(g, 0, 0, "x" * 20_000 + "y")
        assert (report.outcome, report.calls, report.max_depth) == (20_001, 1, 1)


def spy_on_compile(monkeypatch) -> list[str]:
    """The sources that the naive oracle compiles from now on."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(oracles, "compile", spy, raising=False)
    return sources


def deepest_indentation(sources: list[str]) -> int:
    lines = [line for source in sources for line in source.splitlines()]
    return max((len(line) - len(line.lstrip(" "))) // 4 for line in lines)


class TestNaiveCode:
    """The generated functions of the naive oracle's rule bodies."""

    @pytest.mark.parametrize("name", ["plus30", "plus120", "not301", "choice6"])
    def test_deep_shapes_agree_with_the_engine_within_sixteen_levels(
        self, name, monkeypatch
    ):
        from test_generated import DEEP_GRAMMARS  # which imports this module

        sources = spy_on_compile(monkeypatch)
        g = load_grammar(DEEP_GRAMMARS[name])
        for text in ("", "a", "b", "ab", "aba", "abab", "abz", "xz", "xabz", "bab"):
            session = new_session(g, text)
            for pos in range(len(text) + 1):
                out = session.apply(0, pos)
                peg = None if out is FAIL else out.end
                assert naive_parse(g, 0, pos, text).outcome == peg, (text, pos)
        assert deepest_indentation(sources) <= 16
        if name in ("plus30", "plus120", "not301"):
            assert len(sources) > 1  # outlined into chunks

    def test_a_ten_thousand_level_chain_is_written_at_the_default_recursion_limit(
        self, monkeypatch
    ):
        sources = spy_on_compile(monkeypatch)
        e = Char("a")
        for _ in range(10_000):
            e = Plus(Seq((Char("x"), e)))
        g = Grammar((Rule("S", e),))
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            assert naive_parse(g, 0, 0, "xx").outcome is None
        finally:
            sys.setrecursionlimit(before)
        # one function for every few levels, none deeper than 16
        assert 10_000 // 15 < len(sources) < 10_000 // 4
        assert deepest_indentation(sources) <= 16
        report = naive_parse(g, 0, 0, "x" * 10_000 + "a")
        assert (report.outcome, report.calls, report.max_depth) == (10_001, 1, 1)

    def test_catalog_naive_source_is_pinned(self, monkeypatch):
        # The code that every check runs.  A change to it should be
        # deliberate: re-record the digest and say so in CHANGES.md.
        sources = spy_on_compile(monkeypatch)
        for name in registry():
            g = load_grammar(grammar_text(name))  # a fresh object, written now
            try:
                naive_parse(g, g.start, 0, "")
            except LeftRecursion:
                pass
        # one compile per rule of the nine grammars
        assert len(sources) == 49
        digest = hashlib.md5("".join(sources).encode()).hexdigest()
        assert digest == "3b425b1fe68e2178d4964a6ea0c534b0"


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

    def test_schedule_is_linear_in_nesting(self):
        # each Seq part's nullability walked the part's subtree again: the
        # first call took ~1 s at this depth
        e = char("y")
        for _ in range(600):
            e = seq(opt(char("x")), e)
        g = Grammar((Rule("S", e),))
        start = time.process_time()
        tab = tabular_parse(g, "xxy")
        assert time.process_time() - start < 0.25
        assert [tab.verdict(0, p) for p in range(4)] == [3, 3, 3, None]

    @pytest.mark.parametrize("shape", ["deep", "long"])
    def test_deep_and_long_grammars_at_the_default_recursion_limit(self, shape):
        # 2,000 nesting levels, or a chain of 3,000 rules each applying
        # the next at the same position: the schedule once recursed on both
        if shape == "deep":
            e = char("y")
            for _ in range(2_000):
                e = seq(opt(char("x")), e)
            g, text = make_grammar([("S", e)]), "xxyxy"
        else:
            rules = [(f"R{i}", choice(ref(f"R{i + 1}"), char("b"))) for i in range(2_999)]
            g, text = make_grammar(rules + [("R2999", char("a"))]), "abab"
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            tab = tabular_parse(g, text)
        finally:
            sys.setrecursionlimit(before)
        s = new_session(g, text)
        for rid in range(len(g.rules)):
            for pos in range(len(text) + 1):
                out = s.apply(rid, pos)
                assert tab.verdict(rid, pos) == (None if out is FAIL else out.end)

    def test_frame_exhaustion_is_a_depth_error(self, monkeypatch):
        monkeypatch.setattr(engine, "DEEP_RECURSION_LIMIT", 5_000)
        e = char("y")
        for _ in range(20_000):
            e = seq(opt(char("x")), e)
        g = make_grammar([("S", e)])
        before = sys.getrecursionlimit()
        with pytest.raises(DepthExceeded, match="frame budget"):
            tabular_parse(g, "xy")
        assert sys.getrecursionlimit() == before

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

    @pytest.mark.parametrize(
        "wrap, text, ends",
        [
            (lambda e: seq(char("x"), e), "x" * 2_000 + "y", {2_001}),
            (lambda e: choice(char("x"), e), "y", {1}),
        ],
        ids=["seq", "choice"],
    )
    def test_deep_chains_at_the_default_recursion_limit(self, wrap, text, ends):
        # the walk recurses once per nesting level: outside the counted
        # deep section 2,000 levels raised RecursionError
        e = char("y")
        for _ in range(2_000):
            e = wrap(e)
        g = make_grammar([("S", e)])
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            table = cfg_end_table(g, text)
        finally:
            sys.setrecursionlimit(before)
        assert table[(0, 0)] == ends


def cfg_expr(rng: random.Random, depth: int, nrules: int):
    """A random expression of the CFG oracle's fragment."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([
            EMPTY, char("a"), char("b"), lit("ab"), lit(""),
            ref(rng.randrange(nrules)), ref(rng.randrange(nrules)),
        ])
    parts = [cfg_expr(rng, depth - 1, nrules) for _ in range(rng.randint(2, 3))]
    return rng.choice([seq, choice])(*parts)


def kleene_table(g, text: str) -> dict:
    """The CFG end table by Kleene iteration over the whole table, rules
    in id order, until nothing changes."""
    n = len(text)
    table = {(r, p): set() for r in range(len(g.rules)) for p in range(n + 1)}

    def ends(e, p: int) -> set[int]:
        if isinstance(e, Ref):
            return table[(e.rule, p)]
        if isinstance(e, Seq):
            front = {p}
            for part in e.parts:
                front = set().union(*[ends(part, q) for q in front])
            return front
        if isinstance(e, Choice):
            return set().union(*[ends(alt, p) for alt in e.alts])
        if isinstance(e, Char):
            return {p + 1} if text[p:p + 1] == e.char else set()
        if isinstance(e, Literal):
            return {p + len(e.text)} if text.startswith(e.text, p) else set()
        assert isinstance(e, Empty)
        return {p}

    changed = True
    while changed:
        changed = False
        for rid, rule in enumerate(g.rules):
            for p in range(n + 1):
                new = ends(rule.body, p)
                if not new <= table[(rid, p)]:
                    table[(rid, p)] |= new
                    changed = True
    return {cell: frozenset(v) for cell, v in table.items()}


# A cell outside the matrix: each oracle refuses it as the engine does.
OUTSIDE = [
    (0, -1, "position -1 is outside the input (0..2)"),
    (0, 5, "position 5 is outside the input (0..2)"),
    (7, 0, "rule 7 is outside the grammar (0..0)"),
    (-1, -1, "rule -1 is outside the grammar (0..0)"),
]


@pytest.fixture
def b_or_empty():
    g = load_grammar("S <- 'b' / () ;")
    for rule, pos, message in OUTSIDE:
        with pytest.raises(ValueError) as exc:
            new_session(g, "ab").apply(rule, pos)
        assert str(exc.value) == message
    return g


@pytest.mark.parametrize("rule, pos, message", OUTSIDE)
def test_naive_parse_refuses_a_cell_outside_the_matrix(b_or_empty, rule, pos, message):
    with pytest.raises(ValueError) as exc:
        naive_parse(b_or_empty, rule, pos, "ab")
    assert str(exc.value) == message


@pytest.mark.parametrize("rule, pos, message", OUTSIDE)
def test_tabular_verdict_refuses_a_cell_outside_the_matrix(b_or_empty, rule, pos, message):
    tab = tabular_parse(b_or_empty, "ab")
    with pytest.raises(ValueError) as exc:
        tab.verdict(rule, pos)
    assert str(exc.value) == message
    assert [tab.verdict(0, p) for p in range(3)] == [0, 2, 2]


@pytest.mark.parametrize("rule, pos, message", OUTSIDE)
def test_cfg_all_ends_refuses_a_cell_outside_the_matrix(b_or_empty, rule, pos, message):
    with pytest.raises(ValueError) as exc:
        cfg_all_ends(b_or_empty, rule, pos, "ab")
    assert str(exc.value) == message


def test_cfg_tables_are_those_of_plain_kleene_iteration():
    # a column is filled callee-first, in one pass when no rule can call
    # itself at the same position
    rng = random.Random(2008)
    grammars = cyclic = 0
    for _ in range(300):
        nrules = rng.randint(1, 4)
        g = make_grammar(
            [(f"R{i}", cfg_expr(rng, rng.randint(1, 4), nrules)) for i in range(nrules)]
        )
        grammars += 1
        cyclic += bool(_callee_first(g)[1])
        for text in ("", "ab", "aab", "abab", "bba"):
            assert cfg_end_table(g, text) == kleene_table(g, text), (format_grammar(g), text)
    # seed 2008 gives 300 grammars, 171 of them with a same-position cycle
    assert grammars == 300 and 50 < cyclic < 250


def test_callee_first_order_serves_both_column_oracles(entries):
    for name, entry in entries.items():
        g = entry.grammar
        order, cycle = _callee_first(g)
        assert sorted(order) == list(range(len(g.rules))), name
        try:
            fill = tabular_parse(g, "").fill_order
        except SamePositionCycle as exc:
            assert cycle == exc.cycle and "left_recursive" in entry.traits, name
        except UnsupportedConstruct:
            pass
        else:
            assert cycle == () and [r for r, _ in fill] == list(order), name


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


def naive_ends_digest(grammar, texts) -> str:
    """md5 of every naive run of ``grammar`` on ``texts``, each cell
    run without limits and under each of LIMITS: the outcome,
    ``max_depth`` and sorted ``ends_by_cell``, or the error with the
    LeftRecursion cycle."""
    h = hashlib.md5()
    for text in texts:
        for rule in range(len(grammar.rules)):
            for pos in range(len(text) + 1):
                for lim in ({},) + LIMITS:
                    try:
                        r = naive_parse(grammar, rule, pos, text, **lim)
                    except (CallBudgetExceeded, DepthExceeded, LeftRecursion) as exc:
                        out = f"{type(exc).__name__}: {exc} {getattr(exc, 'cycle', None)}"
                    else:
                        out = f"{r.outcome} {r.max_depth} {sorted(r.ends_by_cell.items())}"
                    h.update(f"{text!r} {rule} {pos} {lim} {out}\n".encode())
    return h.hexdigest()


# Recorded on the oracle that kept a run's call counts, verdicts and
# active cells in three dicts: per catalog grammar, naive_ends_digest on
# the texts of test_oracle_outputs_are_pinned.
ENDS_PINNED = {
    "arith": "151da4609dcd74cbd01cd09a5a49772a",
    "arith_left_assoc": "0dec15701bd0eb4f9528795ae229251c",
    "arith_lexed": "b6e52712d50b010fba0a3415cdaf62e7",
    "blowup": "fd9b046b6181e291ae6b46d3bd458048",
    "composition_assign": "a990baf992ba881bd99b1371b6dc1128",
    "composition_lvalue": "dbec47a697e9407c611676bb46b4c0b4",
    "left_recursive_arith": "701d005246006acb24ff7c7111c57b25",
    "lookahead_ab": "b392a8fbf9590c729227ffb9c41307d9",
    "peg_limitation": "cfc0d0a07cbbec1a6232889d1c51e45a",
}


def test_naive_ends_depths_and_cycles_are_pinned(entries):
    rng = random.Random(0)
    got = {}
    for name in sorted(entries):
        entry = entries[name]
        randoms = [
            "".join(rng.choices(entry.alphabet, k=rng.randint(4, 9)))
            for _ in range(12)
        ]
        got[name] = naive_ends_digest(
            entry.grammar, short_texts(entry.exhaustive_alphabet, 3) + randoms
        )
    assert got == ENDS_PINNED


# -- seeded random grammars: engine, naive and tabular verdicts agree ---


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


def random_grammars(random_expr):
    """The valid grammars drawn from seed 20061, each with three inputs:
    1-4 rules nested up to 12 deep, with predicates, and repetitions in
    every other grammar, since the tabular oracle refuses Star and Plus."""
    rng = random.Random(20061)
    for index in range(600):
        nrules, repeat = rng.randint(1, 4), index % 2 == 0
        g = make_grammar([
            (f"R{i}", random_expr(rng, rng.randint(1, 12), nrules, repeat, [12]))
            for i in range(nrules)
        ])
        if validation_errors(g):
            continue
        yield g, ["".join(rng.choices("ab", k=rng.randint(0, 6))) for _ in range(3)]


def test_random_grammars_agree_three_ways(random_expr):
    valid = tabulated = cells = cycles = 0
    for g, texts in random_grammars(random_expr):
        nrules = len(g.rules)
        valid += 1
        try:
            tabular_parse(g, "")
            tabulated += 1
            tabular = True
        except (UnsupportedConstruct, SamePositionCycle):
            tabular = False
        for text in texts:
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


def test_recorded_verdicts_are_those_of_runs_at_their_cells(random_expr):
    # every call a naive run completed gives the outcome that a run
    # started at its cell, under the same limits, gives
    completed = recorded = 0
    for limits in ({}, {"call_budget": 7}, {"depth_limit": 3}):
        for g, texts in random_grammars(random_expr):
            for text in texts:
                for rid in range(len(g.rules)):
                    for pos in range(len(text) + 1):
                        try:
                            report = naive_parse(g, rid, pos, text, **limits)
                        except (LeftRecursion, CallBudgetExceeded, DepthExceeded):
                            continue
                        completed += 1
                        # every call of a returned report returned, and both
                        # dicts list the cells in the order of their first calls
                        assert list(report.ends_by_cell) == list(report.calls_by_cell)
                        assert report.ends_by_cell[(rid, pos)] == report.outcome
                        for (r, p), end in report.ends_by_cell.items():
                            recorded += 1
                            again = naive_parse(g, r, p, text, **limits).outcome
                            assert again == end, (format_grammar(g), text, r, p, limits)
    # 31,631 of the 37,476 runs complete, recording 38,099 cells
    assert completed > 25_000 and recorded > 30_000
