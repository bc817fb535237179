"""Acceptance suite: one test per externally guaranteed property.

Each test pins a user-visible promise of the toolkit — reference parse
values, memo-size bounds, backend agreement, scaling shape, error
structure, and report determinism — and asserts its own wall-clock
budget where one is part of the promise.  Budgets are generous for CI
noise; the functional tolerances are exact unless a residual bound is
stated in the test.
"""

from __future__ import annotations

import itertools
import random
import time
from hashlib import md5

import pytest

from pegkit import (
    FAIL,
    LeftRecursion,
    ParseTreeNode,
    SamePositionCycle,
    and_,
    cfg_all_ends,
    char,
    charclass,
    choice,
    make_grammar,
    naive_parse,
    new_session,
    not_,
    parse_complete,
    ParseFailed,
    ref,
    seq,
    star,
    stats,
    tabular_parse,
)
from pegkit.bench import CSV_HEADER, affine_fit, run_bench, to_csv
from pegkit.cli import EXIT_OK, main
from pegkit.diffcheck import CheckConfig, run_check

SCALING_SIZES = [1000, 2000, 4000, 8000, 16000, 32000, 64000]


@pytest.fixture(scope="module")
def scaling_run(entries):
    """One shared packrat scaling sweep on 1K..64K inputs.

    Two tests consume it (cell-count affinity and memo-byte reporting);
    running the sweep once keeps the combined cost inside each test's
    budget, and each test charges the shared elapsed time against its
    own budget.
    """
    lexed = entries["arith_lexed"]
    t0 = time.perf_counter()
    records = run_bench(
        lexed.grammar, "arith_lexed", "repeat-1+1", SCALING_SIZES, ["packrat"]
    )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_reference_parse_memo_cells_and_value(entries):
    """Parsing "2*(3+4)" leaves the documented intermediate results in
    the memo matrix: the additive parse starting at the "3" covers
    "3+4" with value 7 (remainder starts at the ")"), the primary parse
    starting at the "(" covers "(3+4)" with value 7 (remainder is end
    of input), and the whole input evaluates to 14.  Exact, under 1 s.
    """
    t0 = time.perf_counter()
    arith = entries["arith"]
    text = "2*(3+4)"
    session = new_session(arith.grammar, text, evaluator=arith.evaluator)
    node = parse_complete(session)
    assert arith.evaluator(node, text) == 14

    additive = session.matrix[arith.grammar.rule_id("Additive")][3]
    assert isinstance(additive, ParseTreeNode)
    assert additive.end == 6
    assert arith.evaluator(additive, text) == 7

    primary = session.matrix[arith.grammar.rule_id("Primary")][2]
    assert isinstance(primary, ParseTreeNode)
    assert primary.end == 7
    assert arith.evaluator(primary, text) == 7
    assert time.perf_counter() - t0 < 1.0


def test_memo_cell_count_bounded_by_five_per_position(entries):
    """The four-rule arithmetic grammar never evaluates more than
    5*(n+1) memo cells on an input of length n: one cell per position
    for each rule row plus the shared character row.

    The sweep is exhaustive over every string of length <= 6 built from
    {2, 7, +, *, (, )}.  All ten digits are alternatives of the same
    single-character rule, so swapping one digit for another cannot
    change which cells are evaluated -- two digit representatives
    therefore cover the full digit/operator alphabet up to digit
    renaming (56 K folded strings stand in for the 8.1 M raw product).
    That folding claim is itself checked: random full-alphabet strings
    must report cell-for-cell identical counts after every digit is
    mapped to "2".  Finally 1,000 random strings of length <= 200 over
    the full alphabet exercise the bound at scale.  Exact, under 30 s.
    """
    t0 = time.perf_counter()
    arith = entries["arith"]
    grammar = arith.grammar
    rule_rows = len(grammar.rules)
    assert rule_rows == 4

    def measure(text):
        session = new_session(grammar, text)
        try:
            parse_complete(session)
            accepted = True
        except ParseFailed:
            accepted = False
        return accepted, stats(session)

    checked = 0
    for length in range(0, 7):
        for chars in itertools.product("27+*()", repeat=length):
            text = "".join(chars)
            _, st = measure(text)
            limit = 5 * (length + 1)
            assert st.total_cells <= limit, (text, st.total_cells, limit)
            assert st.cells_evaluated <= rule_rows * (length + 1), text
            checked += 1
    assert checked == sum(6**k for k in range(7))  # 55,987 inputs

    digit_fold = str.maketrans("0123456789", "2" * 10)
    rng = random.Random(20260825)
    for _ in range(200):
        text = "".join(
            rng.choice("0123456789+*()") for _ in range(rng.randint(0, 6))
        )
        accepted, st = measure(text)
        folded_accepted, folded_st = measure(text.translate(digit_fold))
        assert accepted == folded_accepted, text
        assert (st.cells_evaluated, st.char_cells_evaluated) == (
            folded_st.cells_evaluated,
            folded_st.char_cells_evaluated,
        ), text

    for _ in range(1000):
        text = "".join(
            rng.choice("0123456789+*()") for _ in range(rng.randint(0, 200))
        )
        _, st = measure(text)
        assert st.total_cells <= 5 * (len(text) + 1), text
    assert time.perf_counter() - t0 < 30.0


def test_no_memo_cell_is_evaluated_twice(entries, counting_session_cls):
    """An instrumented session counts how often each (rule, position)
    cell transitions out of the unevaluated state.  Across a corpus
    spanning every non-left-recursive catalog grammar, no cell is
    evaluated more than once, and the per-cell tallies sum exactly to
    the engine's own cells_evaluated counter.  Exact.
    """
    rng = random.Random(9)
    cells_seen = 0
    for entry in entries.values():
        if "left_recursive" in entry.traits:
            continue
        corpus = [""]
        for length in range(1, 4):
            corpus.extend(
                "".join(chars)
                for chars in itertools.product(
                    entry.exhaustive_alphabet, repeat=length
                )
            )
        corpus.extend(
            "".join(rng.choice(entry.alphabet) for _ in range(rng.randint(0, 12)))
            for _ in range(100)
        )
        for text in corpus:
            session = counting_session_cls(entry.grammar, text)
            try:
                parse_complete(session)
            except ParseFailed:
                pass
            counts = session.eval_counts
            if counts:
                assert max(counts.values()) == 1, (entry.name, text)
            assert sum(counts.values()) == stats(session).cells_evaluated, (
                entry.name,
                text,
            )
            cells_seen += stats(session).cells_evaluated
    assert cells_seen > 10_000  # the corpus is not a trivial handful


def test_packrat_naive_and_tabular_verdicts_agree(entries):
    """For every catalog grammar the three backends return the same
    verdict (fail vs. end position) for every rule at every input
    position.

    Exhaustive corpus: whole length tiers over each entry's reduced
    alphabet under a 10,000-input cap, which reaches length 6 wherever
    the tier fits (it always does for alphabets of up to three
    characters; the widest alphabet would otherwise need 600 K strings).
    Random corpus: 1,000 seeded strings of length <= 12 per grammar
    over the full alphabet.  Left-recursive entries are instead probed
    for structured cycle errors from all three backends, and only the
    grammar built to split the ordered-choice and context-free readings
    may report complete-input divergences.  Both report texts are pinned
    byte for byte by their md5.  Exact, under 2 min.
    """
    t0 = time.perf_counter()
    catalog = list(entries.values())

    exhaustive = run_check(catalog, CheckConfig(max_len=6, mode="exhaustive"))
    randomized = run_check(
        catalog, CheckConfig(max_len=12, mode="random", trials=1000, seed=0)
    )

    for report in (exhaustive, randomized):
        assert report.ok, report.text
        for result in report.results:
            assert not result.counterexamples, (result.name, result.counterexamples)
            if result.divergences:
                assert result.name == "peg_limitation", result.name
                assert result.divergence_expected

    by_name = {r.name: r for r in exhaustive.results}
    # Full length-6 tiers for the small alphabets.
    assert by_name["lookahead_ab"].inputs == sum(3**k for k in range(7))
    assert by_name["blowup"].inputs == sum(2**k for k in range(7))
    assert by_name["peg_limitation"].inputs == 7
    # "xxxxx" is the unique complete-input split at these lengths.
    assert len(by_name["peg_limitation"].divergences) == 1
    assert sum(r.cells for r in exhaustive.results) > 500_000
    assert all(r.inputs == 1000 for r in randomized.results
               if "left_recursive" not in entries[r.name].traits)
    assert md5(exhaustive.text.encode()).hexdigest() == "72a849118289eff526133fd120fd5c2b"
    assert md5(randomized.text.encode()).hexdigest() == "4327fc230feea05aee4a0dd2a37da3bb"
    assert time.perf_counter() - t0 < 120.0


def test_naive_calls_double_while_packrat_cells_stay_affine(entries):
    """On a^k b inputs the grammar S <- 'a' S 'b' / 'a' S / 'a' forces
    the naive interpreter to re-derive suffixes: its call count grows
    by a factor of at least 1.8 per extra character for k >= 6.  The
    memoizing engine's cell count over the same inputs fits an affine
    model in k with relative residual below 1%.  Under 1 min.
    """
    t0 = time.perf_counter()
    blowup = entries["blowup"]
    ks = list(range(4, 15))
    records = run_bench(
        blowup.grammar, "blowup", "aN_b", ks, ["naive", "packrat"]
    )
    assert all(r.verdict == "accept" for r in records)

    naive_calls = {
        r.input_len - 1: r.calls for r in records if r.engine == "naive"
    }
    for k in range(6, 14):
        ratio = naive_calls[k + 1] / naive_calls[k]
        assert ratio >= 1.8, (k, ratio)

    packrat_cells = [
        r.cells_evaluated for r in records if r.engine == "packrat"
    ]
    fit = affine_fit(ks, packrat_cells)
    assert fit.rel_residual < 0.01, fit
    assert time.perf_counter() - t0 < 60.0


def test_packrat_cells_affine_up_to_64k_inputs(scaling_run):
    """Cell counts for the tokenizing arithmetic grammar over
    "1+1+...+1" inputs from 1 K to 64 K characters are affine in input
    length (relative residual below 1%).  Wall-clock growth per size
    doubling is reported for inspection but not gated, since timings
    are machine-dependent.  Under 1 min including the shared sweep.
    """
    records, sweep_elapsed = scaling_run
    t0 = time.perf_counter()
    assert [r.input_len for r in records] == [s + 1 for s in SCALING_SIZES]
    assert all(r.verdict == "accept" for r in records)

    fit = affine_fit(
        [r.input_len for r in records], [r.cells_evaluated for r in records]
    )
    assert fit.rel_residual < 0.01, fit

    ratios = [
        records[i + 1].duration_ns / records[i].duration_ns
        for i in range(len(records) - 1)
    ]
    print(
        "wall-clock ratio per input doubling (informational):",
        [round(r, 2) for r in ratios],
    )
    assert sweep_elapsed + (time.perf_counter() - t0) < 60.0


def test_lookahead_grammar_matches_cfg_reference(entries):
    """The lookahead grammar accepts x^n z y^n and x^n z y^(2n) for
    n = 1..8, rejects every other x/y combination probed, and agrees
    input-for-input with the context-free all-derivations oracle run
    on the predicate-free variant S <- A / B (equivalent on complete
    inputs: the end-of-input lookahead only arbitrates which
    alternative gets to win, not what the pair can derive).  Exact,
    under 10 s.
    """
    t0 = time.perf_counter()
    grammar = entries["lookahead_ab"].grammar

    xzy = seq(char("x"), char("z"), char("y"))
    cfg_variant = make_grammar(
        [
            ("S", choice(ref("A"), ref("B"))),
            ("A", choice(seq(char("x"), ref("A"), char("y")), xzy)),
            ("B", choice(seq(char("x"), ref("B"), char("y"), char("y")),
                         seq(xzy, char("y")))),
        ]
    )

    def peg_accepts(text):
        try:
            parse_complete(new_session(grammar, text))
        except ParseFailed:
            return False
        return True

    for n in range(1, 9):
        assert peg_accepts("x" * n + "z" + "y" * n), n
        assert peg_accepts("x" * n + "z" + "y" * (2 * n)), n

    for a in range(0, 9):
        for b in range(0, 17):
            text = "x" * a + "z" + "y" * b
            expected = a >= 1 and (b == a or b == 2 * a)
            assert peg_accepts(text) == expected, text
            cfg_accepts = len(text) in cfg_all_ends(cfg_variant, 0, 0, text)
            assert cfg_accepts == expected, text
    assert time.perf_counter() - t0 < 10.0


def test_nested_x_grammar_splits_from_cfg_reading(entries):
    """Under ordered choice, S <- 'x' S 'x' / 'x' accepts "x" and "xxx"
    but rejects "xxxxx": the inner alternative commits to the longest
    nested match and the committed verdict is final.  The context-free
    reading of the same rules derives end positions {1, 3, 5} on
    "xxxxx", so a CFG would accept it.  Exact, under 1 s.
    """
    t0 = time.perf_counter()
    entry = entries["peg_limitation"]

    def accepts(text):
        try:
            parse_complete(new_session(entry.grammar, text))
        except ParseFailed:
            return False
        return True

    assert accepts("x")
    assert accepts("xxx")
    assert not accepts("xxxxx")
    assert cfg_all_ends(entry.grammar, 0, 0, "xxxxx") == {1, 3, 5}
    assert time.perf_counter() - t0 < 1.0


def test_left_recursion_is_a_structured_error_in_every_backend(entries):
    """The left-recursive arithmetic grammar never loops: for inputs of
    every length from 0 through 64, the memoizing engine raises a
    LeftRecursion whose cycle starts and ends at the same rule, the
    naive interpreter's cycle guard raises the same error type, and the
    tabular filler refuses the grammar with a same-position cycle
    report.  Exact, under 10 s.
    """
    t0 = time.perf_counter()
    entry = entries["left_recursive_arith"]
    grammar = entry.grammar
    rng = random.Random(64)

    for length in range(0, 65):
        text = "".join(rng.choice(entry.alphabet) for _ in range(length))

        with pytest.raises(LeftRecursion) as packrat_err:
            parse_complete(new_session(grammar, text))
        cycle = packrat_err.value.cycle
        assert cycle[0] == cycle[-1]
        assert "left recursion detected" in str(packrat_err.value)
        assert grammar.rule_name(cycle[0][0]) in str(packrat_err.value)

        with pytest.raises(LeftRecursion):
            naive_parse(grammar, grammar.start, 0, text)

        with pytest.raises(SamePositionCycle):
            tabular_parse(grammar, text)
    assert time.perf_counter() - t0 < 10.0


def test_subtraction_associates_to_the_left(entries):
    """The left-associative arithmetic grammar evaluates "a-b-c" as
    (a-b)-c for all 1,000 single-digit triples.  Exact, under 5 s.
    """
    t0 = time.perf_counter()
    entry = entries["arith_left_assoc"]
    for a, b, c in itertools.product(range(10), repeat=3):
        text = f"{a}-{b}-{c}"
        session = new_session(entry.grammar, text, evaluator=entry.evaluator)
        node = parse_complete(session)
        assert entry.evaluator(node, text) == (a - b) - c, text
    assert time.perf_counter() - t0 < 5.0


def test_whitespace_is_maximal_and_predicates_are_zero_width(entries):
    """Over 10,000 random strings, applying the Whitespace rule at a
    position consumes exactly the maximal run of spaces and tabs that a
    direct character scan finds there.  On the same corpus, negative
    and positive lookahead — as grammar expressions and as combinators
    — succeed or fail without consuming input, and a repetition
    expression takes the longest match, again agreeing with the direct
    scan.  Exact, under 10 s.
    """
    from pegkit.combinators import and_pred, literal, not_pred

    t0 = time.perf_counter()
    entry = entries["arith_lexed"]
    whitespace = entry.grammar.rule_id("Whitespace")
    rng = random.Random(11)
    alphabet = " \t01+*()x"

    space_star = star(charclass(" \t"))
    not_x = not_(char("x"))
    and_x = and_(char("x"))
    comb_not_x = not_pred(literal("x"))
    comb_and_x = and_pred(literal("x"))

    def scan(text, pos):
        end = pos
        while end < len(text) and text[end] in " \t":
            end += 1
        return end

    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        session = new_session(entry.grammar, text)
        for pos in {0, rng.randint(0, len(text))}:
            expected_end = scan(text, pos)

            out = session.apply(whitespace, pos)
            assert isinstance(out, ParseTreeNode) and out.end == expected_end, (text, pos)

            out = session.eval_expr(space_star, pos)
            assert isinstance(out, ParseTreeNode) and out.end == expected_end, (text, pos)

            is_x = pos < len(text) and text[pos] == "x"

            out = session.eval_expr(not_x, pos)
            if is_x:
                assert out is FAIL, (text, pos)
            else:
                assert isinstance(out, ParseTreeNode) and out.end == pos, (text, pos)

            out = session.eval_expr(and_x, pos)
            if is_x:
                assert isinstance(out, ParseTreeNode) and out.end == pos, (text, pos)
            else:
                assert out is FAIL, (text, pos)

            out = comb_not_x.run(session, pos)
            if is_x:
                assert out is FAIL, (text, pos)
            else:
                assert out[0] == pos, (text, pos)

            out = comb_and_x.run(session, pos)
            if is_x:
                assert out[0] == pos, (text, pos)
            else:
                assert out is FAIL, (text, pos)
    assert time.perf_counter() - t0 < 10.0


def test_memo_byte_estimate_reported_and_affine(scaling_run):
    """Every benchmark CSV row carries a memo_bytes_estimate column,
    and over the 1 K..64 K scaling sweep the estimate grows affinely in
    input length (relative residual below 5%) — a machine-independent
    stand-in for heap profiling.  Under 1 min including the shared
    sweep.
    """
    records, sweep_elapsed = scaling_run
    t0 = time.perf_counter()

    csv = to_csv(records)
    lines = csv.splitlines()
    assert lines[0] == CSV_HEADER
    assert "memo_bytes_estimate" in lines[0]
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert int(fields[-1]) > 0

    fit = affine_fit(
        [r.input_len for r in records],
        [r.memo_bytes_estimate for r in records],
    )
    assert fit.rel_residual < 0.05, fit
    assert sweep_elapsed + (time.perf_counter() - t0) < 60.0


def test_check_command_is_byte_identical_with_fixed_seed(capsys):
    """Running the differential check twice with the same seed produces
    byte-identical reports: corpora, ordering, and formatting are all
    deterministic functions of the configuration.  Exact.
    """
    args = ["check", "all", "5", "40", "--seed", "11"]

    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out

    assert first == second
    assert "RESULT: ok" in first
    assert first.count("[") >= 9  # one line per catalog grammar
