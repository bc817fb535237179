"""Command-line front end.

Subcommands: ``eval`` (parse and evaluate one input), ``matrix`` (dump
the memo matrix), ``bench`` (benchmark CSVs across engines and input
families), ``check`` (differential oracle checking), and ``grammar
fmt``/``grammar validate`` for grammar files.

Exit codes: 0 success; 1 parse failure, engine error, counterexamples,
or an invalid grammar file under ``grammar``; 2 usage errors (unknown
names, malformed sizes, missing files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import ENGINES, parse_sizes, run_bench, summary, to_csv
from .catalog import CatalogEntry, entry as catalog_entry, registry
from .diffcheck import CheckConfig, run_check
from .engine import (
    DEFAULT_DEPTH_LIMIT,
    DepthExceeded,
    EngineConfig,
    LeftRecursion,
    ParseFailed,
    dump_matrix,
    new_session,
    parse_complete,
    run_deep,
    value_text,
)
from .grammar import (
    AnyChar, Char, Class, Grammar, InvalidGrammarError, Literal, validate, walk_exprs,
)
from .notation import (
    GrammarSyntaxError,
    format_grammar,
    load_grammar,
    parse_grammar,
)
from .oracles import DEFAULT_CALL_BUDGET

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def derive_alphabet(g: Grammar) -> str:
    """Characters mentioned by the grammar's terminals, sorted."""
    chars: set[str] = set()
    for e in walk_exprs(g):
        if isinstance(e, Char):
            chars.add(e.char)
        elif isinstance(e, Class):
            chars.update(e.chars)
        elif isinstance(e, Literal):
            chars.update(e.text)
        elif isinstance(e, AnyChar):
            chars.add("a")
    return "".join(sorted(chars)) or "a"


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _resolve_entry(args: argparse.Namespace) -> CatalogEntry:
    if getattr(args, "grammar_file", None):
        text = _read_file(args.grammar_file)
        try:
            g = load_grammar(text)
        except (GrammarSyntaxError, InvalidGrammarError) as exc:
            raise UsageError(f"{args.grammar_file}: {exc}") from None
        alphabet = derive_alphabet(g)
        return CatalogEntry(
            name=args.grammar,
            grammar=g,
            evaluator=None,
            alphabet=alphabet,
            exhaustive_alphabet=alphabet,
        )
    try:
        return catalog_entry(args.grammar)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(depth_limit=args.depth_limit)


def cmd_eval(args: argparse.Namespace) -> int:
    entry = _resolve_entry(args)
    session = new_session(
        entry.grammar, args.input, evaluator=entry.evaluator,
        config=_engine_config(args),
    )
    try:
        node = parse_complete(session)
    except ParseFailed as exc:
        expects = ", ".join(sorted(exc.expected)) if exc.expected else "nothing recorded"
        print(
            f"parse error at column {exc.position + 1}: expected one of: {expects}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    except (LeftRecursion, DepthExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if entry.evaluator is not None:
        # evaluators recurse over the tree as deeply as the parse did
        print(value_text(run_deep(entry.evaluator, node, args.input)))
    else:
        print("accept")
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    entry = _resolve_entry(args)
    session = new_session(
        entry.grammar, args.input, evaluator=entry.evaluator,
        config=_engine_config(args),
    )
    code = EXIT_OK
    if not args.lazy:
        try:
            parse_complete(session)
        except ParseFailed as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            code = EXIT_FAILURE
        except (LeftRecursion, DepthExceeded) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_FAILURE
    print(dump_matrix(session), end="")
    return code


def cmd_bench(args: argparse.Namespace) -> int:
    entry = _resolve_entry(args)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if not engines:
        raise UsageError("no engines given")
    out = Path(args.out)
    try:  # before the first run, so that a bad OUT wastes none
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.is_dir():
            raise IsADirectoryError("is a directory")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    try:
        records = run_bench(
            entry.grammar,
            entry.name,
            args.generator,
            parse_sizes(args.sizes),
            engines,
            config=_engine_config(args),
            call_budget=args.call_budget,
        )
    except ValueError as exc:  # bad sizes, unknown engine or input family
        raise UsageError(str(exc)) from None
    try:
        out.write_text(to_csv(records), encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from None
    print(f"wrote {len(records)} records to {args.out}")
    print(summary(records), end="")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.max_len < 0:
        raise UsageError(f"max_len must be at least 0, got {args.max_len}")
    if args.trials == "exhaustive":
        mode, trials = "exhaustive", 0
    else:
        try:
            trials = int(args.trials)
        except ValueError:
            raise UsageError(
                f"trials must be an integer or 'exhaustive', got {args.trials!r}"
            ) from None
        if trials <= 0:
            raise UsageError("trials must be positive")
        mode = "random"
    if getattr(args, "grammar_file", None) or args.grammar != "all":
        entries = [_resolve_entry(args)]
    else:
        entries = list(registry().values())
    cfg = CheckConfig(
        max_len=args.max_len,
        mode=mode,
        trials=trials,
        seed=args.seed,
        call_budget=args.call_budget,
    )
    report = run_check(entries, cfg)
    print(report.text, end="")
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_grammar_fmt(args: argparse.Namespace) -> int:
    text = _read_file(args.file)
    try:
        g = load_grammar(text)
    except (GrammarSyntaxError, InvalidGrammarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(format_grammar(g), end="")
    return EXIT_OK


def cmd_grammar_validate(args: argparse.Namespace) -> int:
    text = _read_file(args.file)
    try:
        g = parse_grammar(text)
    except GrammarSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    issues = validate(g)
    for issue in issues:
        print(f"{issue.severity}: {issue.code} in rule {issue.rule!r}: {issue.message}")
    errors = [i for i in issues if i.severity == "error"]
    print(f"{len(errors)} errors, {len(issues) - len(errors)} warnings")
    return EXIT_FAILURE if errors else EXIT_OK


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser with one flag: each subcommand takes only its own."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*names, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    grammar_file = _flag(
        "--grammar-file", metavar="PATH",
        help="load the grammar from a file; the GRAMMAR argument then "
        "serves only as a label",
    )
    depth_limit = _flag(
        "--depth-limit", type=int, default=DEFAULT_DEPTH_LIMIT, metavar="N",
        help="cap on nested rule applications (default %(default)s)",
    )
    call_budget = _flag(
        "--call-budget", type=int, default=DEFAULT_CALL_BUDGET, metavar="N",
        help="abort naive-engine runs after N rule calls (default %(default)s)",
    )
    seed = _flag(
        "--seed", type=int, default=0, metavar="N",
        help="seed for randomized input generation (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="pegkit",
        description="PEG parsing toolkit: memoizing engine, oracles, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "eval", parents=[grammar_file, depth_limit],
        help="parse and evaluate an input",
    )
    p.add_argument("grammar", help="catalog grammar name")
    p.add_argument("input", help="input text")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "matrix", parents=[grammar_file, depth_limit],
        help="print the memo matrix",
    )
    p.add_argument("grammar", help="catalog grammar name")
    p.add_argument("input", help="input text")
    p.add_argument(
        "--lazy", action="store_true",
        help="skip the complete parse; show the untouched matrix",
    )
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser(
        "bench", parents=[grammar_file, depth_limit, call_budget],
        help="write a benchmark CSV and print its growth summary",
    )
    p.add_argument("grammar", help="catalog grammar name")
    p.add_argument(
        "generator",
        help="input family: aN_b, repeat-<literal>, nested-parens",
    )
    p.add_argument(
        "sizes",
        help="size list, e.g. 4..14, 1000..64000x2, 1..9:2, or 5,10,20 "
        "(a bare a..b over more than 64 sizes becomes a doubling ladder)",
    )
    p.add_argument("engines", help="comma list from: " + ", ".join(ENGINES))
    p.add_argument("out", help="output CSV path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "check", parents=[grammar_file, call_budget, seed],
        help="differential check against the oracles",
    )
    p.add_argument("grammar", help="catalog grammar name or 'all'")
    p.add_argument("max_len", type=int, help="maximum input length")
    p.add_argument("trials", help="'exhaustive' or a random-trial count")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("grammar", help="grammar file utilities")
    gsub = p.add_subparsers(dest="gcommand", required=True)
    pf = gsub.add_parser("fmt", help="reformat a grammar file to stdout")
    pf.add_argument("file")
    pf.set_defaults(fn=cmd_grammar_fmt)
    pv = gsub.add_parser("validate", help="report validation issues")
    pv.add_argument("file")
    pv.set_defaults(fn=cmd_grammar_validate)

    return parser


def _check_limits(args: argparse.Namespace) -> None:
    for name in ("depth_limit", "call_budget"):
        value = getattr(args, name, 1)
        if value < 1:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be at least 1, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
