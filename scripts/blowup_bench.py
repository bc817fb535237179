#!/usr/bin/env python3
"""Exponential-vs-linear separation on the a^k b blowup family.

Runs the naive backtracking interpreter and the memoizing engine over
inputs a^k b for a range of k, writes the raw records as CSV, and
prints the per-step growth of naive call counts next to an affine fit
of packrat cell counts.

    python3 scripts/blowup_bench.py --out results/blowup.csv --kmax 16
"""

from __future__ import annotations

import argparse
from pathlib import Path

from pegkit import registry
from pegkit.bench import affine_fit, run_bench, to_csv
from pegkit.oracles import DEFAULT_CALL_BUDGET


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=int, default=4, help="smallest k (default 4)")
    ap.add_argument("--kmax", type=int, default=14, help="largest k (default 14)")
    ap.add_argument(
        "--call-budget", type=int, default=DEFAULT_CALL_BUDGET,
        help="naive-interpreter call cap per run (default %(default)s)",
    )
    ap.add_argument(
        "--out", type=Path, default=Path("results/blowup.csv"),
        help="CSV output path (default results/blowup.csv)",
    )
    args = ap.parse_args()

    entry = registry()["blowup"]
    ks = list(range(args.kmin, args.kmax + 1))
    records = run_bench(
        entry.grammar, "blowup", "aN_b", ks,
        ["naive", "packrat"], call_budget=args.call_budget,
    )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(to_csv(records), encoding="utf-8")
    print(f"wrote {len(records)} records to {args.out}")

    naive = {r.input_len - 1: r for r in records if r.engine == "naive"}
    cells = {r.input_len - 1: r for r in records if r.engine == "packrat"}

    print(f"\n{'k':>4} {'naive calls':>12} {'ratio':>7} {'packrat cells':>14}")
    prev = None
    for k in ks:
        calls = naive[k].calls
        ratio = f"{calls / prev:.3f}" if prev else ""
        note = " (budget hit)" if naive[k].verdict == "error" else ""
        print(f"{k:>4} {calls:>12} {ratio:>7} {cells[k].cells_evaluated:>14}{note}")
        prev = calls

    measured = [k for k in ks if naive[k].verdict != "error"]
    fit = affine_fit(measured, [cells[k].cells_evaluated for k in measured])
    print(
        f"\npackrat cells ~= {fit.slope:.3f}*k + {fit.intercept:.3f}"
        f" (relative residual {fit.rel_residual:.2e})"
    )


if __name__ == "__main__":
    main()
