#!/usr/bin/env python3
"""Full reproduction run for one of the paper's simulation tables.

The table's record in tdvarma.examples (PAPER_TABLES) gives its example, its
design and its printed values, and paper_run the example's run, so this is
the run of `tdvarma mc` on the example's shipped config.  Writes the run's
summary lines (summary.csv) and every replication's estimate, error and
convergence flag (estimates.csv), both from the one McSummary that run_mc
returns, into --out, and prints each cell against the printed values.
--threads runs the replications in one pool of that many worker processes.
The last line printed is the elapsed wall time.
"""

import argparse
import os
import sys
import time

import numpy as np

from tdvarma import examples
from tdvarma.cli import _int_list
from tdvarma.errors import ConfigError, ContractError
from tdvarma.mc import LINES, McPlan, estimates_to_csv, run_mc, summary_to_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table", type=int, choices=sorted(examples.PAPER_TABLES), required=True)
    ap.add_argument("--out", default=None, help="output directory (default tableT_out)")
    ap.add_argument("--replications", type=int, default=None, help="default the table's")
    ap.add_argument("--n-list", type=_int_list, default=None, help="default the table's")
    ap.add_argument("--seed", type=int, default=None, help="default the table's")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    table = examples.PAPER_TABLES[args.table]
    out = args.out or f"table{args.table}_out"
    t0 = time.perf_counter()
    try:
        plan = McPlan.from_run(
            examples.build(table.which),
            examples.paper_run(table.which),
            n_list=None if args.n_list is None else tuple(args.n_list),
            replications=args.replications,
            seed=args.seed,
        )
        summary = run_mc(plan, threads=args.threads)
    except (ConfigError, ContractError) as exc:
        ap.error(str(exc))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write(summary_to_csv(summary))
    with open(os.path.join(out, "estimates.csv"), "w") as fh:
        fh.write(estimates_to_csv(summary))

    for n in plan.n_list:
        cell = summary.cell(n)
        print(f"n={n} (converged {cell.n_converged}/{cell.n_total})")
        for line in table.shown:
            label, attr, decimals = LINES[line]
            pub = table.printed.get(n, {}).get(line)
            print(f"  ({line}) {label:<14}: {np.round(getattr(cell, attr), decimals).tolist()}"
                  + (f"  published {pub}" if pub else ""))
    print(f"elapsed {time.perf_counter() - t0:.1f}s; outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
