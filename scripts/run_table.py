#!/usr/bin/env python3
"""Full reproduction run for one of the paper's simulation tables: five series
lengths, 1000 replications each.

Table 1 fits example1_sim with the noise covariance estimated; table 2 fits the
heteroscedastic example2 with it held fixed.  Writes the run's summary lines
(summary.csv) and every replication's estimate, error and convergence flag
(estimates.csv), both from the one McSummary that run_mc returns, into --out,
and prints each cell against the published values.
Single-threaded (--threads 1, BLAS on one thread) on a shared 2-core Intel
Xeon VM (Python 3.11.7, numpy 2.4.6), table 1 took 13.8-15.8 s and table 2
26.7-28.4 s over two runs each, and 9.6-12.5 s and 14.1-18.5 s with
--threads 2 over four; --threads runs the replications in one pool of that
many worker processes.  The last line printed is the
elapsed wall time.
"""

import argparse
import os
import sys
import time

import numpy as np

from tdvarma import examples
from tdvarma.cli import _int_list
from tdvarma.errors import ConfigError, ContractError
from tdvarma.mc import McPlan, estimates_to_csv, run_mc, summary_to_csv

# table -> example, default seed, the lines the paper's table shows, and its
# published values of lines (a), (b) and (d) per n
TABLES = {
    1: ("example1_sim", 1234567, "abcd", {
        25: {"a": (0.7481, 0.5014, -0.8036), "b": (0.2023, 0.1543, 0.2118), "d": (7.1, 7.7, 4.8)},
        50: {"a": (0.7714, 0.5035, -0.8410), "b": (0.1397, 0.1049, 0.1355), "d": (4.5, 6.0, 6.6)},
        100: {"a": (0.7855, 0.4975, -0.8650), "b": (0.0963, 0.0735, 0.0926), "d": (5.4, 4.8, 5.0)},
        200: {"a": (0.7905, 0.4984, -0.8905), "b": (0.0677, 0.0510, 0.0628), "d": (5.4, 5.7, 4.2)},
        400: {"a": (0.7976, 0.5000, -0.8932), "b": (0.0474, 0.0358, 0.0440), "d": (5.2, 4.7, 5.1)},
    }),
    2: ("example2", 7, "acd", {
        25: {"a": (0.7671, -0.8567, 0.9897, -0.9848), "d": (3.8, 4.5, 3.2, 5.1)},
        50: {"a": (0.7808, -0.8766, 0.9913, -0.9964), "d": (4.2, 5.0, 2.9, 5.8)},
        100: {"a": (0.7910, -0.8864, 0.9977, -0.9975), "d": (4.4, 5.8, 4.1, 6.7)},
        200: {"a": (0.7963, -0.8931, 0.9997, -1.0000), "d": (5.3, 5.1, 5.3, 6.4)},
        400: {"a": (0.7972, -0.8970, 0.9980, -0.9984), "d": (6.3, 4.2, 4.7, 5.6)},
    }),
}

# line -> (label, McCell attribute, printed decimals)
LINES = {
    "a": ("mean estimate", "mean_estimate", 4),
    "b": ("mean est. se", "mean_se", 4),
    "c": ("sample std", "std_estimate", 4),
    "d": ("rejection %", "reject_pct", 1),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table", type=int, choices=sorted(TABLES), required=True)
    ap.add_argument("--out", default=None, help="output directory (default tableT_out)")
    ap.add_argument("--replications", type=int, default=None, help="default from the example's run (1000)")
    ap.add_argument("--n-list", type=_int_list, default=None, help="default from the example's run (25,50,100,200,400)")
    ap.add_argument("--seed", type=int, default=None, help="default 1234567 for table 1, 7 for table 2")
    ap.add_argument("--threads", type=int, default=max(1, (os.cpu_count() or 2) - 1))
    args = ap.parse_args()

    which, seed, shown, published = TABLES[args.table]
    out = args.out or f"table{args.table}_out"
    t0 = time.perf_counter()
    try:
        plan = McPlan.from_run(
            examples.build(which),
            examples.paper_run(which),
            n_list=None if args.n_list is None else tuple(args.n_list),
            replications=args.replications,
            seed=seed if args.seed is None else args.seed,
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
        for line in shown:
            label, attr, decimals = LINES[line]
            pub = published.get(n, {}).get(line)
            print(f"  ({line}) {label:<14}: {np.round(getattr(cell, attr), decimals).tolist()}"
                  + (f"  published {pub}" if pub else ""))
    print(f"elapsed {time.perf_counter() - t0:.1f}s; outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
