#!/usr/bin/env python3
"""Full reproduction run for the first simulation table (five series lengths,
1000 replications each, noise covariance estimated).

Writes summary.csv / estimates.csv next to --out and prints each cell against
the published values. A single-threaded run takes about half a minute (27 s
with --threads 1 on a 2-core x86 machine); use --threads to parallelize
replications.
"""

import argparse
import os
import sys
import time

import numpy as np

from tdvarma import examples
from tdvarma.mc import McPlan, estimates_to_csv, run_mc, summary_to_csv

PUBLISHED = {
    25: {"a": (0.7481, 0.5014, -0.8036), "b": (0.2023, 0.1543, 0.2118), "d": (7.1, 7.7, 4.8)},
    50: {"a": (0.7714, 0.5035, -0.8410), "b": (0.1397, 0.1049, 0.1355), "d": (4.5, 6.0, 6.6)},
    100: {"a": (0.7855, 0.4975, -0.8650), "b": (0.0963, 0.0735, 0.0926), "d": (5.4, 4.8, 5.0)},
    200: {"a": (0.7905, 0.4984, -0.8905), "b": (0.0677, 0.0510, 0.0628), "d": (5.4, 5.7, 4.2)},
    400: {"a": (0.7976, 0.5000, -0.8932), "b": (0.0474, 0.0358, 0.0440), "d": (5.2, 4.7, 5.1)},
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="table1_out")
    ap.add_argument("--replications", type=int, default=1000)
    ap.add_argument("--n-list", default="25,50,100,200,400")
    ap.add_argument("--seed", type=int, default=1234567)
    ap.add_argument("--threads", type=int, default=max(1, (os.cpu_count() or 2) - 1))
    args = ap.parse_args()

    model = examples.example1_sim_model()
    plan = McPlan(
        model=model,
        theta0=model.layout.theta0,
        n_list=tuple(int(v) for v in args.n_list.split(",")),
        replications=args.replications,
        seed=args.seed,
        theta_init=(0.1, 0.1, 0.1),
        estimate_sigma=True,
    )
    t0 = time.time()
    summary, rows = run_mc(plan, threads=args.threads, collect_estimates=True)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.csv"), "w") as fh:
        fh.write(summary_to_csv(summary))
    with open(os.path.join(args.out, "estimates.csv"), "w") as fh:
        fh.write(estimates_to_csv(rows))

    for n in plan.n_list:
        cell = summary.cell(n)
        pub = PUBLISHED.get(n)
        print(f"n={n} (converged {cell.n_converged}/{cell.n_total})")
        print(f"  (a) mean estimate : {np.round(cell.mean_estimate, 4).tolist()}"
              + (f"  published {pub['a']}" if pub else ""))
        print(f"  (b) mean est. se  : {np.round(cell.mean_se, 4).tolist()}"
              + (f"  published {pub['b']}" if pub else ""))
        print(f"  (c) sample std    : {np.round(cell.std_estimate, 4).tolist()}")
        print(f"  (d) rejection %   : {np.round(cell.reject_pct, 1).tolist()}"
              + (f"  published {pub['d']}" if pub else ""))
    print(f"elapsed {time.time() - t0:.0f}s; outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
