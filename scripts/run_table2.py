#!/usr/bin/env python3
"""Full reproduction run for the heteroscedastic example's simulation table
(five series lengths, 1000 replications, noise covariance held fixed).

A single-threaded run takes about a minute (60 s with --threads 1 on a 2-core
x86 machine); use --threads to parallelize replications.
"""

import argparse
import os
import sys
import time

import numpy as np

from tdvarma import examples
from tdvarma.mc import McPlan, estimates_to_csv, run_mc, summary_to_csv

PUBLISHED_A = {
    25: (0.7671, -0.8567, 0.9897, -0.9848),
    50: (0.7808, -0.8766, 0.9913, -0.9964),
    100: (0.7910, -0.8864, 0.9977, -0.9975),
    200: (0.7963, -0.8931, 0.9997, -1.0000),
    400: (0.7972, -0.8970, 0.9980, -0.9984),
}
PUBLISHED_D = {
    25: (3.8, 4.5, 3.2, 5.1),
    50: (4.2, 5.0, 2.9, 5.8),
    100: (4.4, 5.8, 4.1, 6.7),
    200: (5.3, 5.1, 5.3, 6.4),
    400: (6.3, 4.2, 4.7, 5.6),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="table2_out")
    ap.add_argument("--replications", type=int, default=1000)
    ap.add_argument("--n-list", default="25,50,100,200,400")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=max(1, (os.cpu_count() or 2) - 1))
    args = ap.parse_args()

    model = examples.example2_model()
    plan = McPlan(
        model=model,
        theta0=model.layout.theta0,
        n_list=tuple(int(v) for v in args.n_list.split(",")),
        replications=args.replications,
        seed=args.seed,
        theta_init=tuple(v + 0.1 for v in model.layout.theta0),
        estimate_sigma=False,
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
        print(f"n={n} (converged {cell.n_converged}/{cell.n_total})")
        print(f"  (a) mean estimate : {np.round(cell.mean_estimate, 4).tolist()}"
              + (f"  published {PUBLISHED_A[n]}" if n in PUBLISHED_A else ""))
        print(f"  (c) sample std    : {np.round(cell.std_estimate, 4).tolist()}")
        print(f"  (d) rejection %   : {np.round(cell.reject_pct, 1).tolist()}"
              + (f"  published {PUBLISHED_D[n]}" if n in PUBLISHED_D else ""))
    print(f"elapsed {time.time() - t0:.0f}s; outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
