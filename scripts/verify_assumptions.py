#!/usr/bin/env python3
"""Audit the regularity conditions for the built-in examples plus an
explosive control model, and print theoretical standard errors.  Each
example's run_all wall time and its shared weight pass go to stderr, so
that stdout stays the same from run to run."""

import sys
import time

import numpy as np

from tdvarma import examples
from tdvarma.assumptions import check_psi_decay, run_all
from tdvarma.asymptotics import theoretical_v
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.timefn import Constant, MatrixTimeFunction, Param


def main() -> int:
    for which in ("example1_sim", "example1_theory", "example2"):
        model = examples.build(which)
        start = time.perf_counter()
        report = run_all(model)
        wall = time.perf_counter() - start
        print(f"{which}: run_all {wall:.3f} s, weight pass {report.weight_pass_s:.3f} s", file=sys.stderr)
        print(f"{which}: decay base = {report.phi:.4f}")
        for name, verdict in report.verdicts.items():
            print(f"  {name:18s} {verdict}")
        for n in (25, 50, 100):
            rep = theoretical_v(model, np.array(model.layout.theta0), n)
            print(f"  theoretical se (n={n:3d}): {np.round(rep.se, 4).tolist()}")

    layout = ParamLayout(names=("a1", "a2"), n_ar=2, n_ma=0, theta0=(1.5, 1.5))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(1)]])
    explosive = TdVarmaModel(2, [a], [], None, np.eye(2), layout)
    res = check_psi_decay(explosive, (1.5, 1.5), n_probe=80)
    print(f"explosive control: psi_decay {res.verdict} (expected fail)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
