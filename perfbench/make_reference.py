#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs the benchmark's checks compare with.

    python3 perfbench/make_reference.py

Run from the root of a checkout at the commit whose outputs are to serve as
the reference.  The benchmark never rewrites this file.
"""

import json
import sys

import run  # sets BLAS threads and paths the same way the benchmark does

tdvarma = run.import_package()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tdvarma import mc  # noqa: E402


def main() -> int:
    ref = {
        "provenance": {
            "commit": run.commit_hash(),
            "source_sha256": run.source_digest(),
            "numpy": np.__version__,
            "rng_algorithm": tdvarma.RNG_ALGORITHM,
        },
        "mc": {},
        "theory": {},
    }
    for name, spec in workloads.MC_WORKLOADS.items():
        plan = spec.plan(spec.build_model(), spec.default_seed, spec.reference_replications)
        ref["mc"][name] = {
            "seed": spec.default_seed,
            "replications": spec.reference_replications,
            "summary_csv": mc.summary_to_csv(mc.run_mc(plan, threads=1)),
        }
    for name, fn in workloads.theory_calls(workloads.theory_models()):
        ref["theory"][name] = workloads.theory_output_record(name, fn())
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
