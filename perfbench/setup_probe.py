"""One set-up measurement in a fresh interpreter: import tdvarma, build the
workload's models and its first plan.  Prints the seconds taken and, after
them, the median time of the calibration kernel in this process.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports numpy and tdvarma)


def build(name: str):
    if name == "theory":
        return workloads.theory_calls(workloads.theory_models())
    spec = workloads.MC_WORKLOADS[name]
    return spec.plan(spec.build_model(), spec.default_seed, workloads.CHUNK)


if __name__ == "__main__":
    build(sys.argv[1])
    elapsed = time.perf_counter() - start

    import statistics

    import calibration

    cal = calibration.Calibrator()
    cal.sample(calibration.HALO)
    print(repr(elapsed), repr(statistics.median(cal.seconds)))
