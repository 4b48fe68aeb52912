#!/usr/bin/env python3
"""tdvarma benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload table1_n100 --seed 1234567 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Details (provenance, every check, fit
diagnostics, audit verdicts) go to ``perfbench/out/``.  See NOTES.md.
"""

import os

# Workloads are serial by design; keep BLAS from starting threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracer as tr  # noqa: E402
from tracer import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("table1_n100", "table2_n50", "varma11_n100", "theory")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
TERMINATIONS = ("gradient", "step", "line_search", "max_iters")
EXCLUSION_REASONS = ("not_converged", "no_covariance", "raised")
CHECK_TOL_ACCOUNTED = 1e-6


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "tdvarma" / "__init__.py").is_file():
        die(f"no tdvarma sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tdvarma

    if Path(tdvarma.__file__).resolve().parent != (SRC / "tdvarma").resolve():
        die(f"imported tdvarma from {tdvarma.__file__}, not from {SRC}")
    return tdvarma


# -- provenance -----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit_hash():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tdvarma").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(tdvarma, args, ops: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": ops,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "tdvarma_version": tdvarma.__version__,
        "rng_algorithm": tdvarma.RNG_ALGORITHM,
        "commit": commit_hash(),
        "source_sha256": source_digest(),
    }


# -- set-up --------------------------------------------------------------------------


def measure_setup(workload: str) -> list:
    """(set-up seconds, kernel seconds) from SETUP_REPEATS fresh interpreters,
    run one at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, kernel_s = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup_s), float(kernel_s)))
    return samples


def calibrated_setup(samples: list) -> float:
    return statistics.median(s * calibration.NOMINAL_S / k for s, k in samples)


# -- timed loops ---------------------------------------------------------------------


class Run:
    """Outcome of one timed loop.  A unit is one run_mc chunk or one theory call;
    an operation is one replication or one theory call."""

    def __init__(self):
        self.ops = 0
        self.failed_ops = 0
        self.op_times: list = []         # (start, end) of each operation that ran
        self.units: list = []            # (start, end, first op, end op)
        self.cal = calibration.Calibrator()
        self.outputs: list = []          # per chunk: summary CSV or None / per call: (name, output)
        self.errors: list = []           # (chunk or call name, exception type)

    def _busy(self, t0: float, t1: float) -> float:
        return t1 - t0 - self.cal.seconds_within(t0, t1)

    @property
    def wall(self) -> float:
        """Seconds spent in units, kernel samples excluded."""
        return sum(self._busy(u0, u1) for u0, u1, _, _ in self.units)

    def op_ms(self, calibrated: bool = True) -> list:
        return [
            1000.0 * self._busy(t0, t1) * (self.cal.factor(t0, t1) if calibrated else 1.0)
            for t0, t1 in self.op_times
        ]

    def calibrated_wall(self) -> float:
        total = 0.0
        for u0, u1, lo, hi in self.units:
            ops = self.op_times[lo:hi]
            other = self._busy(u0, u1) - sum(self._busy(t0, t1) for t0, t1 in ops)
            total += sum(self._busy(t0, t1) * self.cal.factor(t0, t1) for t0, t1 in ops)
            total += other * self.cal.factor(u0, u1)
        return total


def mc_loop(ctx, seconds: float, replog, chunks=None, sample_inside: bool = True) -> Run:
    """run_mc over chunks 0, 1, ... until `seconds` have passed (or exactly `chunks`).

    Kernel samples are taken around each chunk and, with `sample_inside`,
    while it runs."""
    wl, mc, spec, model, seed = ctx["workloads"], ctx["mc"], ctx["spec"], ctx["model"], ctx["seed"]
    run = Run()
    run.cal.sample(calibration.HALO)
    if sample_inside:
        run.cal.start()
    try:
        start = clock()
        c = 0
        while True:
            lo = len(replog.outcomes)
            plan = spec.plan(model, wl.chunk_seed(seed, c), wl.CHUNK)
            u0 = clock()
            try:
                summary = mc.run_mc(plan, threads=1)
            except Exception as exc:  # one bad chunk is a recorded failure, not an abort
                traceback.print_exc(file=sys.stderr)
                summary = None
                run.errors.append((c, type(exc).__name__))
            u1 = clock()
            run.cal.sample(calibration.HALO)
            hi = len(replog.outcomes)
            first = len(run.op_times)
            run.op_times.extend(zip(replog.starts[lo:hi], replog.ends[lo:hi]))
            run.units.append((u0, u1, first, len(run.op_times)))
            run.ops += wl.CHUNK
            if summary is None:
                run.failed_ops += wl.CHUNK
                run.outputs.append(None)
            else:
                run.failed_ops += sum(o != "ok" for o in replog.outcomes[lo:hi])
                run.outputs.append(mc.summary_to_csv(summary))
            c += 1
            if (c >= chunks) if chunks is not None else (clock() - start >= seconds):
                return run
    finally:
        if sample_inside:
            run.cal.stop()


def theory_loop(ctx, seconds: float, passes=None, tracer=None, sample_inside: bool = True) -> Run:
    """The theory call list, in whole passes, until `seconds` have passed (or
    exactly `passes`).  Kernel samples are taken between calls and, with
    `sample_inside`, while they run."""
    run = Run()
    run.cal.sample(calibration.HALO)
    if sample_inside:
        run.cal.start()
    try:
        start = clock()
        done = 0
        while True:
            for name, fn in ctx["calls"]:
                if tracer is not None:
                    tracer.set_rep(run.ops)
                t0 = clock()
                try:
                    out = fn()
                except Exception as exc:
                    traceback.print_exc(file=sys.stderr)
                    out = None
                    run.errors.append((name, type(exc).__name__))
                t1 = clock()
                run.cal.sample(calibration.HALO)
                run.units.append((t0, t1, len(run.op_times), len(run.op_times) + 1))
                run.op_times.append((t0, t1))
                run.outputs.append((name, out))
                run.ops += 1
            done += 1
            if (done >= passes) if passes is not None else (clock() - start >= seconds):
                return run
    finally:
        if sample_inside:
            run.cal.stop()


# -- checks --------------------------------------------------------------------------


def mc_checks(ctx, replog) -> list:
    wl, spec, model = ctx["workloads"], ctx["spec"], ctx["model"]
    ref = ctx["reference"]["mc"][spec.name]
    checks = []
    summary = ctx["mc"].run_mc(spec.plan(model, ref["seed"], ref["replications"]), threads=1)
    ok, detail = wl.compare_cells(ctx["mc"].summary_to_csv(summary), ref["summary_csv"], ref["replications"])
    checks.append(("reference_cell", ok, f"seed {ref['seed']}, R={ref['replications']}: {detail}"))
    ok, detail = wl.plausible_estimates(replog.thetas, replog.ses, model.layout.theta0)
    checks.append(("timed_estimates_plausible", ok, detail))
    return checks


def theory_checks(ctx, run: Run) -> tuple:
    """Compare every timed output with the reference; failed outputs are failed ops."""
    wl, ref = ctx["workloads"], ctx["reference"]["theory"]
    checks = []
    failed_ops = 0
    verdicts = {}
    for name, out in run.outputs:
        if out is None:
            failed_ops += 1
            continue
        ok, detail = wl.compare_theory(name, out, ref[name])
        if not ok:
            failed_ops += 1
            checks.append((f"output.{name}", False, detail))
        if name.startswith("run_all"):
            verdicts[name] = wl.theory_output_record(name, out)
    bad = {c[0] for c in checks}
    for name, _ in ctx["calls"]:
        if f"output.{name}" not in bad:
            checks.append((f"output.{name}", True, "every timed output matches the reference"))
    checks.extend(wl.closed_form_checks(ctx["models"]))
    return checks, failed_ops, verdicts


# -- metrics -------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(run: Run, setup_times: list, peak_rss_mb: float) -> dict:
    return {
        "setup_s": {"value": calibrated_setup(setup_times), "unit": "s"},
        "ops_per_s": {"value": run.ops / run.calibrated_wall(), "unit": "1/s"},
        "op_ms_p50": {"value": percentile(run.op_ms(), 50), "unit": "ms"},
        "op_ms_p90": {"value": percentile(run.op_ms(), 90), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer, replog, traced: Run, untraced: Run) -> dict:
    calls, total, self_s, roots = tracer.summarize()
    per_op = 1.0 / traced.ops

    def sum_prefix(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for layer in ("timefn", "model"):
        put(f"{layer}.calls", sum_prefix(calls, layer + ".") * per_op, "count/op")
        put(f"{layer}.self_s", sum_prefix(self_s, layer + ".") * per_op, "s/op")
    for fn in ("residuals", "objective", "objective_value"):
        put(f"likelihood.{fn}.calls", calls[f"likelihood.{fn}"] * per_op, "count/op")
        put(f"likelihood.{fn}.self_s", self_s[f"likelihood.{fn}"] * per_op, "s/op")
    put("likelihood.empirical_vw.s", total["likelihood.empirical_vw"] * per_op, "s/op")

    fits = len(replog.outcomes) if replog is not None else 0
    evals = tracer.count_under({"likelihood.objective", "likelihood.objective_value"}, "estimate.fit")
    put("estimate.fit.s", total["estimate.fit"] * per_op, "s/op")
    put("estimate.self_s", self_s["estimate.fit"] * per_op, "s/op")
    put("estimate.noise_cov.s", total["estimate.noise_cov"] * per_op, "s/op")
    put("estimate.evals_per_fit", evals / fits if fits else 0.0, "count/fit")
    put("estimate.n_evals_reported", statistics.fmean(replog.n_evals) if fits else 0.0, "count/fit")
    trials = calls["likelihood.objective_value"]
    put("estimate.accept_ratio", calls["likelihood.objective"] / trials if trials else 0.0, "ratio")
    terms = replog.terminations if replog is not None else {}
    for reason in TERMINATIONS:
        put(f"estimate.termination.{reason}", terms.get(reason, 0), "count")
    put("estimate.termination.other", sum(v for k, v in terms.items() if k not in TERMINATIONS), "count")

    outcomes = replog.outcomes if replog is not None else []
    put("mc.excluded", sum(o != "ok" for o in outcomes), "count")
    for reason in EXCLUSION_REASONS:
        put(f"mc.excluded.{reason}", sum(o == reason for o in outcomes), "count")
    put("mc.self_s", self_s["mc.run_mc"] * per_op, "s/op")
    put("simulate.s", total["simulate"] * per_op, "s/op")

    put("representations.build_psi.self_s", self_s["representations.build_psi"] * per_op, "s/op")
    put("representations.build_pi.self_s", self_s["representations.build_pi"] * per_op, "s/op")
    put("asymptotics.theoretical_v.self_s", self_s["asymptotics.theoretical_v"] * per_op, "s/op")
    for check in ("psi_decay", "sigma_bounds", "moment_bounds", "information", "cross_sums"):
        put(f"assumptions.{check}.s", total[f"assumptions.{check}"] * per_op, "s/op")

    harness = traced.wall - roots
    put("trace.spans", len(tracer.spans) * per_op, "count/op")
    put("trace.ops_per_s", traced.ops / traced.calibrated_wall(), "1/s")
    put("trace.untraced_ops_per_s", untraced.ops / untraced.calibrated_wall(), "1/s")
    put("trace.overhead_share", traced.calibrated_wall() / untraced.calibrated_wall() - 1.0, "share")
    put("trace.harness_share", harness / traced.wall, "share")
    put("trace.accounted_share", (sum(self_s.values()) + harness) / traced.wall, "share")
    return metrics


# -- main ----------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    tdvarma = import_package()
    if not (HERE / "reference.json").is_file():
        die("perfbench/reference.json is missing")
    import workloads
    from tdvarma import mc

    ctx = {"workloads": workloads, "mc": mc, "reference": workloads.load_reference()}
    is_mc = args.workload != "theory"
    if is_mc:
        spec = workloads.MC_WORKLOADS[args.workload]
        if args.seed is None:
            args.seed = spec.default_seed
        ctx.update(spec=spec, model=spec.build_model(), seed=args.seed)
    else:
        if args.seed is None:
            args.seed = 0
        ctx["models"] = workloads.theory_models()
        ctx["calls"] = workloads.theory_calls(ctx["models"])

    setup_times = measure_setup(args.workload)
    seconds = args.seconds if args.trace == 0 else args.seconds / 2.0

    # Only the replication-boundary clock is installed here.  A traced run
    # takes no kernel samples inside operations in either half: in the traced
    # half they would land inside spans, and both halves must be alike for
    # the overhead comparison.
    patches = tr.Patches()
    replog = tr.RepLog()
    inside = not args.trace
    if is_mc:
        replog.install(patches, mc)
        run = mc_loop(ctx, seconds, replog, sample_inside=inside)
    else:
        run = theory_loop(ctx, seconds, sample_inside=inside)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    installed = patches.snapshot()
    patches.restore()

    checks = []
    traced_run = None
    tracer = None
    replog_b = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install_spans(patches, tracer)
        if is_mc:
            # outermost, so each replication id is set before its first span opens
            replog_b = tr.RepLog()
            replog_b.on_start = tracer.set_rep
            replog_b.install(patches, mc)
        installed += patches.snapshot()
        try:
            if is_mc:
                traced_run = mc_loop(ctx, 0.0, replog_b, chunks=len(run.outputs), sample_inside=False)
            else:
                passes = run.ops // len(ctx["calls"])
                traced_run = theory_loop(ctx, 0.0, passes=passes, tracer=tracer, sample_inside=False)
        finally:
            patches.restore()
        if is_mc:
            same = traced_run.outputs == run.outputs
        else:
            same = all(
                workloads.theory_output_record(n1, o1) == workloads.theory_output_record(n2, o2)
                for (n1, o1), (n2, o2) in zip(run.outputs, traced_run.outputs)
            )
        checks.append(("self_test.traced_equals_untraced", same, f"{len(run.outputs)} outputs compared byte for byte"))
    checks.append(("self_test.wrappers_restored", tr.all_restored(installed), f"{len(installed)} patched names"))

    if is_mc:
        checks.extend(mc_checks(ctx, replog))
        failed_ops = run.failed_ops
        verdicts = {}
    else:
        more, failed_ops, verdicts = theory_checks(ctx, run)
        checks.extend(more)

    if args.trace:
        metrics = per_layer(tracer, replog_b, traced_run, run)
        accounted = metrics["trace.accounted_share"]["value"]
        checks.append(("self_test.self_times_account", abs(accounted - 1.0) <= CHECK_TOL_ACCOUNTED, f"{accounted!r}"))
    else:
        metrics = end_to_end(run, setup_times, peak_rss_mb)

    failed_checks = sum(not ok for _, ok, _ in checks)
    result = {
        "correct": failed_checks == 0,
        "attempted": run.ops + len(checks),
        "failed": failed_ops + failed_checks,
        "metrics": metrics,
    }

    record = {
        "provenance": provenance(tdvarma, args, run.ops),
        "setup_s_and_kernel_s": setup_times,
        "raw": {
            "setup_s": statistics.median(s for s, _ in setup_times),
            "wall_s": run.wall,
            "ops_per_s": run.ops / run.wall,
            "op_ms_p50": percentile(run.op_ms(False), 50),
            "op_ms_p90": percentile(run.op_ms(False), 90),
        },
        "calibration_s": run.cal.seconds,
        "op_ms_raw": run.op_ms(False),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "errors": run.errors,
        "fit_diagnostics": {
            "outcomes": {k: replog.outcomes.count(k) for k in ("ok",) + EXCLUSION_REASONS},
            "terminations": dict(replog.terminations),
            "n_evals_reported_mean": statistics.fmean(replog.n_evals) if replog.n_evals else None,
            "exceptions": replog.exceptions,
        }
        if is_mc
        else None,
        "audit_verdicts": verdicts,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write_csv(OUT / f"{args.workload}-seed{args.seed}-spans.csv")

    print("provenance " + json.dumps(record["provenance"]))
    for name, ok, detail in checks:
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    if verdicts:
        print("audit " + json.dumps(verdicts))
    print(f"operations {run.ops} in {run.wall:.3f} s, failed {failed_ops}")
    print("uncalibrated " + json.dumps(record["raw"]))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
