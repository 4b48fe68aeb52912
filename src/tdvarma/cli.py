"""Command-line interface.

Subcommands: ``simulate``, ``fit``, ``asymptotics``, ``check``, ``mc`` and
``examples``.  Exit codes: 0 success, 1 usage or configuration error,
2 numerical failure.  All floating-point output uses shortest round-trip
formatting, so re-running a subcommand with identical inputs produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, config
from .errors import ConfigError, ContractError, NumericalError
from .estimate import FitOptions, fit
from .examples import EXAMPLE_IDS, build
from .mc import McPlan, estimates_to_csv, run_mc, summary_to_csv
from .model import Series
from .simulate import RNG_ALGORITHM, SimPlan, simulate
from .asymptotics import theoretical_v
from .assumptions import run_all

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _write_text(text: str, out: Optional[str]):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _series_to_csv(series: Series) -> str:
    r = series.r
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(r))]
    for t0, row in enumerate(series.values, start=1):
        lines.append(f"{t0}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _series_from_csv(path: str) -> Series:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t":
            raise ConfigError(f"series file {path} must start with a 't,x1,...' header")
        rows = []
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")[1:]])
    if not rows:
        raise ConfigError(f"series file {path} contains no observations")
    return Series(values=np.asarray(rows))


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (tuple, set)):
        return list(obj)
    raise TypeError(f"not serializable: {type(obj)!r}")


def _emit_json(payload: dict, out: Optional[str]):
    _write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n", out)


def _effective_threads(args) -> int:
    if getattr(args, "threads", None):
        return max(1, int(args.threads))
    env = os.environ.get("TDVARMA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"TDVARMA_THREADS must be an integer, got '{env}'")
    return 1


def _cmd_simulate(args) -> int:
    model, run = config.load(args.config)
    n = args.n if args.n is not None else run.n
    if n < 1:
        raise ConfigError("simulation length must be at least 1")
    seed = args.seed if args.seed is not None else run.seed
    plan = SimPlan(model, model.layout.theta0, n, seed, args.stream)
    series = simulate(plan)
    _write_text(_series_to_csv(series), args.out)
    return 0


def _cmd_fit(args) -> int:
    model, run = config.load(args.config)
    series = _series_from_csv(args.series)
    theta_init = run.theta_init if run.theta_init is not None else model.layout.theta0
    if theta_init is None:
        raise ConfigError("no theta_init in the run block and no true value in the layout")
    opts = FitOptions(
        theta_init=theta_init,
        max_iters=run.max_iters,
        grad_tol=run.grad_tol,
        step_tol=run.step_tol,
        estimate_sigma=run.estimate_sigma,
        sigma_iters=run.sigma_iters,
    )
    result = fit(model, series, opts)
    payload = {
        "names": list(model.layout.names),
        "theta": result.theta,
        "objective": result.objective,
        "grad_max": float(np.max(np.abs(result.grad))),
        "converged": result.converged,
        "termination": result.termination,
        "iters": result.iters,
        "n_evals": result.n_evals,
        "se": result.se,
        "se_info": result.se_info,
        "cov": result.cov,
        "vhat": result.vhat,
        "what": result.what,
        "sigma_hat": result.sigma_hat,
        "covariance_ok": result.covariance_ok,
        "metadata": result.metadata,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    model, _ = config.load(args.config)
    rep = theoretical_v(model, model.layout.theta0_array(), args.n)
    payload = {
        "n": rep.n,
        "v": rep.v,
        "se": rep.se,
        "positive_definite": rep.positive_definite,
        "min_eigenvalue": rep.min_eigenvalue,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_check(args) -> int:
    model, _ = config.load(args.config)
    probe = {
        "n_probe": args.n_probe,
        "cross_grid": [int(v) for v in args.cross_grid.split(",")],
        "cross_m_grid": [int(v) for v in args.cross_m_grid.split(",")] if args.cross_m_grid else [],
    }
    report = run_all(model, **probe)
    lines = ["assumption audit:"]
    for name, verdict in report.verdicts.items():
        lines.append(f"  {name:18s} {verdict}")
    sys.stderr.write("\n".join(lines) + "\n")
    payload = {
        "phi": report.phi,
        "constants": report.bound_constants,
        "ratios": report.h37_ratios,
        "verdicts": report.verdicts,
        "all_pass": report.all_pass(),
        "probe": probe,
        "details": {name: res.details for name, res in report.checks.items()},
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_mc(args) -> int:
    model, run = config.load(args.config)
    seed = args.seed if args.seed is not None else run.seed
    plan = McPlan(
        model=model,
        theta0=model.layout.theta0,
        n_list=tuple(int(v) for v in args.n_list.split(",")) if args.n_list else run.n_list,
        replications=args.replications if args.replications is not None else run.replications,
        seed=seed,
        theta_init=run.theta_init,
        estimate_sigma=run.estimate_sigma,
        sigma_iters=run.sigma_iters,
        max_iters=run.max_iters,
    )
    threads = _effective_threads(args)
    if args.estimates:
        summary, rows = run_mc(plan, threads=threads, collect_estimates=True)
        _write_text(estimates_to_csv(rows), args.estimates)
    else:
        summary = run_mc(plan, threads=threads)
    _write_text(summary_to_csv(summary), args.out)
    if summary.flagged:
        sys.stderr.write("warning: more than 5% of replications failed to converge\n")
    return 0


_EXAMPLES = {
    "1": ("example1_sim", "example1_theory"),
    "1-theory": ("example1_theory",),
    "2": ("example2",),
    "all": EXAMPLE_IDS,
}


def _cmd_examples(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name in _EXAMPLES[args.which]:
        model = build(name)
        # example 1 starts at 0.1 per coordinate and estimates sigma; example 2
        # starts at the true value shifted by +0.1 per coordinate
        first = name.startswith("example1")
        run = config.RunConfig(
            theta_init=(0.1,) * model.m if first else tuple(v + 0.1 for v in model.layout.theta0),
            estimate_sigma=first,
        )
        path = os.path.join(args.out, f"{name}.json")
        config.dump(model, run, path)
        written.append(path)
    sys.stdout.write("\n".join(written) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tdvarma", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"tdvarma {__version__} (rng={RNG_ALGORITHM})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a series and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="estimate parameters from a series CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("asymptotics", help="information matrix and theoretical errors")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("check", help="audit the regularity conditions")
    p.add_argument("--config", required=True)
    p.add_argument("--n-probe", type=int, default=500)
    p.add_argument("--cross-grid", default="50,100,200,400")
    p.add_argument("--cross-m-grid", default="300,600,900,1200")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mc", help="Monte Carlo study; writes the summary CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--estimates", default=None, help="also write per-replication rows")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--n-list", default=None, help="comma-separated series lengths")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("examples", help="materialize the built-in example configs")
    p.add_argument("--which", choices=sorted(_EXAMPLES), required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except (ConfigError, ContractError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERICAL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
