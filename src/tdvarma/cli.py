"""Command-line interface.

Subcommands: ``simulate``, ``fit``, ``asymptotics``, ``check``, ``mc`` and
``examples``.  Exit codes: 0 success, 1 usage or configuration error or a
file that cannot be read or written, 2 numerical failure.  All
floating-point output uses shortest round-trip formatting, so re-running a
subcommand with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, config
from .errors import ConfigError, ContractError, NumericalError
from .estimate import fit
from .examples import EXAMPLE_IDS, build, paper_run, paper_table
from .mc import McPlan, estimates_to_csv, run_mc, summary_to_csv
from .model import Series
from .simulate import RNG_ALGORITHM, SimPlan, simulate
from .asymptotics import theoretical_v
from .assumptions import CROSS_GRID, CROSS_M_GRID, N_PROBE, run_all

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
    header, *lines = config.read_text(path).split("\n")
    header = header.strip().split(",")
    if header[0] != "t":
        raise ConfigError(f"series file {path} must start with a 't,x1,...' header")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != len(header):
            raise ConfigError(f"series file {path} line {lineno}: {len(cells)} fields, header has {len(header)}")
        try:
            rows.append([float(v) for v in cells[1:]])
        except ValueError as exc:
            raise ConfigError(f"series file {path} line {lineno}: {exc}") from None
    if not rows:
        raise ConfigError(f"series file {path} contains no observations")
    return Series(values=np.asarray(rows))


def _int_list(text: str) -> list:
    """A comma-separated list of integers; the empty string is the empty list."""
    return [int(v) for v in text.split(",")] if text else []


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


def _cmd_simulate(args) -> int:
    model, run = config.load(args.config)
    n = args.n if args.n is not None else run.n
    seed = args.seed if args.seed is not None else run.seed
    plan = SimPlan(model, model.layout.theta0, n, seed, args.stream)
    series = simulate(plan)
    _write_text(_series_to_csv(series), args.out)
    return 0


def _cmd_fit(args) -> int:
    model, run = config.load(args.config)
    series = _series_from_csv(args.series)
    start = model.layout.theta0 if run.theta_init is None else run.theta_init
    if start is None:
        raise ConfigError("no theta_init in the run block and no true value in the layout")
    result = fit(model, series, start, run.estimate_sigma)
    _emit_json({"names": list(model.layout.names), **dataclasses.asdict(result)}, args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    model, _ = config.load(args.config)
    rep = theoretical_v(model, model.layout.theta0_array(), args.n)
    _emit_json(dataclasses.asdict(rep), args.out)
    return 0


def _cmd_check(args) -> int:
    model, _ = config.load(args.config)
    probe = {"n_probe": args.n_probe, "cross_grid": args.cross_grid, "cross_m_grid": args.cross_m_grid}
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
        "weight_pass_s": report.weight_pass_s,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_mc(args) -> int:
    model, run = config.load(args.config)
    plan = McPlan.from_run(
        model,
        run,
        n_list=None if args.n_list is None else tuple(args.n_list),
        replications=args.replications,
        seed=args.seed,
    )
    summary = run_mc(plan, threads=args.threads)
    if args.estimates:
        _write_text(estimates_to_csv(summary), args.estimates)
    _write_text(summary_to_csv(summary), args.out)
    table = paper_table(model, run)
    if table is not None:
        sys.stderr.write(table.report(summary))
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
        path = os.path.join(args.out, f"{name}.json")
        config.dump(build(name), paper_run(name), path)
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
    p.add_argument("--n-probe", type=int, default=N_PROBE)
    p.add_argument("--cross-grid", type=_int_list, default=list(CROSS_GRID))
    p.add_argument("--cross-m-grid", type=_int_list, default=list(CROSS_M_GRID))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mc", help="Monte Carlo study; writes the summary CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--estimates", default=None, help="also write per-replication rows")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--n-list", type=_int_list, default=None, help="comma-separated series lengths")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
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
    except (ConfigError, ContractError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERICAL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
