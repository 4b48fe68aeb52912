"""Monte Carlo harness: replicate simulate-fit cycles and tabulate them.

Each (n, replication) cell draws its innovations from an independent
Philox stream keyed by (master seed, n, replication index), so enlarging
the n-grid or the replication count never perturbs existing cells, and
aggregation is performed in fixed order for bit-reproducibility whatever
the worker pool size.
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .estimate import FitOptions, FitResult, fit, wald_test
from .model import TdVarmaModel
from .simulate import SimPlan, replication_stream, simulate

NONCONVERGENCE_FLAG_SHARE = 0.05


@dataclass(frozen=True)
class McPlan:
    """Design of one Monte Carlo experiment."""

    model: TdVarmaModel
    theta0: tuple
    n_list: tuple = (25, 50, 100, 200, 400)
    replications: int = 1000
    seed: int = 20240501
    theta_init: Optional[tuple] = None
    h0: Optional[tuple] = None            # defaults to theta0
    estimate_sigma: bool = False
    sigma_iters: int = 3
    max_iters: int = 200

    def __post_init__(self):
        for name in ("theta0", "theta_init", "h0"):
            if getattr(self, name) is not None:
                value = tuple(float(v) for v in getattr(self, name))
                object.__setattr__(self, name, value)
                if len(value) != self.model.m:
                    raise ConfigError(f"{name} has {len(value)} entries for {self.model.m} parameters")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if self.replications < 1:
            raise ConfigError("replication count must be at least 1")
        if any(n < self.model.m for n in self.n_list):
            raise ConfigError("every series length must be at least the parameter count")


@dataclass
class McCell:
    """Aggregates for one series length."""

    n: int
    mean_estimate: np.ndarray      # line (a)
    mean_se: np.ndarray            # line (b)
    std_estimate: np.ndarray       # line (c)
    reject_pct: np.ndarray         # line (d)
    n_converged: int
    n_total: int


@dataclass
class McSummary:
    """Per-(n, parameter) summary lines plus censoring diagnostics."""

    param_names: tuple
    replications: int
    cells: dict = field(default_factory=dict)          # n -> McCell
    flagged: bool = False                              # pervasive non-convergence

    def cell(self, n: int) -> McCell:
        return self.cells[n]


_WORKER: dict = {}


def _init_worker(plan: McPlan):
    _WORKER["plan"] = plan


def _run_rep(args):
    n, rep = args
    plan: McPlan = _WORKER["plan"]
    return _one_replication(plan, n, rep)


def _one_replication(plan: McPlan, n: int, rep: int):
    series = simulate(
        SimPlan(plan.model, plan.theta0, n, plan.seed, replication_stream(n, rep))
    )
    theta_init = plan.theta_init if plan.theta_init is not None else plan.theta0
    opts = FitOptions(
        theta_init=theta_init,
        estimate_sigma=plan.estimate_sigma,
        sigma_iters=plan.sigma_iters,
        max_iters=plan.max_iters,
    )
    m = plan.model.m
    try:
        result = fit(plan.model, series, opts)
    except (NumericalError, ConfigError):
        # a replication whose fit breaks down counts as excluded
        nan = np.full(m, np.nan)
        return rep, nan, nan, nan, False
    h0 = plan.h0 if plan.h0 is not None else plan.theta0
    ok = bool(result.converged and result.covariance_ok)
    if ok:
        rejects = np.array(
            [float(wald_test(result, i, h0[i]).reject_5pct) for i in range(m)]
        )
        se = result.se
    else:
        rejects = np.full(m, np.nan)
        se = np.full(m, np.nan)
    return rep, result.theta, se, rejects, ok


def run_mc(plan: McPlan, threads: int = 1, collect_estimates: bool = False):
    """Execute the experiment; returns McSummary (and per-replication rows)."""
    m = plan.model.m
    R = plan.replications
    summary = McSummary(param_names=tuple(plan.model.layout.names), replications=R)
    rows = []
    for n in plan.n_list:
        thetas = np.empty((R, m))
        ses = np.empty((R, m))
        rejects = np.empty((R, m))
        oks = np.zeros(R, dtype=bool)
        tasks = [(n, rep) for rep in range(R)]
        if threads and threads > 1:
            with ProcessPoolExecutor(
                max_workers=threads, initializer=_init_worker, initargs=(plan,)
            ) as pool:
                results = list(pool.map(_run_rep, tasks, chunksize=max(1, R // (8 * threads))))
        else:
            _init_worker(plan)
            results = [_run_rep(t) for t in tasks]
        for rep, theta, se, rej, ok in results:
            thetas[rep] = theta
            ses[rep] = se
            rejects[rep] = rej
            oks[rep] = ok
        mask = oks
        n_conv = int(mask.sum())
        if n_conv:
            cell = McCell(
                n=n,
                mean_estimate=thetas[mask].mean(axis=0),
                mean_se=ses[mask].mean(axis=0),
                std_estimate=thetas[mask].std(axis=0, ddof=1) if n_conv > 1 else np.zeros(m),
                reject_pct=100.0 * rejects[mask].mean(axis=0),
                n_converged=n_conv,
                n_total=R,
            )
        else:
            nanv = np.full(m, np.nan)
            cell = McCell(n, nanv, nanv, nanv, nanv, 0, R)
        summary.cells[n] = cell
        if n_conv < (1.0 - NONCONVERGENCE_FLAG_SHARE) * R:
            summary.flagged = True
        if collect_estimates:
            for rep in range(R):
                for i in range(m):
                    rows.append((n, rep, summary.param_names[i], thetas[rep, i], ses[rep, i], oks[rep]))
    if collect_estimates:
        return summary, rows
    return summary


# -- text serialization -------------------------------------------------------

_LINES = (
    ("a", "mean_estimate"),
    ("b", "mean_se"),
    ("c", "std_estimate"),
    ("d", "reject_pct"),
)


def summary_to_csv(summary: McSummary) -> str:
    """Stable CSV: one row per (n, parameter, line), shortest round-trip floats."""
    buf = io.StringIO()
    buf.write("n,param,line,value\n")
    for n in sorted(summary.cells):
        cell = summary.cells[n]
        for i, name in enumerate(summary.param_names):
            for line, attr in _LINES:
                buf.write(f"{n},{name},{line},{float(getattr(cell, attr)[i])!r}\n")
        buf.write(f"{n},all,excluded,{cell.n_total - cell.n_converged}\n")
    return buf.getvalue()


def summary_from_csv(text: str, replications: int = 0) -> McSummary:
    """Inverse of summary_to_csv (used for round-trip verification)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "n,param,line,value":
        raise ConfigError("unrecognized summary CSV header")
    staged: dict = {}
    excluded: dict = {}
    names: list = []
    for row in lines[1:]:
        n_s, param, line, value = row.split(",")
        n = int(n_s)
        if line == "excluded":
            excluded[n] = int(value)
            if not 0 <= excluded[n] <= replications:
                raise ConfigError(f"cell n={n}: {value} excluded of {replications} replications")
            continue
        if param not in names:
            names.append(param)
        staged.setdefault(n, {}).setdefault(line, {})[param] = float(value)
    summary = McSummary(param_names=tuple(names), replications=replications)
    for n, per_line in sorted(staged.items()):
        arrs = {
            line: np.array([per_line[line][p] for p in names]) for line in per_line
        }
        n_total = replications
        cell = McCell(
            n=n,
            mean_estimate=arrs.get("a"),
            mean_se=arrs.get("b"),
            std_estimate=arrs.get("c"),
            reject_pct=arrs.get("d"),
            n_converged=n_total - excluded.get(n, 0),
            n_total=n_total,
        )
        summary.cells[n] = cell
    return summary


def estimates_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("n,rep,param,estimate,se,converged\n")
    for n, rep, param, est, se, ok in rows:
        buf.write(f"{n},{rep},{param},{float(est)!r},{float(se)!r},{int(ok)}\n")
    return buf.getvalue()
