"""Monte Carlo harness: replicate simulate-fit cycles and tabulate them.

Each (n, replication) cell draws its innovations from an independent
Philox stream keyed by (master seed, n, replication index), so enlarging
the n-grid or the replication count never perturbs existing cells.  With
more than one thread, one worker pool serves every series length of a run;
its results come back in replication order, so the aggregates are
bit-identical whatever the pool size.  Each replication is fitted from the
plan's theta_init (the true value theta0 where it has none), bounded by the
model layout's bounds, and its Wald tests are of theta0.
"""

from __future__ import annotations

import contextlib
import functools
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import ConfigError, NumericalError
from .estimate import fit, wald_test
from .model import TdVarmaModel
from .simulate import SimPlan, replication_stream, simulate

NONCONVERGENCE_FLAG_SHARE = 0.05


@dataclass(frozen=True)
class McPlan:
    """Design of one Monte Carlo experiment; its defaults are RunConfig's."""

    model: TdVarmaModel
    theta0: tuple
    n_list: tuple = RunConfig.n_list
    replications: int = RunConfig.replications
    seed: int = RunConfig.seed
    theta_init: Optional[tuple] = RunConfig.theta_init
    estimate_sigma: bool = RunConfig.estimate_sigma

    def __post_init__(self):
        if self.theta0 is None:
            raise ConfigError("a Monte Carlo study needs the true parameter theta0")
        for name in ("theta0", "theta_init"):
            if getattr(self, name) is not None:
                value = tuple(float(v) for v in getattr(self, name))
                object.__setattr__(self, name, value)
                if len(value) != self.model.m:
                    raise ConfigError(f"{name} has {len(value)} entries for {self.model.m} parameters")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if self.replications < 1:
            raise ConfigError("replication count must be at least 1")
        if not self.n_list or any(n < self.model.m for n in self.n_list):
            raise ConfigError("a Monte Carlo study needs at least one series length, each at least the parameter count")

    @classmethod
    def from_run(
        cls, model: TdVarmaModel, run: RunConfig, n_list=None, replications=None, seed=None
    ) -> "McPlan":
        """The plan of a config's run block for model, at the true value of its layout.
        Every run key the plan shares reaches it; n_list, replications and seed
        replace the block's values when given."""
        keys = {f.name for f in fields(cls)}
        block = {k: v for k, v in asdict(run).items() if k in keys}
        given = dict(n_list=n_list, replications=replications, seed=seed)
        block.update({k: v for k, v in given.items() if v is not None})
        return cls(model=model, theta0=model.layout.theta0, **block)


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


def _one_replication(plan: McPlan, n: int, rep: int):
    """(theta, se, rejects, ok) of replication rep at length n."""
    series = simulate(
        SimPlan(plan.model, plan.theta0, n, plan.seed, replication_stream(n, rep))
    )
    m = plan.model.m
    start = plan.theta0 if plan.theta_init is None else plan.theta_init
    try:
        result = fit(plan.model, series, start, plan.estimate_sigma)
    except (NumericalError, ConfigError):
        # a replication whose fit breaks down counts as excluded
        nan = np.full(m, np.nan)
        return nan, nan, nan, False
    ok = bool(result.converged and result.covariance_ok)
    if ok:
        rejects = np.array(
            [float(wald_test(result, i, plan.theta0[i]).reject_5pct) for i in range(m)]
        )
        se = result.se
    else:
        rejects = np.full(m, np.nan)
        se = np.full(m, np.nan)
    return result.theta, se, rejects, ok


def _cell(n: int, thetas: np.ndarray, ses: np.ndarray, rejects: np.ndarray, oks: np.ndarray) -> McCell:
    """Aggregates of the replications at length n that converged."""
    R, m = thetas.shape
    n_conv = int(oks.sum())
    if not n_conv:
        nanv = np.full(m, np.nan)
        return McCell(n, nanv, nanv, nanv, nanv, 0, R)
    return McCell(
        n=n,
        mean_estimate=thetas[oks].mean(axis=0),
        mean_se=ses[oks].mean(axis=0),
        std_estimate=thetas[oks].std(axis=0, ddof=1) if n_conv > 1 else np.zeros(m),
        reject_pct=100.0 * rejects[oks].mean(axis=0),
        n_converged=n_conv,
        n_total=R,
    )


def run_mc(plan: McPlan, threads: int = 1, collect_estimates: bool = False):
    """Execute the experiment; returns McSummary (and per-replication rows).
    More than one thread runs the replications in one pool of that many worker
    processes."""
    R = plan.replications
    summary = McSummary(param_names=tuple(plan.model.layout.names), replications=R)
    rows = []
    parallel = bool(threads and threads > 1)
    with ProcessPoolExecutor(max_workers=threads) if parallel else contextlib.nullcontext() as pool:
        mapper = functools.partial(pool.map, chunksize=max(1, R // (8 * threads))) if parallel else map
        for n in plan.n_list:
            results = mapper(functools.partial(_one_replication, plan, n), range(R))
            thetas, ses, rejects, oks = map(np.array, zip(*results))
            cell = summary.cells[n] = _cell(n, thetas, ses, rejects, oks)
            summary.flagged |= cell.n_converged < (1.0 - NONCONVERGENCE_FLAG_SHARE) * R
            if collect_estimates:
                rows.extend(
                    (n, rep, name, thetas[rep, i], ses[rep, i], oks[rep])
                    for rep in range(R)
                    for i, name in enumerate(summary.param_names)
                )
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
