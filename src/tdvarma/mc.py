"""Monte Carlo harness: replicate simulate-fit cycles and tabulate them.

A run gives one McSummary with a cell per series length: every replication's
estimate, standard error and convergence flag, and the summary lines (a)-(d)
of those that converged.  Each replication draws its innovations from an
independent Philox stream keyed by (master seed, n, replication index), so
enlarging the n-grid or the replication count never perturbs existing cells.
With more than one thread, one worker pool serves every series length of a
run; its results come back in replication order, so the cells are
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
        for i, n in enumerate(self.n_list):
            if n in self.n_list[:i]:
                raise ConfigError(f"series length {n} appears more than once in n_list")

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
    """One series length: every replication's estimate, standard error and
    convergence flag, in replication order, and the summary lines of those
    that converged."""

    n: int
    estimates: np.ndarray          # (R, m), NaN where the fit raised
    ses: np.ndarray                # (R, m), NaN where the replication is excluded
    converged: np.ndarray          # (R,) converged with a usable covariance
    mean_estimate: np.ndarray      # line (a)
    mean_se: np.ndarray            # line (b)
    std_estimate: np.ndarray       # line (c)
    reject_pct: np.ndarray         # line (d)

    @property
    def n_converged(self) -> int:
        return int(self.converged.sum())

    @property
    def n_total(self) -> int:
        return len(self.converged)


@dataclass
class McSummary:
    """The cells of a run, in the order of its series lengths, plus the
    censoring flag."""

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
    """The replications at length n and the aggregates of those that converged."""
    m = thetas.shape[1]
    n_conv = int(oks.sum())
    if not n_conv:
        nanv = np.full(m, np.nan)
        return McCell(n, thetas, ses, oks, nanv, nanv, nanv, nanv)
    return McCell(
        n=n,
        estimates=thetas,
        ses=ses,
        converged=oks,
        mean_estimate=thetas[oks].mean(axis=0),
        mean_se=ses[oks].mean(axis=0),
        std_estimate=thetas[oks].std(axis=0, ddof=1) if n_conv > 1 else np.zeros(m),
        reject_pct=100.0 * rejects[oks].mean(axis=0),
    )


def run_mc(plan: McPlan, threads: int = 1) -> McSummary:
    """Execute the experiment: one cell per series length, each with every
    replication and its summary lines.  More than one thread runs the
    replications in one pool of that many worker processes."""
    R = plan.replications
    summary = McSummary(param_names=tuple(plan.model.layout.names), replications=R)
    parallel = bool(threads and threads > 1)
    with ProcessPoolExecutor(max_workers=threads) if parallel else contextlib.nullcontext() as pool:
        mapper = functools.partial(pool.map, chunksize=max(1, R // (8 * threads))) if parallel else map
        for n in plan.n_list:
            results = mapper(functools.partial(_one_replication, plan, n), range(R))
            cell = summary.cells[n] = _cell(n, *map(np.array, zip(*results)))
            summary.flagged |= cell.n_converged < (1.0 - NONCONVERGENCE_FLAG_SHARE) * R
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


def estimates_to_csv(summary: McSummary) -> str:
    """One row per (n, replication, parameter) in run order, shortest round-trip floats."""
    buf = io.StringIO()
    buf.write("n,rep,param,estimate,se,converged\n")
    for cell in summary.cells.values():
        for rep, (thetas, ses, ok) in enumerate(zip(cell.estimates, cell.ses, cell.converged)):
            for name, est, se in zip(summary.param_names, thetas, ses):
                buf.write(f"{cell.n},{rep},{name},{float(est)!r},{float(se)!r},{int(ok)}\n")
    return buf.getvalue()
