"""Monte Carlo harness: replicate simulate-fit cycles and tabulate them.

A run gives one McSummary with a cell per series length.  A cell keeps what
its replications produced: every replication's estimate, standard error and
convergence flag, and the true value theta0; its summary lines (a)-(d) are
read off those arrays over the replications that converged, and `LINES`
names each line's label, attribute and printed decimals.  Each replication
draws its innovations from an independent Philox stream keyed by (master seed,
n, replication index), so enlarging the n-grid or the replication count never
perturbs existing cells.  What a series needs besides its draws (g_t, B_t and the
AR solve at theta0 and n) `simulate` builds once per cell, and once per chunk of
replications in a worker.  With more than one thread, one worker pool serves
every series length of a run; its results come back in replication order, so
the cells are bit-identical whatever the pool size.  Each replication is fitted
from the plan's theta_init (the true value theta0 where it has none), bounded by
the model layout's bounds; a fit that raises NumericalError counts as excluded.
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
from .errors import ConfigError, ContractError, NumericalError
from .estimate import NORMAL_CRIT_5PCT, fit
from .model import TdVarmaModel
from .simulate import KEY_LIMIT, SimPlan, replication_stream, simulate

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
        if not 0 <= self.seed < KEY_LIMIT:
            raise ConfigError(f"seed {self.seed} must lie in [0, 2**64)")
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
    convergence flag, in replication order.  The summary lines (a)-(d) are read
    off the rows that converged; each is NaN when none did."""

    n: int
    theta0: np.ndarray             # (m,) the true value that line (d) tests
    estimates: np.ndarray          # (R, m), NaN where the fit raised
    ses: np.ndarray                # (R, m), NaN where the replication is excluded
    converged: np.ndarray          # (R,) converged with a usable covariance

    @property
    def n_converged(self) -> int:
        return int(self.converged.sum())

    @property
    def n_total(self) -> int:
        return len(self.converged)

    def _line(self, rows: np.ndarray) -> np.ndarray:
        return rows[self.converged].mean(axis=0) if self.n_converged else np.full(rows.shape[1], np.nan)

    @property
    def mean_estimate(self) -> np.ndarray:
        """Line (a)."""
        return self._line(self.estimates)

    @property
    def mean_se(self) -> np.ndarray:
        """Line (b)."""
        return self._line(self.ses)

    @property
    def std_estimate(self) -> np.ndarray:
        """Line (c): the sample standard deviation, 0 for a single converged row."""
        if self.n_converged < 2:
            return np.where(self.converged.any(), 0.0, self.mean_estimate)
        return self.estimates[self.converged].std(axis=0, ddof=1)

    @property
    def reject_pct(self) -> np.ndarray:
        """Line (d): the percentage of two-sided 5% Wald tests of theta0 that reject,
        |estimate - theta0| / se > NORMAL_CRIT_5PCT, as `wald_test` decides them."""
        return 100.0 * self._line(np.abs((self.estimates - self.theta0) / self.ses) > NORMAL_CRIT_5PCT)


@dataclass
class McSummary:
    """The cells of a run, in the order of its series lengths."""

    param_names: tuple
    cells: dict = field(default_factory=dict)          # n -> McCell

    def cell(self, n: int) -> McCell:
        return self.cells[n]

    @property
    def flagged(self) -> bool:
        """Pervasive non-convergence: some cell keeps fewer than 95% of its replications."""
        return any(c.n_converged < (1.0 - NONCONVERGENCE_FLAG_SHARE) * c.n_total for c in self.cells.values())


def _one_replication(plan: McPlan, n: int, rep: int):
    """(theta, se, ok) of replication rep at length n."""
    series = simulate(SimPlan(plan.model, plan.theta0, n, plan.seed, replication_stream(n, rep)))
    nan = np.full(plan.model.m, np.nan)
    start = plan.theta0 if plan.theta_init is None else plan.theta_init
    try:
        result = fit(plan.model, series, start, plan.estimate_sigma)
    except NumericalError:
        # a replication whose fit breaks down counts as excluded
        return nan, nan, False
    ok = bool(result.converged and result.covariance_ok)
    return result.theta, result.se if ok else nan, ok


def run_mc(plan: McPlan, threads: int = 1) -> McSummary:
    """Execute the experiment: one cell per series length, each with every
    replication.  More than one thread runs the replications in one pool of
    that many worker processes."""
    if threads < 1:
        raise ContractError(f"worker count must be at least 1, not {threads}")
    R = plan.replications
    summary = McSummary(param_names=tuple(plan.model.layout.names))
    theta0 = np.array(plan.theta0)
    parallel = threads > 1
    with ProcessPoolExecutor(max_workers=threads) if parallel else contextlib.nullcontext() as pool:
        mapper = functools.partial(pool.map, chunksize=max(1, R // (8 * threads))) if parallel else map
        for n in plan.n_list:
            results = mapper(functools.partial(_one_replication, plan, n), range(R))
            summary.cells[n] = McCell(n, theta0, *map(np.array, zip(*results)))
    return summary


# -- text serialization -------------------------------------------------------

# line letter -> (label, McCell attribute, decimals the paper prints)
LINES = {
    "a": ("mean estimate", "mean_estimate", 4),
    "b": ("mean est. se", "mean_se", 4),
    "c": ("sample std", "std_estimate", 4),
    "d": ("rejection %", "reject_pct", 1),
}


def summary_to_csv(summary: McSummary) -> str:
    """Stable CSV: one row per (n, parameter, line), shortest round-trip floats."""
    buf = io.StringIO()
    buf.write("n,param,line,value\n")
    for n in sorted(summary.cells):
        cell = summary.cells[n]
        for i, name in enumerate(summary.param_names):
            for line, (_, attr, _) in LINES.items():
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
