"""Process simulation with reproducible counter-based random streams.

Streams are Philox(4x64) generators keyed directly by (seed, stream):
no seed hashing is involved, so any (seed, stream) pair maps to a
documented, platform-independent innovation sequence.  Gaussian draws use
numpy's ziggurat standard-normal on the keyed generator; the algorithm
identifier is exposed for reproducibility audits.  The g_t, B_t and AR solve of
the last (model, theta0 bits, n) simulated are kept: a cell builds them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .likelihood import _lag_solver, _lag_sum
from .model import Series, TdVarmaModel

RNG_ALGORITHM = f"philox4x64+ziggurat-standard-normal (numpy {np.__version__})"

KEY_LIMIT = 1 << 64  # seeds and streams lie in [0, KEY_LIMIT)
_memo = [None, None, None]  # model, (theta0 bits, n) and operator of the last plan simulated


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given 64-bit (seed, stream) pair; key = [seed, stream]."""
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replication_stream(n: int, rep: int) -> int:
    """Sub-stream id for a Monte Carlo cell: high word n, low word rep."""
    return ((int(n) & 0xFFFFFFFF) << 32) | (int(rep) & 0xFFFFFFFF)


@dataclass(frozen=True)
class SimPlan:
    """One simulation run: model + true parameter, length, seed, sub-stream."""

    model: TdVarmaModel
    theta0: tuple
    n: int
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("simulation length must be at least 1")
        if self.n > np.iinfo(np.intp).max:
            raise ConfigError(f"simulation length {self.n} is past numpy's index range")
        self.model.check_length(self.n, "simulation length")
        if not (0 <= self.seed < KEY_LIMIT and 0 <= self.stream < KEY_LIMIT):
            raise ConfigError(f"seed {self.seed} and stream {self.stream} must each lie in [0, 2**64)")
        if self.theta0 is None:
            raise ConfigError("simulation needs the true parameter theta0")
        object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
        if len(self.theta0) != self.model.m:
            raise ConfigError("theta0 length does not match the model parameter count")


def simulate(plan: SimPlan) -> Series:
    """Draw one realization; identical plans yield bit-identical output.

    The innovations are eps = Z L' with Z the first n x r standard normals of
    make_rng(seed, stream) and Sigma = L L'.  They depend only on (seed, stream),
    so extending n keeps the earlier prefix unchanged.
    """
    model, n = plan.model, plan.n
    r = model.r
    theta0 = np.asarray(plan.theta0, dtype=float)
    rng = make_rng(plan.seed, plan.stream)
    eps = rng.standard_normal((n, r)) @ model.sigma_chol.T
    with np.errstate(all="ignore"):  # an overflow is reported below, by its first t
        g, b, solve = _operator(model, theta0, n)
        scaled = np.einsum("trs,ts->tr", g, eps)
        x = solve(scaled + _lag_sum(b, scaled))
    if not np.isfinite(x).all():
        raise ConfigError(f"simulated series is not finite at t = {np.argmin(np.isfinite(x).all(axis=1)) + 1}")
    return Series(values=x)


def _operator(model: TdVarmaModel, theta0: np.ndarray, n: int) -> tuple:
    """(g_t, B_t, AR solve) over t = 1..n at theta0, kept for the next plan of its cell;
    the solve's levels are built for a stack of no columns."""
    key = (theta0.tobytes(), n)
    if _memo[0] is not model or _memo[1] != key:
        ts = range(1, n + 1)
        _memo[:] = model, key, (model.g_values(ts, theta0), model.b_values(ts, theta0),
                                _lag_solver(-model.a_values(ts, theta0), np.zeros((0, n, model.r)))[0])
    return _memo[2]


def innovation_correlation(model: TdVarmaModel, theta0, t: int) -> float:
    """Off-diagonal correlation of the time-t residual covariance (bivariate only)."""
    if model.r != 2:
        raise ContractError("innovation correlation is defined for bivariate models")
    st = model.sigma_t(t, np.asarray(theta0, dtype=float))
    return float(st[0, 1] / np.sqrt(st[0, 0] * st[1, 1]))
