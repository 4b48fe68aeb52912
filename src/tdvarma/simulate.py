"""Process simulation with reproducible counter-based random streams.

Streams are Philox(4x64) generators keyed directly by (seed, stream):
no seed hashing is involved, so any (seed, stream) pair maps to a
documented, platform-independent innovation sequence.  Gaussian draws use
numpy's ziggurat standard-normal on the keyed generator; the algorithm
identifier is exposed for reproducibility audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError
from .likelihood import _lag_coefs, _lag_solve, _lag_sum
from .model import Series, TdVarmaModel

RNG_ALGORITHM = f"philox4x64+ziggurat-standard-normal (numpy {np.__version__})"

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given 64-bit (seed, stream) pair; key = [seed, stream]."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
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
        object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
        if len(self.theta0) != self.model.m:
            raise ConfigError("theta0 length does not match the model parameter count")


def simulate(plan: SimPlan, return_innovations: bool = False):
    """Draw one realization; identical plans yield bit-identical output.

    The innovation sequence depends only on (seed, stream), so extending n
    keeps the earlier prefix unchanged.
    """
    model, n = plan.model, plan.n
    r = model.r
    theta0 = np.asarray(plan.theta0, dtype=float)
    rng = make_rng(plan.seed, plan.stream)
    chol = np.linalg.cholesky(model.sigma)
    eps = rng.standard_normal((n, r)) @ chol.T

    scaled = np.einsum("trs,ts->tr", model.g_func.head(n, theta0), eps)
    a_all, b_all = (_lag_coefs(funcs, n, r, theta0) for funcs in (model.a_funcs, model.b_funcs))
    x = _lag_solve(-a_all, scaled + _lag_sum(b_all, scaled))
    series = Series(values=x)
    if return_innovations:
        return series, eps
    return series


def innovation_correlation(model: TdVarmaModel, theta0, t: int) -> float:
    """Off-diagonal correlation of the time-t residual covariance (bivariate only)."""
    if model.r != 2:
        raise ContractError("innovation correlation is defined for bivariate models")
    st = model.sigma_t(t, np.asarray(theta0, dtype=float))
    return float(st[0, 1] / np.sqrt(st[0, 0] * st[1, 1]))
