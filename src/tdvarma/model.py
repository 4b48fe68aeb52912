"""Model container: orders, coefficient functions, parameter layout, noise scale.

The process is an r-vector ARMA(p, q) whose coefficient matrices and
innovation scale are deterministic functions of t, driven by independent
innovations with covariance `sigma`.  The per-time residual covariance is
Sigma_t(theta) = g_t(theta) Sigma g_t(theta)^T.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NumericalError, SingularCovarianceError
from .timefn import MatrixTimeFunction, _check_indices, index_splits

DEFAULT_CHECK_HORIZON = 400


@dataclass(frozen=True)
class ParamLayout:
    """Names and block structure of the parameter vector.

    The vector is split into three functionally independent blocks: the
    autoregressive block (size n_ar), the moving-average block (size n_ma)
    and the scale block (the rest).  Coefficient functions may only
    reference slots of their own block.
    """

    names: tuple[str, ...]
    n_ar: int
    n_ma: int
    theta0: Optional[tuple[float, ...]] = None
    bounds: Optional[tuple[Optional[tuple[float, float]], ...]] = None

    def __post_init__(self):
        m = len(self.names)
        if self.n_ar < 0 or self.n_ma < 0 or self.n_ar + self.n_ma > m:
            raise ConfigError("parameter block sizes must be non-negative and sum to at most m")
        if self.theta0 is not None:
            object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
            if len(self.theta0) != m:
                raise ConfigError("theta0 length does not match the number of parameters")
        if self.bounds is not None:
            if len(self.bounds) != m:
                raise ConfigError("bounds length does not match the number of parameters")
            norm = []
            for b in self.bounds:
                if b is None:
                    norm.append(None)
                else:
                    lo, hi = float(b[0]), float(b[1])
                    if not lo < hi:
                        raise ConfigError("each bound must satisfy lo < hi")
                    norm.append((lo, hi))
            object.__setattr__(self, "bounds", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n_scale(self) -> int:
        return self.m - self.n_ar - self.n_ma

    @property
    def ar_slots(self) -> range:
        return range(0, self.n_ar)

    @property
    def ma_slots(self) -> range:
        return range(self.n_ar, self.n_ar + self.n_ma)

    @property
    def scale_slots(self) -> range:
        return range(self.n_ar + self.n_ma, self.m)

    def theta0_array(self) -> np.ndarray:
        if self.theta0 is None:
            raise ContractError("this operation requires a layout with a true parameter value")
        return np.asarray(self.theta0, dtype=float)


@dataclass(frozen=True)
class Series:
    """An observed r-vector series of length n (rows are time points)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise ConfigError("series values must be a non-empty (n, r) array")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("series contains non-finite entries")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


class TdVarmaModel:
    """A vector ARMA(p, q) model with time-dependent coefficients.

    Parameters
    ----------
    r : process dimension.
    a_funcs, b_funcs : autoregressive / moving-average coefficient matrices
        (length p and q respectively), each an r x r MatrixTimeFunction.
    g_func : innovation scale matrix g_t(theta); identity when None.
    sigma : innovation covariance (symmetric positive definite, r x r).
    layout : parameter names / blocks / optional true value and bounds.
    check_horizon : horizon over which g_t invertibility is verified eagerly
        at construction when the layout supplies a true value.
    """

    def __init__(
        self,
        r: int,
        a_funcs: Sequence[MatrixTimeFunction],
        b_funcs: Sequence[MatrixTimeFunction],
        g_func: Optional[MatrixTimeFunction],
        sigma,
        layout: ParamLayout,
        check_horizon: int = DEFAULT_CHECK_HORIZON,
    ):
        self.r = int(r)
        self.a_funcs = tuple(a_funcs)
        self.b_funcs = tuple(b_funcs)
        self.g_func = MatrixTimeFunction.identity(r) if g_func is None else g_func
        self.sigma = _sym(np.asarray(sigma, dtype=float))
        self.layout = layout
        self.check_horizon = int(check_horizon)
        self._fixed_scale: Optional[tuple] = None
        self._validate()

    @property
    def p(self) -> int:
        return len(self.a_funcs)

    @property
    def q(self) -> int:
        return len(self.b_funcs)

    @property
    def m(self) -> int:
        return self.layout.m

    def _validate(self):
        if self.r < 1:
            raise ConfigError("dimension r must be at least 1")
        for name, funcs in (("autoregressive", self.a_funcs), ("moving-average", self.b_funcs)):
            for f in funcs:
                if f.rows != self.r:
                    raise ConfigError(f"{name} coefficient matrix has wrong dimension")
        if self.g_func.rows != self.r:
            raise ConfigError("scale matrix has wrong dimension")
        if self.sigma.shape != (self.r, self.r):
            raise ConfigError("innovation covariance has wrong shape")
        try:
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("innovation covariance is not positive definite") from exc

        lay = self.layout
        blocks = (
            ("autoregressive", self.a_funcs, set(lay.ar_slots)),
            ("moving-average", self.b_funcs, set(lay.ma_slots)),
            ("scale", (self.g_func,), set(lay.scale_slots)),
        )
        for name, funcs, allowed in blocks:
            for f in funcs:
                extra = f.param_slots() - allowed
                if extra:
                    raise ConfigError(
                        f"{name} coefficients reference slots {sorted(extra)} outside their block"
                    )
        if lay.theta0 is not None:
            self._check_scale_invertible(lay.theta0_array(), self.check_horizon)

    def _check_scale_invertible(self, theta, horizon):
        ts = np.arange(1, horizon + 1)
        g = self.g_func.value(ts, theta)
        dets = np.linalg.det(g)
        bad = np.nonzero(np.abs(dets) < 1e-12)[0]
        if bad.size:
            raise ConfigError(f"scale matrix g_t is singular at t={int(ts[bad[0]])}")

    def with_sigma(self, sigma) -> "TdVarmaModel":
        """Copy of the model with a replaced innovation covariance; it shares the
        coefficient functions and their tables."""
        new = copy.copy(self)
        new.sigma = _sym(np.asarray(sigma, dtype=float))
        new._fixed_scale = None
        try:
            np.linalg.cholesky(new.sigma)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("innovation covariance is not positive definite") from exc
        return new

    # -- per-time evaluations -------------------------------------------------

    def a_values(self, ts, theta) -> np.ndarray:
        """Stacked AR coefficients, shape (p, len(ts), r, r)."""
        return np.stack([f.value(ts, theta) for f in self.a_funcs]) if self.p else np.zeros(
            (0, len(np.atleast_1d(ts)), self.r, self.r)
        )

    def b_values(self, ts, theta) -> np.ndarray:
        return np.stack([f.value(ts, theta) for f in self.b_funcs]) if self.q else np.zeros(
            (0, len(np.atleast_1d(ts)), self.r, self.r)
        )

    def g_values(self, ts, theta) -> np.ndarray:
        return self.g_func.value(ts, theta)

    def sigma_t(self, t, theta) -> np.ndarray:
        """Residual covariance Sigma_t = g_t Sigma g_t^T (symmetrized)."""
        g = self.g_func.value(t, theta)
        return _sym(g @ self.sigma @ np.swapaxes(g, -1, -2))

    def sigma_t_all(self, n: int, theta) -> np.ndarray:
        """Residual covariances for t = 1..n, shape (n, r, r)."""
        g = self.g_func.head(n, theta)
        return _sym(g @ self.sigma @ np.swapaxes(g, -1, -2))

    def sigma_chol_all(self, n: int, theta) -> tuple[np.ndarray, np.ndarray]:
        """Sigma_t for t = 1..n and their Cholesky factors.  When g_t has no
        parameter slots neither depends on theta: both are kept, read-only, for
        the longest n asked so far and read by prefix."""
        fixed = self._fixed_scale
        if fixed is not None and fixed[0].shape[0] >= n:
            return fixed[0][:n], fixed[1][:n]
        sig = self.sigma_t_all(n, theta)
        try:
            chol = np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            for t0, st in enumerate(sig):
                try:
                    np.linalg.cholesky(st)
                except np.linalg.LinAlgError:
                    raise SingularCovarianceError(t0 + 1, theta) from None
            raise NumericalError("batched Cholesky failed without an identifiable time index")
        if not self.g_func.param_slots():
            sig.setflags(write=False)
            chol.setflags(write=False)
            self._fixed_scale = sig, chol
        return sig, chol

    def sigma_t_deriv(self, t, theta, indices) -> np.ndarray:
        """Exact derivative of Sigma_t of order 1 or 2 w.r.t. theta[indices]."""
        idx = _check_indices(indices)
        if len(idx) > 2:
            raise ContractError(
                "sigma_t_deriv supports orders 1 and 2; higher orders enter only "
                "through derivatives of the inverse"
            )
        return self._sigma_t_deriv_any(t, theta, idx)

    def _sigma_t_deriv_any(self, t, theta, idx) -> np.ndarray:
        """Leibniz expansion of d^k (g Sigma g^T) for any k <= 3."""
        sig, _ = self._sigma_t_table(t, theta, _subtuples(idx))
        tau = tuple(sorted(idx))
        return sig[tau] if tau in sig else np.zeros_like(self.g_func.value(t, theta))

    def sigma_t_inv(self, t, theta) -> np.ndarray:
        st = self.sigma_t(t, theta)
        try:
            return _sym(np.linalg.inv(st))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"residual covariance singular at t={t}") from exc

    def sigma_t_inv_deriv(self, t, theta, indices) -> np.ndarray:
        """Derivative of Sigma_t^{-1} of order 1..3 via d(M^-1) = -M^-1 dM M^-1."""
        idx = _check_indices(indices)
        _, inv = self._sigma_t_table(t, theta, _subtuples(idx), inverse=True)
        tau = tuple(sorted(idx))
        return _sym(inv[tau]) if tau in inv else np.zeros_like(inv[()])

    def _sigma_t_table(self, t, theta, taus, inverse: bool = False) -> tuple[dict, dict]:
        """({tau: d^tau Sigma_t}, {tau: d^tau Sigma_t^{-1}}) for the sorted tuples taus,
        which run by order and hold the sorted sub-tuples of each member; every product
        is formed once.  Tuples with an index outside the scale slots are identically
        zero and left out.  The inverse table is empty unless requested; it also holds
        (), and its other entries are not symmetrized."""
        g = self.g_func.deriv_map(t, theta, taus)
        sig: dict = {}
        for tau in g:
            if tau:  # the product rule over g Sigma g^T
                sig[tau] = _sym(sum(g[a] @ self.sigma @ np.swapaxes(g[b], -1, -2)
                                    for a, b in index_splits(tau)))
        inv: dict = {(): self.sigma_t_inv(t, theta)} if inverse else {}
        for tau in sig if inverse else ():
            # differentiate -M^-1 (d_head M) M^-1 by the remaining indices, split three ways
            head, rest = tau[0], tau[1:]
            splits = [(a, tuple(sorted((head,) + b)), c) for a, bc in index_splits(rest)
                      for b, c in index_splits(bc)]
            inv[tau] = sum(-inv[a] @ sig[m] @ inv[c] for a, m, c in splits
                           if a in inv and m in sig and c in inv)
        return sig, inv

    def __eq__(self, other):
        return (
            isinstance(other, TdVarmaModel)
            and self.r == other.r
            and self.a_funcs == other.a_funcs
            and self.b_funcs == other.b_funcs
            and self.g_func == other.g_func
            and np.array_equal(self.sigma, other.sigma)
            and self.layout == other.layout
        )


def _subtuples(idx: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All sorted sub-multisets of idx, deduplicated, by order."""
    return sorted({left for left, _ in index_splits(idx)}, key=lambda tau: (len(tau), tau))
