"""Quasi-maximum likelihood fitting and sandwich standard errors.

The objective is minimized by a BFGS quasi-Newton iteration with a
backtracking Armijo line search (c = 1e-4, shrink 0.5); trial points where
the per-time covariance loses positive definiteness are treated as +inf so
the search backtracks into the feasible region.  BFGS starts from the
inverse of the Gauss-Newton information at the start point, and resets to
it at the current point when the curvature goes stale; it falls back to the
identity where that information is not positive definite.  When the
objective is quadratic in theta (no MA part, no scale parameters) the
information is its Hessian, so the first step lands on the GLS solution.
The asymptotic covariance of the estimate is the sandwich
V_hat^{-1} W_hat V_hat^{-1} / n built from the empirical curvature and
score outer-product matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import likelihood
from .errors import ContractError, NumericalError
from .model import Series, TdVarmaModel

NORMAL_CRIT_5PCT = 1.959964

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MIN_STEP = 1e-14


@dataclass
class FitOptions:
    """Optimizer and nuisance-estimation settings for one fit."""

    theta_init: tuple
    max_iters: int = 200
    grad_tol: float = 1e-6          # on max_i |dQ/dtheta_i| / n
    step_tol: float = 1e-10
    estimate_sigma: bool = False
    sigma_iters: int = 3
    bounds: Optional[tuple] = None  # falls back to the model layout bounds

    def __post_init__(self):
        object.__setattr__(self, "theta_init", tuple(float(v) for v in self.theta_init))
        if self.max_iters < 1 or self.grad_tol <= 0 or self.step_tol <= 0 or self.sigma_iters < 1:
            raise ContractError("fit options require positive tolerances and iteration counts")


@dataclass
class FitResult:
    """Point estimate, objective diagnostics, sandwich covariance and
    information-only standard errors.

    iters and n_evals are totals over all noise-covariance rounds;
    metadata["rounds"] lists (iters, n_evals, termination) per round.
    """

    theta: np.ndarray
    objective: float
    grad: np.ndarray
    sigma_hat: Optional[np.ndarray]
    vhat: Optional[np.ndarray]
    what: Optional[np.ndarray]
    cov: Optional[np.ndarray]
    se: Optional[np.ndarray]
    se_info: Optional[np.ndarray]   # sqrt(diag(V_hat^-1) / n), the information-only errors
    iters: int
    n_evals: int
    converged: bool
    termination: str
    covariance_ok: bool
    q_history: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def names(self):
        return self.metadata.get("names")


def _project(theta: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return theta
    out = theta.copy()
    for i, b in enumerate(bounds):
        if b is not None:
            out[i] = min(max(out[i], b[0]), b[1])
    return out


def _safe_value(model, series, theta) -> float:
    try:
        val = likelihood.objective_value(model, series, theta)
    except NumericalError:
        return math.inf
    return val if math.isfinite(val) else math.inf


def _inverse_info(info: np.ndarray) -> np.ndarray:
    """inv(info) through its Cholesky factor; the identity where info is not positive definite."""
    try:
        li = np.linalg.inv(np.linalg.cholesky(info))
    except np.linalg.LinAlgError:
        return np.eye(info.shape[0])
    return li.T @ li


def _minimize(model: TdVarmaModel, series: Series, theta0, opts: FitOptions, bounds):
    """BFGS from the inverse Gauss-Newton information, with Armijo backtracking;
    monotone in the objective."""
    n = series.n
    theta = _project(np.asarray(theta0, dtype=float).copy(), bounds)
    rep = likelihood.objective(model, series, theta)
    n_evals = 1
    m = theta.size
    h = _inverse_info(rep.info)
    history = [rep.q]
    termination = "max_iters"
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        q, g = rep.q, rep.grad
        if np.max(np.abs(g)) / n <= opts.grad_tol:
            termination = "gradient"
            converged = True
            break
        d = -h @ g
        if d @ g >= 0:          # stale curvature: reset to the current information
            h = _inverse_info(rep.info)
            d = -h @ g
        step = 1.0
        accepted = False
        gd = g @ d
        while step >= MIN_STEP:
            trial = _project(theta + step * d, bounds)
            q_trial = _safe_value(model, series, trial)
            n_evals += 1
            if q_trial <= q + ARMIJO_C * step * gd:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            termination = "line_search"
            converged = np.max(np.abs(g)) / n <= 10 * opts.grad_tol
            break
        rep = likelihood.objective(model, series, trial)
        n_evals += 1
        s = trial - theta
        y = rep.grad - g
        theta = trial
        history.append(rep.q)
        if np.linalg.norm(s) <= opts.step_tol * (1.0 + np.linalg.norm(theta)):
            converged = np.max(np.abs(rep.grad)) / n <= 10 * opts.grad_tol
            termination = "step"
            break
        sy = s @ y
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            v = np.eye(m) - rho * np.outer(s, y)
            h = v @ h @ v.T + rho * np.outer(s, s)
    else:
        it = opts.max_iters
    if not converged and np.max(np.abs(rep.grad)) / n <= opts.grad_tol:
        converged = True
        termination = "gradient"
    return theta, rep, it, n_evals, converged, termination, history


def estimate_noise_cov(model: TdVarmaModel, series: Series, theta, e=None) -> np.ndarray:
    """Moment estimator of the innovation covariance: the average of
    g_t^{-1} e_t e_t' g_t^{-T} at the supplied parameter, whose residuals e
    are computed unless given."""
    if e is None:
        e = likelihood.residuals(model, series, theta).e
    g = model.g_func.head(series.n, theta)
    z = np.linalg.solve(g, e[..., None])[..., 0]
    sig = z.T @ z / series.n
    return 0.5 * (sig + sig.T)


def fit(model: TdVarmaModel, series: Series, options: FitOptions) -> FitResult:
    """Minimize the objective; optionally alternate with noise-covariance updates."""
    if series.n < model.m:
        raise ContractError(
            f"series length {series.n} is smaller than the parameter count {model.m}"
        )
    if len(options.theta_init) != model.m:
        raise ContractError(f"theta_init has {len(options.theta_init)} entries for {model.m} parameters")
    bounds = options.bounds if options.bounds is not None else model.layout.bounds
    work = model
    theta = np.asarray(options.theta_init, dtype=float)
    sigma_hat = None
    rounds = options.sigma_iters if options.estimate_sigma else 1
    history: list = []
    per_round: list = []
    for rnd in range(rounds):
        theta, rep, iters, n_evals, converged, termination, hist = _minimize(
            work, series, theta, options, bounds
        )
        per_round.append((iters, n_evals, termination))
        history.extend(hist if not history else hist[1:])
        if options.estimate_sigma:
            sigma_hat = estimate_noise_cov(work, series, theta, rep.e)
            work = work.with_sigma(sigma_hat)

    vhat = what = cov = se = se_info = None
    covariance_ok = False
    try:
        # the last report holds V_hat and W_hat unless sigma was replaced after it
        vhat, what = (likelihood.empirical_vw(work, series, theta) if options.estimate_sigma
                      else likelihood.report_vw(rep))
        se_info = np.sqrt(np.diag(np.linalg.inv(vhat)) / series.n)
        sol = np.linalg.solve(vhat, what)
        cov = np.linalg.solve(vhat, sol.T).T / series.n
        cov = 0.5 * (cov + cov.T)
        diag = np.diag(cov)
        if np.all(np.isfinite(cov)) and np.all(diag >= -1e-10 * max(np.trace(cov), 1e-300)):
            se = np.sqrt(np.clip(diag, 0.0, None))
            covariance_ok = True
        else:
            cov = se = None
    except (np.linalg.LinAlgError, NumericalError):
        vhat = what = cov = se = se_info = None

    metadata = {
        "names": tuple(model.layout.names),
        "sigma_estimated": bool(options.estimate_sigma),
        "sigma_estimation": "two-stage moment update; sandwich conditional on the final estimate"
        if options.estimate_sigma
        else "noise covariance held fixed",
        "score_rows_centered": False,
        "rounds": per_round,
    }
    return FitResult(
        theta=theta,
        objective=rep.q,
        grad=rep.grad,
        sigma_hat=sigma_hat,
        vhat=vhat,
        what=what,
        cov=cov,
        se=se,
        se_info=se_info,
        iters=sum(r[0] for r in per_round),
        n_evals=sum(r[1] for r in per_round),
        converged=converged,
        termination=termination,
        covariance_ok=covariance_ok,
        q_history=history,
        metadata=metadata,
    )


@dataclass(frozen=True)
class WaldTest:
    statistic: float
    reject_5pct: bool


def wald_test(result: FitResult, index: int, h0_value: float) -> WaldTest:
    """Two-sided 5% test of theta[index] = h0_value from the sandwich errors."""
    if result.se is None or not result.covariance_ok:
        raise ContractError("fit result carries no covariance; Wald test unavailable")
    se = result.se[index]
    if not se > 0:
        raise ContractError(f"standard error for parameter {index} is not positive")
    stat = (float(result.theta[index]) - float(h0_value)) / se
    return WaldTest(statistic=stat, reject_5pct=bool(abs(stat) > NORMAL_CRIT_5PCT))
