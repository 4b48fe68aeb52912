"""Quasi-maximum likelihood fitting and sandwich standard errors.

The objective, or with estimate_sigma the profile objective, is minimized in
one quasi-Newton run with a backtracking Armijo line search (c = 1e-4, shrink
0.5).  Each trial point is evaluated once, with its score and information, and
an accepted trial's report is the next iterate's.  A trial whose evaluation
raises NumericalError (a per-time or estimated covariance that is not positive
definite, overflowing residuals, a non-finite score) or whose value is not
finite counts as +inf, so the search backtracks.  The Hessian model B starts at
the Gauss-Newton information; after each accepted step it takes the change in
the information, B += info_+ - info, then the BFGS secant update where s'y > 0
and s'Bs > 0.  The direction is -B^{-1} g, else -info^{-1} g, else -g, the
first that descends.  With a fixed noise covariance and no MA part or scale
parameters the information is the exact, constant Hessian, so this is plain
BFGS and the first step lands on the GLS solution.  The asymptotic covariance
is the sandwich V_hat^{-1} W_hat V_hat^{-1} / n from the last evaluation.
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
MAX_ITERS = 200        # iterations per optimization
GRAD_TOL = 1e-6        # on max_i |dQ/dtheta_i| / n
STEP_TOL = 1e-10       # on |step| / (1 + |theta|)


@dataclass
class FitResult:
    """Point estimate, objective diagnostics, sandwich covariance and
    information-only standard errors.

    n_evals counts every objective evaluation the fit made: one at the start
    point and one per line-search trial point, accepted or not.  sigma_hat is
    Sigma_hat(theta) at the estimate when the noise covariance is estimated,
    and V_hat and W_hat are taken at it.
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


def _project(theta: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return theta
    out = theta.copy()
    for i, b in enumerate(bounds):
        if b is not None:
            out[i] = min(max(out[i], b[0]), b[1])
    return out


def _safe_objective(model, series, theta, estimate_sigma: bool = False) -> Optional[likelihood.ObjectiveReport]:
    """The objective report at theta; None where it raises NumericalError or its value is
    not finite.  Overflow and invalid values are rejected that way, so numpy does not warn."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rep = likelihood.objective(model, series, theta, estimate_sigma)
    except NumericalError:
        return None
    return rep if math.isfinite(rep.q) else None


def _descent(mats, g: np.ndarray) -> np.ndarray:
    """-M^{-1} g for the first M of mats that gives a descent direction; -g if none does."""
    for mat in mats:
        try:
            d = -np.linalg.solve(mat, g)
        except np.linalg.LinAlgError:
            continue
        if d @ g < 0:
            return d
    return -g


def _minimize(model: TdVarmaModel, series: Series, theta0, estimate_sigma: bool):
    """The quasi-Newton run of the module docstring, projected onto the layout's
    bounds; monotone in the objective."""
    n = series.n
    bounds = model.layout.bounds
    theta = _project(np.asarray(theta0, dtype=float).copy(), bounds)
    rep = likelihood.objective(model, series, theta, estimate_sigma)
    n_evals = 1
    b = rep.info.copy()
    history = [rep.q]
    termination = "max_iters"
    converged = False
    it = 0
    for it in range(1, MAX_ITERS + 1):
        q, g = rep.q, rep.grad
        if np.max(np.abs(g)) / n <= GRAD_TOL:
            termination = "gradient"
            converged = True
            break
        d = _descent((b, rep.info), g)
        step = 1.0
        accepted = False
        gd = g @ d
        while step >= MIN_STEP:
            trial = _project(theta + step * d, bounds)
            trial_rep = _safe_objective(model, series, trial, estimate_sigma)
            n_evals += 1
            if trial_rep is not None and trial_rep.q <= q + ARMIJO_C * step * gd:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            termination = "line_search"
            converged = np.max(np.abs(g)) / n <= 10 * GRAD_TOL
            break
        b += trial_rep.info - rep.info
        rep = trial_rep
        s = trial - theta
        y = rep.grad - g
        theta = trial
        history.append(rep.q)
        if np.linalg.norm(s) <= STEP_TOL * (1.0 + np.linalg.norm(theta)):
            converged = np.max(np.abs(rep.grad)) / n <= 10 * GRAD_TOL
            termination = "step"
            break
        bs = b @ s
        sy, sbs = s @ y, s @ bs
        if sy > 0 and sbs > 0:
            b += np.outer(y, y) / sy - np.outer(bs, bs) / sbs
    else:
        it = MAX_ITERS
    if not converged and np.max(np.abs(rep.grad)) / n <= GRAD_TOL:
        converged = True
        termination = "gradient"
    return theta, rep, it, n_evals, converged, termination, history


def estimate_noise_cov(model: TdVarmaModel, series: Series, theta) -> np.ndarray:
    """Sigma_hat(theta), the moment estimator of the innovation covariance that the
    profile objective uses: the average of z_t z_t' with z_t = g_t^{-1} e_t at the
    supplied parameter.  One that is not positive definite raises NumericalError."""
    res = likelihood.residuals(model, series, theta)
    return likelihood.noise_cov(model, (res.h @ res.e[..., None])[..., 0])[0]


def fit(model: TdVarmaModel, series: Series, theta_init, estimate_sigma: bool = False) -> FitResult:
    """Minimize the objective from theta_init within the layout's bounds; with
    estimate_sigma, the profile objective over theta, the noise covariance taken
    as Sigma_hat(theta) at each evaluation.  A Sigma_hat that is singular or not
    finite at the start point raises NumericalError."""
    if series.n < model.m:
        raise ContractError(
            f"series length {series.n} is smaller than the parameter count {model.m}"
        )
    theta = np.asarray(theta_init, dtype=float)
    if theta.shape != (model.m,):
        raise ContractError(f"theta_init has {theta.size} entries for {model.m} parameters")
    theta, rep, iters, n_evals, converged, termination, history = _minimize(model, series, theta, estimate_sigma)

    vhat = what = cov = se = se_info = None
    covariance_ok = False
    try:
        vhat, what = likelihood.report_vw(rep)
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
        "sigma_estimated": bool(estimate_sigma),
        "sigma_estimation": "profile likelihood; sandwich conditional on the final estimate"
        if estimate_sigma
        else "noise covariance held fixed",
        "score_rows_centered": False,
    }
    return FitResult(
        theta=theta,
        objective=rep.q,
        grad=rep.grad,
        sigma_hat=rep.sigma_hat,
        vhat=vhat,
        what=what,
        cov=cov,
        se=se,
        se_info=se_info,
        iters=iters,
        n_evals=n_evals,
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
