"""Quasi-maximum likelihood fitting and sandwich standard errors.

The objective, or with estimate_sigma the profile objective, is minimized in one
Newton run with a backtracking Armijo line search.  Each point is evaluated once,
with its score and information, and with numpy's overflow, invalid and divide
warnings off: a start that raises NumericalError fails the fit without printing
them, and a trial that raises it or whose value is not finite counts as +inf, so
the search backtracks.  At each iterate that takes a step the report forms its
exact Hessian H (`ObjectiveReport.hessian`); no trial point and no final point
forms one.  The direction is -H^{-1} g, else -info^{-1} g, else -g, the first
that descends.  When the full Newton step is finite but fails the Armijo test,
the next trial is the full step along the next direction of that sequence (the
information, or Gauss-Newton, step), once per iteration, and only then does the
step halve; a trial that counts as +inf halves it at once.  Newton steps
converge quadratically near the minimum, and far from it the information step
is often the better one.  Steps are clipped to the layout's bounds; a
coordinate on a bound whose gradient points out of the box is left out of the
step and of the projected gradient g_P.  The run ends on
`gradient` (max |g_P| / n <= GRAD_TOL), `line_search` (no step down to MIN_STEP
passes), `step` (a step of at most STEP_TOL (1 + |theta|)) or `max_iters`.
Then the fit converged when the final max |g_P| / n, recorded as
`projected_grad_max_over_n`, is at most GRAD_TOL, or at most 10 GRAD_TOL after
`line_search` or `step`; a converged `max_iters` end is relabelled `gradient`.
With Sigma fixed, q = 0, affine AR matrices and no scale parameters H is the
information, so the first step is the GLS solution.  The covariance is the
sandwich V_hat^{-1} W_hat V_hat^{-1} / n at the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# FitResult.search: Hessians formed, rejected trial points, the direction each
# iteration started from, and the Newton steps that switched to the information
DIRECTIONS = ("newton", "information", "steepest")
SEARCH_COUNTS = ("hessians", "rejected", *DIRECTIONS, "switched")


@dataclass
class FitResult:
    """Point estimate, objective diagnostics, sandwich covariance and
    information-only standard errors.

    n_evals counts every objective evaluation the fit made: one at the start
    point and one per line-search trial point, accepted or not.  search counts,
    by the keys of SEARCH_COUNTS, the Hessians formed (one per iteration that
    searched), the rejected trial points, the iterations whose search started
    from the Newton, information or -g (`steepest`) direction, and those whose
    full Newton step failed and switched to the information step.  So newton +
    information + steepest = hessians, which is iters, or iters - 1 after an
    exit on the gradient test, and n_evals = 1 + rejected + the accepted steps
    (len(q_history) - 1).  projected_grad_max_over_n is max |g_P| / n at the
    estimate, the number the convergence rule compares with GRAD_TOL, or with
    10 GRAD_TOL after a `line_search` or `step` end.  sigma_hat is
    Sigma_hat(theta) at the estimate when the noise covariance is estimated,
    and V_hat and W_hat are taken at it.
    """

    theta: np.ndarray
    objective: float
    grad: np.ndarray
    projected_grad_max_over_n: float
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
    q_history: list
    metadata: dict
    search: dict


def _project(theta: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return theta
    out = theta.copy()
    for i, b in enumerate(bounds):
        if b is not None:
            out[i] = min(max(out[i], b[0]), b[1])
    return out


def _blocked(theta: np.ndarray, g: np.ndarray, bounds) -> list:
    """The coordinates on a bound whose gradient points out of the box; a step
    leaves them where they are."""
    return [i for i, b in enumerate(bounds or ())
            if b is not None and ((theta[i] <= b[0] and g[i] > 0) or (theta[i] >= b[1] and g[i] < 0))]


def _grad_max(g: np.ndarray, blocked: list) -> float:
    """max |g_i| over the coordinates that are not blocked: the largest entry of the
    projected gradient."""
    return np.max(np.abs(np.delete(g, blocked) if blocked else g), initial=0.0)


def _safe_objective(model, series, theta, estimate_sigma: bool = False,
                    ar_products: Optional[tuple] = None) -> Optional[likelihood.ObjectiveReport]:
    """The objective report at theta; None where it raises NumericalError or its value is
    not finite.  Overflow and invalid values are rejected that way, so numpy does not warn."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rep = likelihood.objective(model, series, theta, estimate_sigma, ar_products)
    except NumericalError:
        return None
    return rep if math.isfinite(rep.q) else None


def _directions(mats, g: np.ndarray):
    """(i, -M_i^{-1} g) for each M_i of mats, in order, that gives a descent direction,
    then (len(mats), -g)."""
    for i, mat in enumerate(mats):
        try:
            d = -np.linalg.solve(mat, g)
        except np.linalg.LinAlgError:
            continue
        if d @ g < 0:
            yield i, d
    yield len(mats), -g


def _minimize(model: TdVarmaModel, series: Series, theta0, estimate_sigma: bool):
    """The Newton run of the module docstring; monotone in the objective.  Returns
    theta_hat, its report and the FitResult fields the run decides."""
    n = series.n
    bounds = model.layout.bounds
    theta = _project(np.asarray(theta0, dtype=float).copy(), bounds)
    ar_products = model.ar_products(series.values)  # fixed for the fit; every evaluation reads them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as for a trial point
        rep = likelihood.objective(model, series, theta, estimate_sigma, ar_products)
    n_evals = 1
    search = dict.fromkeys(SEARCH_COUNTS, 0)
    history = [rep.q]
    termination = "max_iters"
    it = 0
    for it in range(1, MAX_ITERS + 1):
        q, g = rep.q, rep.grad
        blocked = _blocked(theta, g, bounds)
        if _grad_max(g, blocked) / n <= GRAD_TOL:
            termination = "gradient"
            break
        free = [i for i in range(g.size) if i not in blocked]  # the step moves these coordinates only
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            hess = rep.hessian()[free][:, free]
        search["hessians"] += 1
        directions = _directions((hess, rep.info[free][:, free]), g[free])
        kind, d = next(directions)
        search[DIRECTIONS[kind]] += 1
        d = _embed(d, free, g.size)
        step, switch = 1.0, kind == 0
        while step >= MIN_STEP:
            trial = _project(theta + step * d, bounds)
            trial_rep = _safe_objective(model, series, trial, estimate_sigma, ar_products)
            n_evals += 1
            if trial_rep is not None and trial_rep.q <= q + ARMIJO_C * step * (g @ d):
                break
            search["rejected"] += 1
            if switch and trial_rep is not None:  # the full Newton step failed the Armijo test
                d_next = _embed(next(directions)[1], free, g.size)
                if not np.array_equal(d_next, d):  # so the full step along the next direction is next
                    d, switch = d_next, False
                    search["switched"] += 1
                    continue
            switch = False
            step *= ARMIJO_SHRINK
        else:
            termination = "line_search"
            break
        rep = trial_rep
        s = trial - theta
        theta = trial
        history.append(rep.q)
        if np.linalg.norm(s) <= STEP_TOL * (1.0 + np.linalg.norm(theta)):
            termination = "step"
            break
    grad_max = float(_grad_max(rep.grad, _blocked(theta, rep.grad, bounds)) / n)
    converged = grad_max <= (10 * GRAD_TOL if termination in ("line_search", "step") else GRAD_TOL)
    if converged and termination == "max_iters":
        termination = "gradient"
    return theta, rep, dict(iters=it, n_evals=n_evals, converged=converged, termination=termination,
                            q_history=history, search=search, projected_grad_max_over_n=grad_max)


def _embed(d: np.ndarray, free: list, m: int) -> np.ndarray:
    """The step d over the free coordinates as a vector over all m, zero elsewhere."""
    out = np.zeros(m)
    out[free] = d
    return out


def estimate_noise_cov(model: TdVarmaModel, series: Series, theta) -> np.ndarray:
    """Sigma_hat(theta), the moment estimator of the innovation covariance that the
    profile objective uses: the average of z_t z_t' with z_t = g_t^{-1} e_t at the
    supplied parameter.  One that is not positive definite raises NumericalError."""
    res = likelihood.residuals(model, series, theta)
    return likelihood.noise_cov(model, res.whitened()[0])[0]


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
    theta, rep, record = _minimize(model, series, theta, estimate_sigma)

    vhat = what = cov = se = se_info = None
    try:
        vhat, what = likelihood.report_vw(rep)
        se_info = np.sqrt(np.diag(np.linalg.inv(vhat)) / series.n)
        sol = np.linalg.solve(vhat, what)
        cov = np.linalg.solve(vhat, sol.T).T / series.n
        cov = 0.5 * (cov + cov.T)
        diag = np.diag(cov)
        if np.all(np.isfinite(cov)) and np.all(diag >= -1e-10 * max(np.trace(cov), 1e-300)):
            se = np.sqrt(np.clip(diag, 0.0, None))
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
    return FitResult(theta=theta, objective=rep.q, grad=rep.grad, sigma_hat=rep.sigma_hat, vhat=vhat,
                     what=what, cov=cov, se=se, se_info=se_info, covariance_ok=se is not None,
                     metadata=metadata, **record)


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
