"""Exact Gaussian quasi-likelihood: residuals, objective, score, information.

With zero initial values the one-step prediction residuals are one
block-lower-triangular operator applied to the series,

    e = (I + B_op)^{-1} (I - A_op) x,   (A_op x)_t = sum_i A_ti(theta) x_{t-i},

so the exact likelihood needs no state-space filtering.  `_lag_sum`
applies a lag operator and `_lag_solve` applies (I + C_op)^{-1} by forward
substitution in t; the same solve gives all residual derivatives at once,
and `simulate` applies the inverse operator to the scaled innovations.
The objective is

    Q_n(theta) = 0.5 * sum_t alpha_t + (r n / 2) log(2 pi),
    alpha_t = log det Sigma_t + e_t' Sigma_t^{-1} e_t.

The Gauss-Newton (expected) Hessian of Q_n,

    sum_t de_t' Sigma_t^{-1} de_t + 0.5 tr(Sigma_t^{-1} dSigma_t Sigma_t^{-1} dSigma_t),

is n times the plug-in curvature V_hat; the optimizer scales its steps by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, NumericalError, SingularCovarianceError
from .model import Series, TdVarmaModel


@dataclass
class ResidualSet:
    """Residuals, per-time covariances, Cholesky factors, optional derivatives."""

    e: np.ndarray            # (n, r)
    sigma: np.ndarray        # (n, r, r)
    chol: np.ndarray         # (n, r, r)
    de: Optional[np.ndarray]  # (m, n, r) or None


@dataclass
class ObjectiveReport:
    """Objective value with per-observation terms and analytic score."""

    q: float
    alphas: np.ndarray       # (n,)
    grad: np.ndarray         # (m,)
    score_rows: np.ndarray   # (n, m), rows d alpha_t / d theta
    info: np.ndarray         # (m, m), Gauss-Newton Hessian of q (n * V_hat)


def _lagged(x: np.ndarray, lag: int) -> np.ndarray:
    """x shifted down by `lag` rows, zero-padded (x_s = 0 for s < 1)."""
    out = np.zeros_like(x)
    out[lag:] = x[:-lag]
    return out


def _lag_sum(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i C_ti y_{t-i} for all t; c stacks the lag-i coefficients as (k, n, r, r), y is (n, r)."""
    out = np.zeros_like(y)
    for i, ci in enumerate(c, 1):
        out += np.einsum("trs,ts->tr", ci, _lagged(y, i))
    return out


def _lag_solve(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """y solving y_t + sum_i C_ti y_{t-i} = z_t forward in t (y_s = 0 for s < 1).

    z is a (..., n, r) stack solved along its time axis; c is (k, n, r, r).
    """
    y = z.copy()
    if len(c) == 0:
        return y
    for t in range(1, y.shape[-2]):
        for i in range(min(len(c), t)):
            y[..., t, :] -= y[..., t - 1 - i, :] @ c[i, t].T
    return y


def _chol_stack(model: TdVarmaModel, sigma_all: np.ndarray, theta) -> np.ndarray:
    try:
        return np.linalg.cholesky(sigma_all)
    except np.linalg.LinAlgError:
        for t0, st in enumerate(sigma_all):
            try:
                np.linalg.cholesky(st)
            except np.linalg.LinAlgError:
                raise SingularCovarianceError(t0 + 1, theta) from None
        raise NumericalError("batched Cholesky failed without an identifiable time index")


def residuals(model: TdVarmaModel, series: Series, theta, with_derivs: bool = False) -> ResidualSet:
    """One-step residuals e_t(theta), their covariances, and optionally d e_t / d theta."""
    if series.r != model.r:
        raise ContractError(f"series dimension {series.r} does not match model dimension {model.r}")
    theta = np.asarray(theta, dtype=float)
    x = series.values
    n, r = x.shape
    ts = np.arange(1, n + 1)
    b_all = model.b_values(ts, theta)
    e = _lag_solve(b_all, x - _lag_sum(model.a_values(ts, theta), x))
    de = None
    if with_derivs:
        # row k: -(sum_i d_k A_ti x_{t-i} + sum_j d_k B_tj e_{t-j}), then the same solve as e
        de = np.zeros((model.m, n, r))
        for funcs, y in ((model.a_funcs, x), (model.b_funcs, e)):
            for lag, f in enumerate(funcs, 1):
                for k in f.param_slots():
                    de[k] -= np.einsum("trs,ts->tr", f.deriv(ts, theta, (k,)), _lagged(y, lag))
        de = _lag_solve(b_all, de)

    sigma_all = model.sigma_t_all(n, theta)
    chol = _chol_stack(model, sigma_all, theta)
    return ResidualSet(e=e, sigma=sigma_all, chol=chol, de=de)


def _scale_derivs(model: TdVarmaModel, n: int, theta) -> np.ndarray:
    """d Sigma_t / d theta_i for all t and i, shape (m, n, r, r); zero outside the scale block."""
    m, r = model.m, model.r
    out = np.zeros((m, n, r, r))
    ts = np.arange(1, n + 1)
    for slot in model.layout.scale_slots:
        out[slot] = model._sigma_t_deriv_any(ts, theta, (slot,))
    return out


def objective_value(model: TdVarmaModel, series: Series, theta) -> float:
    """Q_n(theta) alone; the cheap path for line searches."""
    res = residuals(model, series, theta, with_derivs=False)
    return _q(_alphas(res)[0], res.e.shape[1])


def _alphas(res: ResidualSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-observation terms alpha_t and the whitened residuals Sigma_t^{-1} e_t."""
    logdets = 2.0 * np.sum(np.log(np.diagonal(res.chol, axis1=1, axis2=2)), axis=1)
    w = np.linalg.solve(res.sigma, res.e[..., None])[..., 0]
    return logdets + np.einsum("tr,tr->t", res.e, w), w


def _q(alphas: np.ndarray, r: int) -> float:
    return 0.5 * float(np.sum(alphas)) + 0.5 * r * alphas.shape[0] * math.log(2.0 * math.pi)


def _score_rows(res: ResidualSet, w: np.ndarray, siginv: np.ndarray, dsig: np.ndarray) -> np.ndarray:
    """Rows d alpha_t / d theta, shape (n, m), given w_t = Sigma_t^{-1} e_t."""
    tr_term = np.einsum("tsr,itrs->ti", siginv, dsig)
    quad_term = np.einsum("tr,itrs,ts->ti", w, dsig, w)
    e_term = 2.0 * np.einsum("tr,itr->ti", w, res.de)
    return tr_term - quad_term + e_term


def _scale_info(siginv: np.ndarray, dsig: np.ndarray) -> np.ndarray:
    """sum_t 0.5 tr(Sigma_t^{-1} dSigma_t/di Sigma_t^{-1} dSigma_t/dj), shape (m, m)."""
    rel = np.einsum("tab,itbc->itac", siginv, dsig)
    return 0.5 * np.einsum("itab,jtba->ij", rel, rel)


def _info(res: ResidualSet, siginv: np.ndarray, dsig: np.ndarray) -> np.ndarray:
    """Gauss-Newton Hessian sum_t de_t' Sigma_t^{-1} de_t plus the scale term, shape (m, m)."""
    m = res.de.shape[0]
    wde = np.einsum("trs,jts->jtr", siginv, res.de)
    info = res.de.reshape(m, -1) @ wde.reshape(m, -1).T + _scale_info(siginv, dsig)
    return 0.5 * (info + info.T)


def objective(model: TdVarmaModel, series: Series, theta) -> ObjectiveReport:
    """Objective, per-observation terms, analytic score rows, gradient and
    Gauss-Newton Hessian."""
    theta = np.asarray(theta, dtype=float)
    res = residuals(model, series, theta, with_derivs=True)
    n, r = res.e.shape
    alphas, w = _alphas(res)
    siginv = np.linalg.inv(res.sigma)
    dsig = _scale_derivs(model, n, theta)
    score_rows = _score_rows(res, w, siginv, dsig)
    grad = 0.5 * score_rows.sum(axis=0)
    if not np.all(np.isfinite(score_rows)):
        raise NumericalError("non-finite entries in the score")
    return ObjectiveReport(
        q=_q(alphas, r), alphas=alphas, grad=grad, score_rows=score_rows, info=_info(res, siginv, dsig)
    )


def empirical_vw(model: TdVarmaModel, series: Series, theta) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in estimates of the curvature matrix V and score outer-product W.

    V_hat is the Gauss-Newton Hessian of Q_n divided by n: the average of
    e-derivative quadratic forms plus half the trace of squared relative
    covariance derivatives.  W_hat is the outer product of
    the realized score rows divided by 4n (rows are not centered: their
    conditional mean vanishes at the data-generating parameter).
    """
    theta = np.asarray(theta, dtype=float)
    res = residuals(model, series, theta, with_derivs=True)
    n = res.e.shape[0]
    dsig = _scale_derivs(model, n, theta)
    siginv = np.linalg.inv(res.sigma)
    v = _info(res, siginv, dsig) / n
    score_rows = _score_rows(res, _alphas(res)[1], siginv, dsig)
    what = score_rows.T @ score_rows / (4.0 * n)
    what = 0.5 * (what + what.T)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(what))):
        raise NumericalError("non-finite entries in the empirical information matrices")
    return v, what
