"""Exact Gaussian quasi-likelihood: residuals, objective, score, information.

With zero initial values the one-step prediction residuals satisfy the
finite recursion

    e_t = x_t - sum_i A_ti(theta) x_{t-i} - sum_j B_tj(theta) e_{t-j},

so the exact likelihood needs no state-space filtering.  The objective is

    Q_n(theta) = 0.5 * sum_t alpha_t + (r n / 2) log(2 pi),
    alpha_t = log det Sigma_t + e_t' Sigma_t^{-1} e_t,

with analytic first derivatives propagated through the same recursion.
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


def _lagged(x: np.ndarray, lag: int) -> np.ndarray:
    """x shifted down by `lag` rows, zero-padded (x_s = 0 for s < 1)."""
    if lag == 0:
        return x
    out = np.zeros_like(x)
    out[lag:] = x[:-lag]
    return out


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
    m = model.m
    ts = np.arange(1, n + 1)

    a_slots = sorted(set().union(*(f.param_slots() for f in model.a_funcs)) if model.p else set())
    b_slots = sorted(set().union(*(f.param_slots() for f in model.b_funcs)) if model.q else set())

    if model.q == 0:
        e = x.copy()
        if model.p:
            a_all = model.a_values(ts, theta)
            for i in range(model.p):
                e -= np.einsum("trs,ts->tr", a_all[i], _lagged(x, i + 1))
        de = None
        if with_derivs:
            de = np.zeros((m, n, r))
            for slot in a_slots:
                for i in range(model.p):
                    da = model.a_funcs[i].deriv(ts, theta, (slot,))
                    if da.any():
                        de[slot] -= np.einsum("trs,ts->tr", da, _lagged(x, i + 1))
    else:
        a_all = model.a_values(ts, theta)
        b_all = model.b_values(ts, theta)
        e = np.zeros((n, r))
        de = np.zeros((m, n, r)) if with_derivs else None
        da_all = db_all = None
        if with_derivs:
            da_all = {
                slot: np.stack([f.deriv(ts, theta, (slot,)) for f in model.a_funcs])
                for slot in a_slots
            }
            db_all = {
                slot: np.stack([f.deriv(ts, theta, (slot,)) for f in model.b_funcs])
                for slot in b_slots
            }
        for t0 in range(n):
            acc = x[t0].copy()
            for i in range(model.p):
                s = t0 - i - 1
                if s >= 0:
                    acc -= a_all[i, t0] @ x[s]
            for j in range(model.q):
                s = t0 - j - 1
                if s >= 0:
                    acc -= b_all[j, t0] @ e[s]
            e[t0] = acc
            if with_derivs:
                for slot in a_slots:
                    dacc = np.zeros(r)
                    for i in range(model.p):
                        s = t0 - i - 1
                        if s >= 0:
                            dacc -= da_all[slot][i, t0] @ x[s]
                    for j in range(model.q):
                        s = t0 - j - 1
                        if s >= 0:
                            dacc -= b_all[j, t0] @ de[slot, s]
                    de[slot, t0] = dacc
                for slot in b_slots:
                    dacc = np.zeros(r)
                    for j in range(model.q):
                        s = t0 - j - 1
                        if s >= 0:
                            dacc -= db_all[slot][j, t0] @ e[s]
                            dacc -= b_all[j, t0] @ de[slot, s]
                    de[slot, t0] = dacc

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


def objective(model: TdVarmaModel, series: Series, theta) -> ObjectiveReport:
    """Objective, per-observation terms, analytic score rows and gradient."""
    theta = np.asarray(theta, dtype=float)
    res = residuals(model, series, theta, with_derivs=True)
    n, r = res.e.shape
    alphas, w = _alphas(res)
    score_rows = _score_rows(res, w, np.linalg.inv(res.sigma), _scale_derivs(model, n, theta))
    grad = 0.5 * score_rows.sum(axis=0)
    if not np.all(np.isfinite(score_rows)):
        raise NumericalError("non-finite entries in the score")
    return ObjectiveReport(q=_q(alphas, r), alphas=alphas, grad=grad, score_rows=score_rows)


def empirical_vw(model: TdVarmaModel, series: Series, theta) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in estimates of the curvature matrix V and score outer-product W.

    V_hat averages e-derivative quadratic forms plus half the trace of
    squared relative covariance derivatives; W_hat is the outer product of
    the realized score rows divided by 4n (rows are not centered: their
    conditional mean vanishes at the data-generating parameter).
    """
    theta = np.asarray(theta, dtype=float)
    res = residuals(model, series, theta, with_derivs=True)
    n = res.e.shape[0]
    dsig = _scale_derivs(model, n, theta)
    siginv = np.linalg.inv(res.sigma)
    v = (np.einsum("itr,trs,jts->ij", res.de, siginv, res.de) + _scale_info(siginv, dsig)) / n
    score_rows = _score_rows(res, _alphas(res)[1], siginv, dsig)
    what = score_rows.T @ score_rows / (4.0 * n)

    v = 0.5 * (v + v.T)
    what = 0.5 * (what + what.T)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(what))):
        raise NumericalError("non-finite entries in the empirical information matrices")
    return v, what
