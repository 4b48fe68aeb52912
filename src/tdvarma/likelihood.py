"""Exact Gaussian quasi-likelihood: residuals, objective, score, information.

With zero initial values the one-step prediction residuals are one
block-lower-triangular operator applied to the series,

    e = (I + B_op)^{-1} (I - A_op) x,   (A_op x)_t = sum_i A_ti(theta) x_{t-i},

so the exact likelihood needs no state-space filtering.  `_lag_sum` applies a
lag operator and `_lag_solve` applies (I + C_op)^{-1} by recursive doubling over
the companion form; the same companion products give all residual derivatives, and
`simulate` applies the inverse operator to the scaled innovations.
The objective is

    Q_n(theta) = 0.5 * sum_t alpha_t + (r n / 2) log(2 pi),
    alpha_t = log det Sigma_t + e_t' Sigma_t^{-1} e_t = log det Sigma_t + |u_t|^2,

where u_t = H_t e_t is the residual whitened by the model's factor H_t of
Sigma_t^{-1} = H_t' H_t.  The Gauss-Newton (expected) Hessian of Q_n, entry (i, j),

    sum_t du_ti' du_tj + 0.5 tr(D_ti D_tj),   du_ti = H_t de_t/di,
    D_ti = H_t (dSigma_t/di) H_t' = S_ti + S_ti',

is n times the plug-in curvature V_hat; the optimizer scales its steps by it.
H_t, log det Sigma_t and S_t come from the model; nothing here forms, solves or
inverts a per-time covariance.  The profile objective Q_n(theta, Sigma_hat(theta))
takes the minimizing Sigma_hat(theta) = (1/n) sum_t z_t z_t', z_t = g_t^{-1} e_t =
L u_t, from the same residuals; its Cholesky factor is L K with K K' = (1/n)
sum_t u_t u_t', so H_t <- K^{-1} H_t, S_t <- K^{-1} S_t K and log det Sigma_t
gains 2 log det K.  By the envelope theorem the fixed-Sigma score and
information at Sigma_hat(theta) are used as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, NumericalError
from .model import Series, TdVarmaModel


@dataclass
class ResidualSet:
    """Residuals, the whitening factors of their covariances, log-determinants, optional derivatives."""

    e: np.ndarray            # (n, r)
    h: np.ndarray            # (n, r, r), H_t with H_t' H_t = Sigma_t^{-1}
    logdet: np.ndarray       # (n,)
    de: Optional[np.ndarray]  # (m, n, r) or None
    s: Optional[np.ndarray]  # (n_scale, n, r, r), S_t = H_t dg_t L by the scale slots, or None


@dataclass
class ObjectiveReport:
    """Objective value with per-observation terms and analytic score."""

    q: float
    alphas: np.ndarray       # (n,)
    grad: np.ndarray         # (m,)
    score_rows: np.ndarray   # (n, m), rows d alpha_t / d theta
    info: np.ndarray         # (m, m), Gauss-Newton Hessian of q (n * V_hat)
    sigma_hat: Optional[np.ndarray]  # (r, r), Sigma_hat(theta) of the profile objective, or None


def _lagged(x: np.ndarray, lag: int) -> np.ndarray:
    """x shifted down by `lag` rows, zero-padded (x_s = 0 for s < 1)."""
    out = np.zeros_like(x)
    out[lag:] = x[:-lag]
    return out


def _apply(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C_t y_t for every t: c is a (..., n, r, r) stack and y an (n, r) or (..., n, r) one."""
    return (c @ y[..., None])[..., 0]


def _lag_sum(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i C_ti y_{t-i} for all t; c stacks the lag-i coefficients as (k, n, r, r), y is (n, r)."""
    out = np.zeros_like(y)
    for i, ci in enumerate(c, 1):
        out += _apply(ci, _lagged(y, i))
    return out


def _lag_solve(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """y solving y_t + sum_i C_ti y_{t-i} = z_t forward in t (y_s = 0 for s < 1).

    z is a (..., n, r) stack solved along its time axis; c is (k, n, r, r).  The
    companion Phi_t, first block row -[C_t1 ... C_tk] and identities below, gives
    Y_t = (y_t, ..., y_{t-k+1}) = Phi_t Y_{t-1} + (z_t, 0, ...).  At level d = 1, 2, 4, ...
    each Y_t with t > d adds Phi_t ... Phi_{t-d+1} Y_{t-d}, and the products are then
    composed to span 2d steps; each y_t sees the same operations whatever n is.
    """
    return _lag_solver(c, z.shape[-2])(z)


def _lag_solver(c: np.ndarray, n: int):
    """`_lag_solve(c, .)` for right-hand sides of length n, as a function of z.  The
    companion products of every level are composed once, and every z reuses them."""
    k = len(c)
    if k == 0:
        return np.copy
    r = c.shape[-1]
    phi = np.zeros((n, k * r, k * r))
    phi[:, :r] = -np.concatenate(c, axis=-1)
    phi[:, r:, :-r] = np.eye((k - 1) * r)
    phi[0] = 0.0  # it multiplies Y_0 = 0
    levels = []  # (d, Phi^(d)) with row t >= d of Phi^(d) the product Phi_t ... Phi_{t-d+1}
    d = 1
    while d < n:
        levels.append((d, phi))
        if 2 * d < n:
            phi = phi.copy()
            phi[d:] = phi[d:] @ phi[:-d]
        d *= 2

    def solve(z: np.ndarray) -> np.ndarray:
        v = np.zeros((n, k * r, math.prod(z.shape[:-2])))  # the stack runs along the columns
        v[:, :r] = z.reshape(-1, n, r).transpose(1, 2, 0)
        for d, phi_d in levels:
            v[d:] += phi_d[d:] @ v[:-d]
        return v[:, :r].transpose(2, 0, 1).reshape(z.shape)

    return solve


def residuals(model: TdVarmaModel, series: Series, theta, with_derivs: bool = False) -> ResidualSet:
    """One-step residuals e_t(theta) with the whitening factors of their covariances, and
    optionally d e_t / d theta and the scale-slot stack S_t."""
    if series.r != model.r:
        raise ContractError(f"series dimension {series.r} does not match model dimension {model.r}")
    theta = np.asarray(theta, dtype=float)
    x = series.values
    n, r = x.shape
    ts = range(1, n + 1)
    solve = _lag_solver(model.b_values(ts, theta), n)  # shared by e and de
    e = solve(x - _lag_sum(model.a_values(ts, theta), x))
    if not with_derivs:
        return ResidualSet(e, *model.scale_factor(n, theta)[1:], de=None, s=None)
    # row k: -(sum_i d_k A_ti x_{t-i} + sum_j d_k B_tj e_{t-j}), then the same solve as e
    de = np.zeros((model.m, n, r))
    for funcs, y in ((model.a_funcs, x), (model.b_funcs, e)):
        for lag, f in enumerate(funcs, 1):
            slots, d = f.head_grad(n, theta)
            de[list(slots)] -= _apply(d, _lagged(y, lag))
    _, h, logdet, s = model.scale_factor(n, theta, derivs=True)
    return ResidualSet(e, h, logdet, de=solve(de), s=s)


def objective_value(model: TdVarmaModel, series: Series, theta) -> float:
    """Q_n(theta) alone, without the derivatives that `objective` adds."""
    res = residuals(model, series, theta, with_derivs=False)
    u = _apply(res.h, res.e)
    return _q(res.logdet + np.sum(u * u, axis=-1), u.shape[1])


def _q(alphas: np.ndarray, r: int) -> float:
    return 0.5 * float(np.sum(alphas)) + 0.5 * r * alphas.shape[0] * math.log(2.0 * math.pi)


def _scale_info(s: np.ndarray) -> np.ndarray:
    """sum_t 0.5 tr(D_ti D_tj) over the k scale slots of the stack s, shape (k, k), where
    D_t = S_t + S_t' = H_t dSigma_t H_t' is symmetric."""
    d = (s + np.swapaxes(s, -1, -2)).reshape(s.shape[0], math.prod(s.shape[1:]))
    return 0.5 * d @ d.T


def noise_cov(model: TdVarmaModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma_hat, K) from the residuals u_t = H_t e_t whitened by the model's Sigma = L L',
    with K K' = (1/n) sum_t u_t u_t'; one not positive definite raises NumericalError."""
    c = u.T @ u / u.shape[0]
    try:
        k = np.linalg.cholesky(0.5 * (c + c.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("estimated innovation covariance is not positive definite") from exc
    lk = model.sigma_chol @ k
    return lk @ lk.T, k


def objective(model: TdVarmaModel, series: Series, theta, estimate_sigma: bool = False) -> ObjectiveReport:
    """Objective, per-observation terms, analytic score rows, gradient and
    Gauss-Newton Hessian; with estimate_sigma, those of the profile objective at
    Sigma_hat(theta), which the report carries."""
    theta = np.asarray(theta, dtype=float)
    res = residuals(model, series, theta, with_derivs=True)
    # per t, the rows u_t, du_t1 .. du_tm whitened at once, and their Gram matrix
    w = np.concatenate((res.e[None], res.de)).transpose(1, 0, 2) @ np.swapaxes(res.h, -1, -2)
    logdet, s, sigma_hat = res.logdet, res.s, None
    if estimate_sigma:
        sigma_hat, chol = noise_cov(model, w[:, 0])
        t = np.linalg.inv(chol)
        w = w @ t.T
        s = t @ s @ chol
        logdet = logdet + 2.0 * float(np.sum(np.log(np.diag(chol))))
    gram = w @ np.swapaxes(w, -1, -2)
    u, r = w[:, 0], w.shape[-1]
    alphas = logdet + gram[:, 0, 0]
    score_rows = 2.0 * gram[:, 1:, 0]  # rows d alpha_t / d theta, shape (n, m)
    info = gram[:, 1:, 1:].sum(axis=0)
    k = s.shape[0]  # the scale slots come last, and the residuals do not depend on them
    if k:
        # d alpha_t / d theta_s = tr D_ts - u_t' D_ts u_t = 2 <S_ts, I - u_t u_t'>
        score_rows[:, -k:] += 2.0 * np.sum(s * (np.eye(r) - u[:, :, None] * u[:, None, :]), axis=(-2, -1)).T
        info[-k:, -k:] += _scale_info(s)
    grad = 0.5 * score_rows.sum(axis=0)
    if not np.all(np.isfinite(score_rows)):
        raise NumericalError("non-finite entries in the score")
    return ObjectiveReport(
        q=_q(alphas, r), alphas=alphas, grad=grad, score_rows=score_rows,
        info=0.5 * (info + info.T), sigma_hat=sigma_hat,
    )


def empirical_vw(model: TdVarmaModel, series: Series, theta) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in estimates of the curvature matrix V and score outer-product W at theta;
    see `report_vw`."""
    return report_vw(objective(model, series, theta))


def report_vw(rep: ObjectiveReport) -> tuple[np.ndarray, np.ndarray]:
    """(V_hat, W_hat) from the objective report at a parameter.

    V_hat is the Gauss-Newton Hessian of Q_n divided by n: the average of
    e-derivative quadratic forms plus half the trace of squared relative
    covariance derivatives.  W_hat is the outer product of
    the realized score rows divided by 4n (rows are not centered: their
    conditional mean vanishes at the data-generating parameter).
    """
    n = rep.alphas.shape[0]
    v = rep.info / n
    what = rep.score_rows.T @ rep.score_rows / (4.0 * n)
    what = 0.5 * (what + what.T)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(what))):
        raise NumericalError("non-finite entries in the empirical information matrices")
    return v, what
