"""Exact Gaussian quasi-likelihood: residuals, objective, score, information.

With zero initial values the one-step prediction residuals are one
block-lower-triangular operator applied to the series,

    e = (I + B_op)^{-1} (I - A_op) x,   (A_op x)_t = sum_i A_ti(theta) x_{t-i},

so the exact likelihood needs no state-space filtering.  `_lag_sum` applies a
lag operator and `_lag_solver` builds (I + C_op)^{-1} by recursive doubling over
the companion form; the same companion products give all residual derivatives, and
`simulate` applies the inverse operator to the scaled innovations.  A_op x and
the AR rows d_k A_op x of de are linear in the fixed series, so the products of
x_{t-i} with the AR coefficient tables are formed once per series (the model's
`ar_products`, once per fit in `estimate`) and each evaluation only combines
them at theta.  The MA side, B_t and d_k B_tj e_{t-j}, moves with e and is
formed at every evaluation; without one (q = 0) there is nothing to solve.  An
evaluation keeps e and every de_k as the rows of one contiguous (1 + m, n, r)
stack, written in place by the AR products, the MA rows and the solve, so every
reduction below runs on whole arrays.  The objective is

    Q_n(theta) = 0.5 * sum_t alpha_t + (r n / 2) log(2 pi),
    alpha_t = log det Sigma_t + e_t' Sigma_t^{-1} e_t = log det Sigma_t + |u_t|^2,

where u_t = H_t e_t is the residual whitened by the model's factor H_t of
Sigma_t^{-1} = H_t' H_t.  The Gauss-Newton (expected) Hessian of Q_n, entry (i, j),

    sum_t du_ti' du_tj + 0.5 tr(D_ti D_tj),   du_ti = H_t de_t/di,
    D_ti = H_t (dSigma_t/di) H_t' = S_ti + S_ti',

is n times the plug-in curvature V_hat; the optimizer scales its steps by it.
The stack is whitened by H_t in one pass; then alpha_t and the score rows
d alpha_t / d theta_k = 2 du_tk' u_t are dot products along its last axis, and
the first term of the information is one (m, n r) @ (n r, m) matrix product of
the whitened derivative rows, with no per-t Gram matrix.  H_t, log det Sigma_t
and S_t come from the model; nothing here forms, solves or inverts a per-time
covariance.  The profile objective Q_n(theta, Sigma_hat(theta)) takes the
minimizing Sigma_hat(theta) = (1/n) sum_t z_t z_t', z_t = g_t^{-1} e_t = L u_t,
from the same residuals; its Cholesky factor is L K with K K' = (1/n)
sum_t u_t u_t', so H_t <- K^{-1} H_t, which re-whitens the whole stack by one
(rows, r) @ (r, r) product, S_t <- K^{-1} S_t K where there are scale slots, and
log det Sigma_t gains 2 log det K.  By the envelope theorem the fixed-Sigma
score and information at Sigma_hat(theta) are used as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, NumericalError
from .model import Series, TdVarmaModel, _lagged


@dataclass
class ResidualSet:
    """Residuals and, optionally, their derivatives in one stack, with the whitening
    factors of their covariances and the log-determinants."""

    stack: np.ndarray        # (1, n, r), or (1 + m, n, r) with derivatives: e, then de/d theta_k
    h: np.ndarray            # (n, r, r), H_t with H_t' H_t = Sigma_t^{-1}
    logdet: np.ndarray       # (n,)
    s: Optional[np.ndarray]  # (n_scale, n, r, r), S_t = H_t dg_t L by the scale slots, or None

    @property
    def e(self) -> np.ndarray:
        """(n, r), a view of the stack."""
        return self.stack[0]

    @property
    def de(self) -> Optional[np.ndarray]:
        """(m, n, r), a view of the stack, or None without derivatives."""
        return self.stack[1:] if len(self.stack) > 1 else None

    def whitened(self) -> np.ndarray:
        """H_t times every row of the stack, u_t = H_t e_t then du_tk = H_t de_t/d theta_k,
        as a sum over the columns of H_t that each scale a whole (rows, n) slice: no r x r
        block is multiplied on its own."""
        x, h = self.stack, self.h
        out = x[..., :1] * h[:, :, 0]
        for b in range(1, h.shape[-1]):
            out += x[..., b:b + 1] * h[:, :, b]
        return out


@dataclass
class ObjectiveReport:
    """Objective value with per-observation terms and analytic score."""

    q: float
    alphas: np.ndarray       # (n,)
    grad: np.ndarray         # (m,)
    score_rows: np.ndarray   # (n, m), rows d alpha_t / d theta
    info: np.ndarray         # (m, m), Gauss-Newton Hessian of q (n * V_hat)
    sigma_hat: Optional[np.ndarray]  # (r, r), Sigma_hat(theta) of the profile objective, or None


def _apply(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C_t y_t for every t: c is a (..., n, r, r) stack and y an (n, r) or (..., n, r) one."""
    return (c @ y[..., None])[..., 0]


def _lag_sum(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i C_ti y_{t-i} for all t; c stacks the lag-i coefficients as (k, n, r, r), y is (n, r)."""
    out = np.zeros_like(y)
    for i, ci in enumerate(c, 1):
        out += _apply(ci, _lagged(y, i))
    return out


def _lag_solver(c: np.ndarray, n: int):
    """The function z -> y solving y_t + sum_i C_ti y_{t-i} = z_t forward in t (y_s = 0
    for s < 1), for any (..., n, r) stack z, solved along its time axis; c is (k, n, r, r).

    The companion Phi_t, first block row -[C_t1 ... C_tk] and identities below, gives
    Y_t = (y_t, ..., y_{t-k+1}) = Phi_t Y_{t-1} + (z_t, 0, ...).  At level d = 1, 2, 4, ...
    each Y_t with t > d adds Phi_t ... Phi_{t-d+1} Y_{t-d}, and the products are then
    composed to span 2d steps, here, once for every z; each y_t sees the same
    operations whatever n is.
    """
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


def residuals(model: TdVarmaModel, series: Series, theta, with_derivs: bool = False,
              ar_products: Optional[tuple] = None) -> ResidualSet:
    """One-step residuals e_t(theta) with the whitening factors of their covariances, and
    optionally d e_t / d theta and the scale-slot stack S_t.  ar_products must be the
    model's `ar_products(series.values)`; they are formed here when not given."""
    if series.r != model.r:
        raise ContractError(f"series dimension {series.r} does not match model dimension {model.r}")
    theta = np.asarray(theta, dtype=float)
    x = series.values
    n, r = x.shape
    if ar_products is None:
        ar_products = model.ar_products(x)
    # e starts at z = x - sum_i A_ti x_{t-i}, and de row k at -sum_i d_k A_ti x_{t-i}
    stack = np.zeros((1 + model.m if with_derivs else 1, n, r))
    e, de = stack[0], stack[1:]
    e[:] = x
    for prod in ar_products:
        d = prod.derivs(theta, [()] + ([(k,) for k in prod.slots] if with_derivs else []))
        e -= d.pop(())
        for (k,), dk in d.items():
            de[k] -= dk
    if model.q:  # without an MA part the residuals are z and its derivatives as they stand
        solve = _lag_solver(model.b_values(range(1, n + 1), theta), n)  # shared by e and de
        e[:] = solve(e)
        if with_derivs:
            # then row k gains -sum_j d_k B_tj e_{t-j}, and takes the same solve as e
            for lag, f in enumerate(model.b_funcs, 1):
                slots, d = f.head_grad(n, theta)
                de[list(slots)] -= _apply(d, _lagged(e, lag))
            de[:] = solve(de)
    if not with_derivs:
        return ResidualSet(stack, *model.scale_factor(n, theta), s=None)
    h, logdet, s = model.scale_factor(n, theta, derivs=True)
    return ResidualSet(stack, h, logdet, s=s)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_t' b_t along the last axis, as one matrix-vector product: numpy's sum over a
    short last axis is several times slower."""
    return (a * b) @ np.ones(a.shape[-1])


def objective_value(model: TdVarmaModel, series: Series, theta) -> float:
    """Q_n(theta) alone, without the derivatives that `objective` adds."""
    res = residuals(model, series, theta, with_derivs=False)
    u = res.whitened()[0]
    return _q(res.logdet + _rowdot(u, u), u.shape[1])


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


def objective(model: TdVarmaModel, series: Series, theta, estimate_sigma: bool = False,
              ar_products: Optional[tuple] = None) -> ObjectiveReport:
    """Objective, per-observation terms, analytic score rows, gradient and
    Gauss-Newton Hessian; with estimate_sigma, those of the profile objective at
    Sigma_hat(theta), which the report carries.  ar_products is passed on to
    `residuals`."""
    theta = np.asarray(theta, dtype=float)
    res = residuals(model, series, theta, with_derivs=True, ar_products=ar_products)
    w = res.whitened()  # u_t, then du_t1 .. du_tm, shape (1 + m, n, r)
    logdet, s, sigma_hat = res.logdet, res.s, None
    r, k = w.shape[-1], s.shape[0]  # the k scale slots come last, and the residuals do not depend on them
    if estimate_sigma:
        sigma_hat, chol = noise_cov(model, w[0])
        t = np.linalg.inv(chol)
        w = (w.reshape(-1, r) @ t.T).reshape(w.shape)
        if k:
            s = t @ s @ chol
        logdet = logdet + 2.0 * float(np.sum(np.log(np.diag(chol))))
    u, dots = w[0], _rowdot(w, w[0])  # |u_t|^2, then du_tk' u_t
    alphas = logdet + dots[0]
    score_rows = 2.0 * dots[1:].T  # rows d alpha_t / d theta, shape (n, m)
    du = w[1:].reshape(len(w) - 1, -1)  # the information sums du_tk' du_tl over t in one product
    info = du @ du.T
    if k:
        # d alpha_t / d theta_s = tr D_ts - u_t' D_ts u_t = 2 <S_ts, I - u_t u_t'>
        resid = (np.eye(r) - u[:, :, None] * u[:, None, :]).reshape(-1, r * r)
        score_rows[:, -k:] += 2.0 * _rowdot(s.reshape(k, -1, r * r), resid).T
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
