"""Exact Gaussian quasi-likelihood: residuals, objective, score, information.

With zero initial values the one-step prediction residuals are one
block-lower-triangular operator applied to the series,

    e = (I + B_op)^{-1} (I - A_op) x,   (A_op x)_t = sum_i A_ti(theta) x_{t-i},

so the exact likelihood needs no state-space filtering.  `_lag_sum` applies a
lag operator and `_lag_solver` solves (I + C_op) e = z by recursive doubling over
the companion form, keeping its levels: one sweep of them solves all residual
derivatives, and `simulate` builds the AR operator's with no z.  A_op x and
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

is n times the plug-in curvature V_hat.
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

The exact Hessian of Q_n, on which `fit` takes Newton steps, is formed on
demand from one evaluation's own intermediates (`ObjectiveReport.hessian`).
With Sigma fixed it is the information plus

    sum_t v_t' d_kl e_t,   v_t = Sigma_t^{-1} e_t = H_t' u_t,

which one adjoint sweep lambda = (I + B_op)^{-T} v, the evaluation's doubling
levels transposed in reverse order, turns into sums over the right-hand sides of
(I + B_op) d_kl e, and which vanishes for q = 0 with affine AR matrices; the
AR/MA-scale block -sum_t du_ti' (S_ts + S_ts') u_t, as du_t / d theta_s =
-S_ts u_t; and, in the scale block, the terms of g_t's second derivatives and of
u_t u_t' - I that the information drops.  The profile objective is
sum_t log |det g_t| + (n/2) log det Sigma_hat(theta) + const, and its Hessian is
the fixed-Sigma one at Sigma_hat(theta) less (n/2) <D_k, D_l>_F, where D_k =
B_k + B_k' and B_k = (1/n) sum_t du_tk u_t' in Sigma_hat-whitened coordinates.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from itertools import combinations_with_replacement
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, NumericalError
from .model import Series, TdVarmaModel, _lagged


@dataclass
class ResidualSet:
    """Residuals and their derivatives in one stack, with the whitening factors of
    their covariances, the log-determinants and the scale-slot stack."""

    stack: np.ndarray        # (1 + m, n, r): e, then de/d theta_k
    h: np.ndarray            # (n, r, r), H_t with H_t' H_t = Sigma_t^{-1}
    logdet: np.ndarray       # (n,)
    s: np.ndarray            # (S, n, r, r), S_t = H_t dg_t L by the S scale slots
    solver: Optional["_LagSolver"] = None  # (I + B_op)^{-1} of the MA part, None for q = 0

    @property
    def e(self) -> np.ndarray:
        """(n, r), a view of the stack."""
        return self.stack[0]

    @property
    def de(self) -> np.ndarray:
        """(m, n, r), a view of the stack."""
        return self.stack[1:]

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
    curvature: InitVar[Callable[[], np.ndarray]]  # forms the exact Hessian

    def __post_init__(self, curvature):
        self._curvature, self._hessian = curvature, None

    def hessian(self) -> np.ndarray:
        """(m, m), the exact Hessian of q at this point, formed on the first call from the
        evaluation's own intermediates."""
        if self._hessian is None:
            self._hessian = self._curvature()
        return self._hessian


def _apply(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C_t y_t for every t: c is a (..., n, r, r) stack and y an (n, r) or (..., n, r) one."""
    return (c @ y[..., None])[..., 0]


def _lag_sum(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i C_ti y_{t-i} for all t; c stacks the lag-i coefficients as (k, n, r, r), y is (n, r)."""
    out = np.zeros_like(y)
    for i, ci in enumerate(c, 1):
        out += _apply(ci, _lagged(y, i))
    return out


@dataclass
class _LagSolver:
    """(I + C_op)^{-1} from the Phi levels of a `_lag_solver` build, swept forward in t;
    `adjoint` applies (I + C_op)^{-T}, the same levels transposed in reverse order."""

    levels: list  # (d, Phi^(d)) by increasing d

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self._sweep(z, adjoint=False)

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        return self._sweep(z, adjoint=True)

    def _sweep(self, z: np.ndarray, adjoint: bool) -> np.ndarray:
        if not self.levels:
            return z.copy()
        n, r = z.shape[-2:]
        v = np.zeros((n, self.levels[0][1].shape[-1], math.prod(z.shape[:-2])))  # the stack runs along the columns
        v[:, :r] = z.reshape(-1, n, r).transpose(1, 2, 0)
        if adjoint:
            for d, phi_d in reversed(self.levels):
                v[:-d] += np.swapaxes(phi_d[d:], -1, -2) @ v[d:]
        else:
            for d, phi_d in self.levels:
                v[d:] += phi_d[d:] @ v[:-d]
        return v[:, :r].transpose(2, 0, 1).reshape(z.shape)


def _lag_solver(c: np.ndarray, z: np.ndarray) -> tuple[_LagSolver, np.ndarray]:
    """The solver of y_t + sum_i C_ti y_{t-i} = z_t (y_s = 0 for s < 1) along the time
    axis of any (..., n, r) stack, and its solution y for the stack z; c is (k, n, r, r).

    The companion Phi_t, first block row -[C_t1 ... C_tk] and identities below, gives
    Y_t = (y_t, ..., y_{t-k+1}) = Phi_t Y_{t-1} + Z_t, Z_t = (z_t, 0, ...), so [Y_t; I] is
    the product of the [[Phi_s, Z_s], [0, I]] over s <= t.  At level d = 1, 2, 4, ... one
    batched matmul composes row t > d of these products with row t - d to span 2d steps:
    their Phi blocks are the solver's levels, and their last columns end as Y_t.  Each
    y_t sees the same operations whatever n is.
    """
    k, (n, r) = len(c), z.shape[-2:]
    if k == 0:
        return _LagSolver([]), z.copy()
    kr, cols = k * r, math.prod(z.shape[:-2])  # the stack runs along the columns
    aug = np.zeros((n, kr + cols, kr + cols))  # Phi_1 multiplies Y_0 = 0 and stays zero
    np.negative(c[:, 1:].transpose(1, 2, 0, 3).reshape(n - 1, r, kr), out=aug[1:, :r, :kr])
    aug[1:, r:kr, :kr - r] = np.eye(kr - r)
    aug[:, kr:, kr:] = np.eye(cols)
    aug[:, :r, kr:] = z.reshape(-1, n, r).transpose(1, 2, 0)
    levels = []  # (d, Phi^(d)) with row t >= d of Phi^(d) the product Phi_t ... Phi_{t-d+1}
    d = 1
    while d < n:
        levels.append((d, aug[:, :kr, :kr]))
        if 2 * d < n or cols:  # the right-hand sides take the top level too
            aug = aug.copy()
            aug[d:] = aug[d:] @ aug[:-d]
        d *= 2
    return _LagSolver(levels), aug[:, :r, kr:].transpose(2, 0, 1).reshape(z.shape)


def residuals(model: TdVarmaModel, series: Series, theta, ar_products: Optional[tuple] = None) -> ResidualSet:
    """One-step residuals e_t(theta) and d e_t / d theta, with the model's `scale_factor`
    at theta: the whitening factors of their covariances, the log-determinants and the
    scale-slot stack S_t.  ar_products must be the model's `ar_products(series.values)`;
    they are formed here when not given."""
    if series.r != model.r:
        raise ContractError(f"series dimension {series.r} does not match model dimension {model.r}")
    theta = np.asarray(theta, dtype=float)
    x = series.values
    n, r = x.shape
    if ar_products is None:
        ar_products = model.ar_products(x)
    # e starts at z = x - sum_i A_ti x_{t-i}, and de row k at -sum_i d_k A_ti x_{t-i}
    stack = np.zeros((1 + model.m, n, r))
    e, de = stack[0], stack[1:]
    e[:] = x
    for prod in ar_products:
        d = prod.derivs(theta, [()] + [(k,) for k in prod.slots])
        e -= d.pop(())
        for (k,), dk in d.items():
            de[k] -= dk
    solve = None
    if model.q:  # without an MA part the residuals are z and its derivatives as they stand
        solve, e[:] = _lag_solver(model.b_values(range(1, n + 1), theta), e)
        # then row k gains -sum_j d_k B_tj e_{t-j}, and one sweep of the levels that solved e
        for lag, f in enumerate(model.b_funcs, 1):
            slots, d = f.head_grad(n, theta)
            de[list(slots)] -= _apply(d, _lagged(e, lag))
        de[:] = solve(de)
    return ResidualSet(stack, *model.scale_factor(n, theta), solver=solve)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_t' b_t along the last axis, as one matrix-vector product: numpy's sum over a
    short last axis is several times slower."""
    return (a * b) @ np.ones(a.shape[-1])


def objective_value(model: TdVarmaModel, series: Series, theta) -> float:
    """Q_n(theta), the value of `objective`'s report."""
    return objective(model, series, theta).q


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
    if ar_products is None:
        ar_products = model.ar_products(series.values)
    res = residuals(model, series, theta, ar_products=ar_products)
    w = res.whitened()  # u_t, then du_t1 .. du_tm, shape (1 + m, n, r)
    logdet, s, sigma_hat, chol = res.logdet, res.s, None, None
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
    info = 0.5 * (info + info.T)
    q = 0.5 * float(np.sum(alphas)) + 0.5 * r * alphas.shape[0] * math.log(2.0 * math.pi)
    return ObjectiveReport(
        q=q, alphas=alphas, grad=grad, score_rows=score_rows, info=info, sigma_hat=sigma_hat,
        curvature=lambda: _hessian(model, theta, res, w, s, info, chol, ar_products),
    )


def _hessian(model: TdVarmaModel, theta: np.ndarray, res: ResidualSet, w: np.ndarray, s: np.ndarray,
             info: np.ndarray, chol: Optional[np.ndarray], ar_products: tuple) -> np.ndarray:
    """The exact Hessian of the objective from one evaluation: its residual set, the
    whitened stack w and scale stack s and its information, all taken at Sigma_hat(theta)
    when chol, the K of Sigma_hat's factor L K, is given (the profile objective)."""
    u, du = w[0], w[1:]
    n, r = u.shape
    m, k = len(du), len(s)
    p = m - k  # the AR and MA slots; the k scale slots come last
    hess = info.copy()
    pure = [prod.second_derivs(theta) for prod in ar_products]  # d_kl A_op x by AR lag
    if k or model.q or any(pure):
        # v_t = Sigma_t^{-1} e_t = H_t' K^{-T} u_t weighs d_kl e_t and d_kl g_t
        v = _apply(np.swapaxes(res.h, -1, -2), u if chol is None else u @ np.linalg.inv(chol))
    if model.q or any(pure):
        hess += _residual_curvature(model, theta, res, v, pure)
    if k:
        # d u_t / d theta_s = -S_ts u_t: the AR/MA-scale block is -sum_t du_ti' (S_ts + S_ts') u_t
        x, y = _apply(s, u).reshape(k, n * r), _apply(np.swapaxes(s, -1, -2), u).reshape(k, n * r)
        cross = du[:p].reshape(p, n * r) @ (x + y).T
        hess[:p, p:] -= cross
        hess[p:, :p] -= cross.T
        # the scale block, sum_t u_t' (S_ta S_tb + S_tb S_ta + S_ta' S_tb) u_t - tr(S_ta S_tb) - <G_tab, u_t u_t' - I>
        # with G_tab = H_t d_ab g_t L, whose sum is that of <d_ab g_t, v_t z_t' - g_t^{-T}>, z_t = g_t^{-1} e_t
        quad = y @ x.T
        block = quad + quad.T + x @ x.T - s.reshape(k, -1) @ np.swapaxes(s, -1, -2).reshape(k, -1).T
        lk = model.sigma_chol if chol is None else model.sigma_chol @ chol
        weight = v[:, :, None] * (u @ lk.T)[:, None, :] - np.swapaxes(model.sigma_chol @ res.h, -1, -2)
        pairs = combinations_with_replacement(model.layout.scale_slots, 2)
        for (i, j), d2 in model.g_func.deriv_map(range(1, n + 1), theta, pairs).items():
            c = np.vdot(d2, weight)
            block[i - p, j - p] -= c
            if i != j:
                block[j - p, i - p] -= c
        hess[p:, p:] = block
    if chol is not None:
        # the profile's own term, -(n/2) <D_k, D_l> with D_k = B_k + B_k' and
        # B_k = (1/n) sum_t du_tk u_t', where du_ts = -S_ts u_t for a scale slot
        dfull = du.copy()
        if k:
            dfull[p:] = -x.reshape(k, n, r)
        b = np.swapaxes(dfull, -1, -2) @ u / n
        d = (b + np.swapaxes(b, -1, -2)).reshape(m, -1)
        hess -= 0.5 * n * d @ d.T
    return 0.5 * (hess + hess.T)


def _residual_curvature(model: TdVarmaModel, theta: np.ndarray, res: ResidualSet, v: np.ndarray,
                        pure: list) -> np.ndarray:
    """sum_t v_t' d_k d_l e_t, shape (m, m), for the (n, r) weights v, with pure the
    second derivatives of the AR products by lag.

    Differentiating (I + B_op) e = (I - A_op) x twice gives (I + B_op) d_kl e =
    -(d_kl A_op x + d_kl B_op e + d_k B_op de_l + d_l B_op de_k), so the sum is one
    adjoint solve lambda = (I + B_op)^{-T} v against those right-hand sides."""
    lam = v if res.solver is None else res.solver.adjoint(v)
    n, m = v.shape[0], model.m
    de = res.de
    out = np.zeros((m, m))  # row k: sum_t lambda_t' (d_k B_op de_l)_t over l
    for lag, f in enumerate(model.b_funcs, 1):
        slots, d = f.head_grad(n, theta)
        back = _apply(np.swapaxes(d, -1, -2), lam)[:, lag:]  # d_k B_tj' lambda_t meets de at t - j
        out[list(slots)] += back.reshape(len(slots), -1) @ de[:, :max(n - lag, 0)].reshape(m, -1).T
        pure = pure + [{kl: _apply(d2, _lagged(res.e, lag)) for kl, d2 in f.head_second(n, theta).items()}]
    out += out.T
    for terms in pure:
        for (a, b), x in terms.items():
            c = np.vdot(lam, x)
            out[a, b] += c
            if a != b:
                out[b, a] += c
    return -out


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
