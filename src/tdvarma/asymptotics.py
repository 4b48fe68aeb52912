"""Population information matrix at the data-generating parameter.

The curvature limit V of the estimator is approximated at a finite horizon
n by the Cesaro average

    V_ij(n) = (1/n) sum_t [ tr( Sigma_t^{-1} E[de_t/di de_t/dj'] )
                            + 0.5 tr( Sigma_t^{-1} dSigma_t/di Sigma_t^{-1} dSigma_t/dj ) ].

At theta0 the residuals are the innovations eta_t = g_t eps_t, and the series,
the innovation lags and the residual derivatives form one linear state
s_t = F_t s_{t-1} + G eta_t with every derivative a readout de_t = H_t s_{t-1}.
Its covariance follows P_t = F_t P_{t-1} F_t' + G Sigma_t G' from P_0 = 0 (zero
initial values), and E[de_t/di de_t/dj'] = H_ti P_{t-1} H_tj', so V(n) costs
O(n dim^3) for a state of dimension dim = r (p + q + q (n_ar + n_ma)).
Theoretical standard errors are sqrt(diag(V^{-1}) / n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError
from .model import TdVarmaModel
from .likelihood import _scale_info
from .representations import _triangular_var1_params, triangular_var1_product
from .representations import build_psi  # unused here; perfbench/tracer.py wraps this name


@dataclass
class InfoReport:
    """Information matrix at horizon n with derived standard errors."""

    n: int
    v: np.ndarray
    se: Optional[np.ndarray]
    positive_definite: bool
    min_eigenvalue: float


def _se_from_v(v: np.ndarray, n: int) -> InfoReport:
    """V is positive definite when its smallest eigenvalue exceeds the rounding
    level of its largest, m * eps * lambda_max (numpy's matrix-rank tolerance);
    a smaller one is a null direction that rounded positive."""
    v = 0.5 * (v + v.T)
    eigvals = np.linalg.eigvalsh(v)
    min_eig = float(eigvals[0])
    pd = bool(min_eig > v.shape[0] * np.finfo(float).eps * max(float(eigvals[-1]), 0.0))
    se = None
    if pd:
        se = np.sqrt(np.diag(np.linalg.inv(v)) / n)
    return InfoReport(n=n, v=v, se=se, positive_definite=pd, min_eigenvalue=min_eig)


def theoretical_v(model: TdVarmaModel, theta0, n: int) -> InfoReport:
    """Information matrix at horizon n, from the state-covariance recursion."""
    return _information_pass(model, theta0, (n,))[int(n)]


def _information_pass(model: TdVarmaModel, theta0, n_grid: Sequence[int]) -> dict:
    """{n: InfoReport} for every n in n_grid, from one pass over t = 1..max(n_grid).

    The lag part of V(n) is a running sum over t, read at each grid n as the pass
    goes by.  The state recursion runs once; its stacks hold one (dim, dim) array
    per t, so memory stays linear in n.
    """
    theta0 = np.asarray(theta0, dtype=float)
    n_grid = [int(n) for n in n_grid]
    if not n_grid or min(n_grid) < 1:
        raise ContractError("information horizons must be a non-empty list of integers >= 1")
    n_max = max(n_grid)
    white, _, s = model.scale_factor(n_max, theta0)  # white' white = Sigma_t^{-1}

    trans, readout, noise = _state_system(model, theta0, n_max)
    dim = trans.shape[-1]
    m_arma, r = readout.shape[1:3]
    # P_t = F_t P_{t-1} F_t' + G Sigma_t G' from P_0 = 0; cov[t] holds P_t, t < n_max
    cov = np.zeros((n_max, dim, dim))
    gf = noise @ model.g_values(range(1, n_max + 1), theta0) @ model.sigma_chol  # G g_t L
    gsg = gf @ np.swapaxes(gf, -1, -2)
    for t in range(1, n_max):
        cov[t] = trans[t - 1] @ cov[t - 1] @ trans[t - 1].T + gsg[t - 1]
    # tr(Sigma_t^{-1} H_ti P_{t-1} H_tj') for all slot pairs (i, j), summed over t
    wr = white[:, None] @ readout
    left = (wr @ cov[:, None]).reshape(n_max, m_arma, r * dim)
    lag = np.cumsum(left @ wr.reshape(n_max, m_arma, r * dim).transpose(0, 2, 1), axis=0)
    scale = slice(m_arma, model.m)  # the scale slots come last
    out = {}
    for n in n_grid:
        v = np.zeros((model.m, model.m))
        v[:m_arma, :m_arma] = lag[n - 1]
        v[scale, scale] = _scale_info(s[:, :n])
        out[n] = _se_from_v(v / n, n)
    return out


def _state_system(model: TdVarmaModel, theta0, n: int) -> tuple:
    """(F, H, G) of the state s_t = (x_t..x_{t-p+1}, eta_t..eta_{t-q+1}, and per AR/MA
    slot i, de^i_t..de^i_{t-q+1}) at theta0, where eta_t = e_t(theta0):

        s_t = F_t s_{t-1} + G eta_t,    de^i_t = H_ti s_{t-1},

    since de^i_t + sum_j B_tj de^i_{t-j} = -(sum_j d_i A_tj x_{t-j} + sum_j d_i B_tj eta_{t-j}).
    F is (n, dim, dim), H is (n, slots, r, dim) and G is (dim, r), for t = 1..n.
    """
    r, p, q = model.r, model.p, model.q
    m_arma = model.layout.n_ar + model.layout.n_ma
    a_all = model.a_values(range(1, n + 1), theta0)
    b_all = model.b_values(range(1, n + 1), theta0)
    nb = p + q + m_arma * q  # state blocks of size r; x, eta and each slot's de come in turn
    de_head = p + q + q * np.arange(m_arma)
    readout = np.zeros((m_arma, n, r, nb, r))
    for funcs, first in ((model.a_funcs, 0), (model.b_funcs, p)):
        for lag, f in enumerate(funcs):
            slots, d = f.head_grad(n, theta0)
            readout[:, :, :, first + lag][list(slots)] -= d
    for i, head in enumerate(de_head):
        for lag in range(q):
            readout[i, :, :, head + lag] = -b_all[lag]
    trans = np.zeros((n, nb, r, nb, r))
    if p:  # x_t = sum_i A_ti x_{t-i} + eta_t + sum_j B_tj eta_{t-j}
        trans[:, 0, :, :p] = a_all.transpose(1, 2, 0, 3)
        trans[:, 0, :, p : p + q] = b_all.transpose(1, 2, 0, 3)
    if q:  # without an MA part de_t is a readout only, and the state holds the x lags
        trans[:, de_head] = readout.transpose(1, 0, 2, 3, 4)
    groups = [(0, p), (p, q)] + [(h, q) for h in de_head]
    for head, length in groups:
        for blk in range(head + 1, head + length):  # shift the older lags down one block
            trans[:, blk, :, blk - 1] = np.eye(r)
    noise = np.zeros((nb, r, r))
    noise[[head for head, length in groups[:2] if length]] = np.eye(r)  # eta_t enters x_t and eta_t
    dim = nb * r
    readout = readout.transpose(1, 0, 2, 3, 4).reshape(n, m_arma, r, dim)
    return trans.reshape(n, dim, dim), readout, noise.reshape(dim, r)


def example1_v_closed(model: TdVarmaModel, theta0, n: int) -> InfoReport:
    """Closed-form information matrix for the upper-triangular sinusoidal
    VAR(1) with identity residual covariance; off-diagonal entries vanish."""
    a11, a22, freq_a, freq_b, coupling = _triangular_var1_params(model, theta0)
    if model.layout.m != 2:
        raise ContractError("closed-form information matrix covers the two-parameter variant")
    if not np.allclose(model.sigma, np.eye(2)):
        raise ContractError("closed form assumes identity innovation covariance")
    v11 = 0.0
    v22 = 0.0
    for t in range(1, n + 1):
        s1 = 0.0
        s2 = 0.0
        for k in range(1, t):
            prod = triangular_var1_product(a11, a22, freq_a, freq_b, coupling, t, k)
            s1 += prod[0, 0] ** 2 + prod[0, 1] ** 2
            s2 += prod[1, 1] ** 2
        v11 += np.sin(freq_a * t) ** 2 * s1
        v22 += np.sin(freq_b * t) ** 2 * s2
    v = np.diag([v11 / n, v22 / n])
    return _se_from_v(v, n)
