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
O(n dim^3) for a state of dimension dim = r (p + q + q (n_ar + n_ma)).  The
recursion runs in blocks of B consecutive steps, B = 8 for dim up to 12 and 1
above: the transition products and gathered noise of every block are formed at once, one pass carries P from block edge to block edge, and one
batched product fills the P_t inside the blocks.  That is about n/B + B Python
steps instead of n, for about 2.5 times the arithmetic; at B = 1 it is the per-t
recursion, operation for operation.
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
    (rep,) = _information_pass(model, theta0, (n,)).values()
    return rep


def _horizon(n) -> int:
    """n as an int: an integer >= 1 within numpy's index range, or a ContractError."""
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != n or k < 1:
        raise ContractError(f"information horizon {n!r} is not an integer >= 1")
    if k > np.iinfo(np.intp).max:
        raise ContractError(f"information horizon {k} is past numpy's index range")
    return k


def _information_pass(model: TdVarmaModel, theta0, n_grid: Sequence[int]) -> dict:
    """{n: InfoReport} for every n in n_grid, from one pass over t = 1..max(n_grid).

    The lag part of V(n) is a running sum over t, read at each grid n as the pass
    goes by.  The state recursion runs once; its stacks hold one (dim, dim) array
    per t, so memory stays linear in n.
    """
    theta0 = np.asarray(theta0, dtype=float)
    n_grid = [_horizon(n) for n in n_grid]
    if not n_grid:
        raise ContractError("information horizons must be a non-empty list of integers >= 1")
    n_max = max(n_grid)
    model.check_length(n_max, "information horizon")
    white, _, s = model.scale_factor(n_max, theta0)  # white' white = Sigma_t^{-1}

    trans, readout, noise = _state_system(model, theta0, n_max)
    dim = trans.shape[-1]
    m_arma, r = readout.shape[1:3]
    cov = _state_covariance(trans, noise)
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
    """(F, H, Q) of the state s_t = (x_t..x_{t-p+1}, eta_t..eta_{t-q+1}, and per AR/MA
    slot i, de^i_t..de^i_{t-q+1}) at theta0, where eta_t = e_t(theta0):

        s_t = F_t s_{t-1} + G eta_t,    de^i_t = H_ti s_{t-1},

    since de^i_t + sum_j B_tj de^i_{t-j} = -(sum_j d_i A_tj x_{t-j} + sum_j d_i B_tj eta_{t-j}).
    F is (n, dim, dim), H is (n, slots, r, dim) and the state noise Q_t = G Sigma_t G'
    is (n, dim, dim), for t = 1..n.
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
    gf = noise.reshape(dim, r) @ model.g_values(range(1, n + 1), theta0) @ model.sigma_chol  # G g_t L
    return trans.reshape(n, dim, dim), readout, gf @ np.swapaxes(gf, -1, -2)


def _block_steps(dim: int) -> int:
    """Steps per block of `_state_covariance` for a state of dimension dim.  Timed on one
    core against block sizes 1 to 16 at n = 50, 100 and 400, 8 steps took 0.26 to 0.87
    of the per-t time for dim 2 to 12.  At dim 16 they were slower at n = 50 and 400,
    and at dim 20 every block size above 1 was: there the block products cost more
    than the Python steps they save."""
    return 8 if dim <= 12 else 1


def _state_covariance(trans: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """(n, dim, dim) stack of P_t = F_t P_{t-1} F_t' + Q_t for t < n from P_0 = 0, where
    F_t = trans[t - 1] and Q_t = noise[t - 1].

    Block i of b = _block_steps(dim) steps takes P_{ib} to P_{ib+b}.  Over all blocks
    at once, b - 1 batched steps form Phi_j = F_{ib+j} ... F_{ib+1} and the noise
    gathered over those steps, A_j = F_{ib+j} A_{j-1} F_{ib+j}' + Q_{ib+j}; one
    sequential pass carries P_{ib+b} = Phi_b P_{ib} Phi_b' + A_b from block to block;
    and one batched product fills P_{ib+j} = Phi_j P_{ib} Phi_j' + A_j inside every
    block.  Block edges sit at multiples of b whatever n is, so each P_t takes the same
    operations for every n; at b = 1 the carry is the per-t recursion itself.
    """
    n, dim = trans.shape[0], trans.shape[-1]
    b = _block_steps(dim)
    k = -(-(n - 1) // b)  # blocks over the steps t = 1..n-1
    if b > 1:  # the block steps work in place, on copies that zero steps pad to k blocks
        fill = np.zeros((k * b - n + 1, dim, dim))  # they reach no P_t with t < n
        trans, noise = (np.concatenate([x[: n - 1], fill]) for x in (trans, noise))
    phi, acc = (x[: k * b].reshape(k, b, dim, dim) for x in (trans, noise))
    for j in range(1, b):  # phi[:, j] becomes Phi_j+1 and acc[:, j] A_j+1
        f = phi[:, j]
        acc[:, j] += f @ acc[:, j - 1] @ np.swapaxes(f, -1, -2)
        phi[:, j] = f @ phi[:, j - 1]
    cov = np.zeros((k * b + 1, dim, dim))
    edges = cov[::b]  # P_ib for i = 0..k
    for i, (f, a) in enumerate(zip(phi[:, -1], acc[:, -1])):
        edges[i + 1] = f @ edges[i] @ f.T + a
    inner = phi[:, :-1]
    cov[: k * b].reshape(k, b, dim, dim)[:, 1:] = inner @ edges[:-1, None] @ np.swapaxes(inner, -1, -2) + acc[:, :-1]
    return cov[:n]


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
