"""Population information matrix at the data-generating parameter.

The curvature limit V of the estimator is approximated at a finite horizon
n by the Cesaro average

    V_ij(n) = (1/n) sum_t [ sum_k tr( psi_{tik} Sigma_{t-k} psi_{tjk}' Sigma_t^{-1} )
                            + 0.5 tr( Sigma_t^{-1} dSigma_t/di Sigma_t^{-1} dSigma_t/dj ) ],

using independence of the innovations across time (cross-k expectations
vanish).  Theoretical standard errors are sqrt(diag(V^{-1}) / n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, NumericalError
from .model import TdVarmaModel
from .likelihood import _add_scale_info, _scale_derivs
from .representations import _resid_rows, _triangular_var1_params, triangular_var1_product
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
    v = 0.5 * (v + v.T)
    eigvals = np.linalg.eigvalsh(v)
    min_eig = float(eigvals[0])
    pd = bool(min_eig > 0.0)
    se = None
    if pd:
        se = np.sqrt(np.diag(np.linalg.inv(v)) / n)
    return InfoReport(n=n, v=v, se=se, positive_definite=pd, min_eigenvalue=min_eig)


def theoretical_v(model: TdVarmaModel, theta0, n: int, kmax: Optional[int] = None) -> InfoReport:
    """Information matrix via the MA expansion of the residual derivatives.

    The expansion is consumed one row per t, so memory stays linear in n.
    """
    theta0 = np.asarray(theta0, dtype=float)
    m = model.m
    sig = model.sigma_t_all(n, theta0)
    try:
        siginv = np.linalg.inv(sig)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular residual covariance in the information sum") from exc

    v = np.zeros((m, m))
    for t, (_, row) in enumerate(_resid_rows(model, theta0, theta0, n, 1, kmax), 1):
        slots = [i for i in range(m) if (i,) in row]
        K = row[()].shape[0] - 1
        if K == 0 or not slots:
            continue
        d = np.stack([row[(i,)][1:] for i in slots])  # (slots, K, r, r)
        # tr(psi_ik Sigma_{t-k} psi_jk' Sigma_t^{-1}) summed over k, for all pairs
        left = (d @ sig[t - 2 :: -1][:K]).reshape(len(slots), -1)
        right = (siginv[t - 1].T @ d).reshape(len(slots), -1)
        v[np.ix_(slots, slots)] += left @ right.T
    _add_scale_info(v, siginv, _scale_derivs(model, n, theta0))
    return _se_from_v(v / n, n)


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


def example2_trace_terms(
    theta0, sigma, c: float, t: int, phase: float = np.pi
) -> tuple[float, float, float]:
    """Per-time scale-block traces tr(Sigma_t^{-1} dSigma Sigma_t^{-1} dSigma)
    for the heteroscedastic example, in closed form.

    Returns the raw traces (the assembled information matrix carries the
    extra factor 1/2).  The two diagonal terms are *not* symmetric in the
    two rate parameters: the fixed +1/-1 off-diagonal of the scale matrix
    breaks the exchange symmetry, flipping one sign in the numerator.  The
    default phase matches the shipped example2 model (diagonals
    exp(eta sin(ct))); phase 0 covers scale diagonals exp(-eta sin(ct)).
    """
    sigma = np.asarray(sigma, dtype=float)
    s11, s12, s22 = sigma[0, 0], sigma[0, 1], sigma[1, 1]
    det = s11 * s22 - s12 * s12
    if det <= 0:
        raise ContractError("innovation covariance must be positive definite")
    eta1, eta2 = float(theta0[-2]), float(theta0[-1])
    u = np.sin(c * t + phase)
    denom = (1.0 + np.exp((eta1 + eta2) * u)) ** 2 * det
    v33 = 2.0 * u * u * ((np.exp(eta2 * u) * s11 - s12) ** 2 + 2.0 * det) / denom
    v44 = 2.0 * u * u * ((np.exp(eta1 * u) * s22 + s12) ** 2 + 2.0 * det) / denom
    v34 = (
        2.0
        * u
        * u
        * (
            s12 * (np.exp(eta2 * u) * s11 - s12 - np.exp(eta1 * u) * s22)
            - np.exp((eta1 + eta2) * u) * (s11 * s22 - 2.0 * s12 * s12)
        )
        / denom
    )
    return float(v33), float(v34), float(v44)
