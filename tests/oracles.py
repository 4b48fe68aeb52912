"""Closed forms and whole tables that the tests use as independent oracles.

Each closed form restates a quantity of the library (an AR weight, its first
derivative, a VAR(1) transition product or the example-2 scale traces) as an
explicit product or formula, for special model shapes only.  `norm_table`
holds at once the weight norms that the audits reduce block by block, each
row's formed on its own.
"""

import numpy as np

from tdvarma.errors import ContractError
from tdvarma.model import TdVarmaModel
from tdvarma.representations import _resid_rows, _rows, _triangular_var1_params, triangular_var1_product


def norm_table(model: TdVarmaModel, theta0, n: int, max_order: int, cap=None) -> tuple:
    """(taus, table): the tuples of order 1..max_order whose residual-derivative MA weights
    d^tau (M Psi)_t[k] are not identically zero, and their Frobenius norms over lags
    k = 0..min(t-1, cap) (cap None: every lag), zero-padded into table[j, t-1, k]."""
    tail = None if cap is None else (0, max_order, cap)
    taus, blocks = _resid_rows(model, theta0, theta0, n, max_order, tail)
    table = np.zeros((len(taus) - 1, n, n if cap is None else min(n - 1, cap) + 1))
    for t, row in enumerate(_rows(blocks) if len(taus) > 1 else ()):
        stack = np.ascontiguousarray(row[1:].transpose(0, 2, 1, 3))  # stack[j, k] is one r x r weight
        table[:, t, : stack.shape[1]] = np.sqrt(np.einsum("jkrs,jkrs->jk", stack, stack))
    return taus[1:], table


def varma11_pi_closed(model: TdVarmaModel, theta, t: int, k: int) -> np.ndarray:
    """Product form of the AR weights for orders (1, 1):
    pi_{tk} = (-1)^{k-1} B_t ... B_{t-k+2} (A_{t-k+1} + B_{t-k+1})."""
    if (model.p, model.q) != (1, 1):
        raise ContractError("closed-form AR weight requires orders (1, 1)")
    if not 1 <= k <= t - 1:
        raise ContractError("closed-form AR weight requires 1 <= k <= t-1")
    out = np.eye(model.r)
    for l in range(0, k - 1):
        out = out @ model.b_funcs[0].value(t - l, theta)
    tail = model.a_funcs[0].value(t - k + 1, theta) + model.b_funcs[0].value(t - k + 1, theta)
    return float((-1) ** (k - 1)) * (out @ tail)


def varma11_pi_deriv_closed(model: TdVarmaModel, theta, t: int, k: int, i: int) -> np.ndarray:
    """First derivative of the (1,1) AR weight via the factor-by-factor rule."""
    if (model.p, model.q) != (1, 1):
        raise ContractError("closed-form AR weight derivative requires orders (1, 1)")
    a, b = model.a_funcs[0], model.b_funcs[0]

    def factor(h: int, differentiate: bool) -> np.ndarray:
        th = t + 1 - h
        if h < k:
            return b.deriv(th, theta, (i,)) if differentiate else b.value(th, theta)
        return (
            a.deriv(th, theta, (i,)) + b.deriv(th, theta, (i,))
            if differentiate
            else a.value(th, theta) + b.value(th, theta)
        )

    total = np.zeros((model.r, model.r))
    for l in range(1, k + 1):
        prod = np.eye(model.r)
        for h in range(1, k + 1):
            prod = prod @ factor(h, differentiate=(h == l))
        total = total + prod
    return float((-1) ** (k - 1)) * total


def var1_transition_power(model: TdVarmaModel, theta0, t: int, k: int) -> np.ndarray:
    """Matrix product prod_{l=1}^{k-1} A_{t-l}(theta0) for upper-triangular
    sinusoidal VAR(1) models, via the closed form."""
    a11, a22, freq_a, freq_b, coupling = _triangular_var1_params(model, theta0)
    return triangular_var1_product(a11, a22, freq_a, freq_b, coupling, t, k)


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
