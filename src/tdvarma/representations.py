"""Finite pure-AR and pure-MA representations and their derivative tables.

With zero initial values the residuals are e = M(theta) x, where the block
lower-triangular M = (I + B_op)^{-1} (I - A_op) carries lags k = 0..t-1 in
row t.  The AR weights are pi_{tk} = -M_t[k], the MA weights psi_{tk} are the
rows of Psi = M(theta0)^{-1}, and the residual derivatives expand as
d^tau e_t(theta) = sum_k (d^tau M(theta) Psi(theta0))_t[k] g_{t-k} eps_{t-k}.
All three tables are instances of one block-row recurrence over lags
k = 0..min(t-1, kmax), differentiated by the product rule:

    R_t = basis_t + sum_i U_ti basis_{t-i} + sum_j V_tj R_{t-j}   (shifted i, j lags)

    table                  U     V     basis
    M(theta)               -A    -B    identity at lag 0
    Psi(theta0)            +B    +A    identity at lag 0
    M(theta) Psi(theta0)   -A    -B    Psi(theta0)
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ContractError
from .model import TdVarmaModel
from .timefn import index_splits, sorted_tuples


def _row_recurrence(
    r: int, u_funcs, v_funcs, sign: float, theta, n: int, kmax, tuples, basis=None
) -> Iterator[dict]:
    """Rows {tau: (K_t+1, r, r) array}, t = 1..n, of the recurrence in the module
    docstring with U = sign u_funcs and V = sign v_funcs.  Tuples (sorted by order,
    from ()) that are identically zero are left out.  basis iterates theta-free rows
    (None: identity at lag 0).  Only the rows the recurrence still reads are kept."""
    if n < 1:
        raise ContractError("horizon must be at least 1")
    if kmax is not None and kmax < 0:
        raise ContractError("kmax must be non-negative")
    kcap = n - 1 if kmax is None else int(kmax)
    ts = np.arange(1, n + 1)
    # one evaluation per lag matrix for all t; exact zeros dropped
    u, v = (
        [{tau: sign * c for tau, c in f.deriv_map(ts, theta, tuples).items() if c.any()} for f in fs]
        for fs in (u_funcs, v_funcs)
    )
    # terms (lag, coefficient, source) of each tuple that is not identically zero;
    # source None is the basis, otherwise the tuple of the earlier row R_{t-lag}
    terms: dict = {}
    for tau in tuples:
        tau_terms = [(i, c[tau], None) for i, c in enumerate(u, 1) if tau in c] + [
            (j, c[sig], rho)
            for j, c in enumerate(v, 1)
            for sig, rho in index_splits(tau)
            if sig in c and (rho in terms or rho == tau)
        ]
        if not tau or any(src != tau for _, _, src in tau_terms):
            terms[tau] = tau_terms
    unit = np.eye(r)[None]
    past_basis: deque = deque(maxlen=len(u) + 1)
    past: deque = deque(maxlen=len(v))
    for t in range(1, n + 1):
        K = min(t - 1, kcap)
        past_basis.appendleft(unit if basis is None else next(basis))
        row = {}
        for tau, tau_terms in terms.items():
            acc = np.zeros((K + 1, r, r))
            if not tau:
                acc[: len(past_basis[0])] += past_basis[0]
            for lag, c, src in tau_terms:
                if lag <= K:
                    seg = (past_basis[lag] if src is None else past[lag - 1][src])[: K - lag + 1]
                    acc[lag : lag + len(seg)] += c[t - 1] @ seg
            row[tau] = acc
        past.appendleft(row)
        yield row


def _resid_rows(model: TdVarmaModel, theta, theta0, n: int, max_order: int, kmax) -> Iterator[tuple]:
    """Pairs (Psi_t(theta0), {tau: d^tau (M(theta) Psi(theta0))_t}) for t = 1..n and
    every tau up to max_order; the () entry holds the residual weights."""
    r, a, b = model.r, model.a_funcs, model.b_funcs
    psi, basis = itertools.tee(row[()] for row in _row_recurrence(r, b, a, 1.0, theta0, n, kmax, [()]))
    tuples = sorted_tuples(range(model.m), max_order)
    return zip(psi, _row_recurrence(r, a, b, -1.0, theta, n, kmax, tuples, basis))


def _lag(arr: np.ndarray, k: int, r: int) -> np.ndarray:
    return arr[k] if k < arr.shape[0] else np.zeros((r, r))


@dataclass
class ArWeightTable:
    """AR weights pi_{tk} and their theta-derivatives for t = 1..n.

    rows[t-1] maps a sorted derivative index tuple (() for the weight itself)
    to an array of shape (count[t-1], r, r) holding k = 1..count entries;
    weights beyond the stored count, and tuples without an entry, are
    exactly zero.
    """

    n: int
    r: int
    rows: list
    counts: np.ndarray
    max_order: int

    def weight(self, t: int, k: int, indices: Sequence[int] = ()) -> np.ndarray:
        if not 1 <= t <= self.n or k < 1:
            raise ContractError("AR weight requested outside the table")
        arr = self.rows[t - 1].get(tuple(sorted(int(i) for i in indices)))
        return np.zeros((self.r, self.r)) if arr is None else _lag(arr, k - 1, self.r)


@dataclass
class MaWeightTable:
    """MA weights and the MA expansion coefficients of residual derivatives.

    weights[t-1][k] is psi_{tk} at the data-generating parameter (k = 0
    entry is the identity).  resid[t-1][k] is the weight of g_{t-k} eps_{t-k}
    in e_t(theta); it vanishes for k >= 1 when theta equals the
    data-generating value.  derivs[tau][t-1][k] is the analogous weight in
    the derivative of e_t(theta) for the sorted index tuple tau.
    """

    n: int
    r: int
    weights: list
    resid: list
    derivs: dict
    max_order: int

    def weight(self, t: int, k: int) -> np.ndarray:
        return _lag(self.weights[t - 1], k, self.r)

    def resid_weight(self, t: int, k: int) -> np.ndarray:
        return _lag(self.resid[t - 1], k, self.r)

    def deriv_weight(self, t: int, k: int, indices: Sequence[int]) -> np.ndarray:
        tau = tuple(sorted(int(i) for i in indices))
        rows = self.derivs.get(tau)
        if rows is None:
            raise ContractError(f"derivative tuple {tau} was not built (max_order={self.max_order})")
        return _lag(rows[t - 1], k, self.r)


def build_pi(
    model: TdVarmaModel,
    theta,
    n: int,
    max_deriv_order: int = 0,
    kmax: Optional[int] = None,
) -> ArWeightTable:
    """AR weight table for t = 1..n with derivative layers up to max_deriv_order."""
    tuples = sorted_tuples(range(model.m), max_deriv_order)
    m_rows = _row_recurrence(model.r, model.a_funcs, model.b_funcs, -1.0, theta, n, kmax, tuples)
    rows = [{tau: -arr[1:] for tau, arr in row.items()} for row in m_rows]
    counts = np.array([row[()].shape[0] for row in rows])
    return ArWeightTable(n=n, r=model.r, rows=rows, counts=counts, max_order=max_deriv_order)


def build_psi(
    model: TdVarmaModel,
    theta_eval,
    theta_truth,
    n: int,
    max_deriv_order: int = 0,
    kmax: Optional[int] = None,
) -> MaWeightTable:
    """MA weight table plus residual-derivative expansion coefficients.

    theta_truth drives the order-0 MA weights of the observed process;
    theta_eval drives the AR weights and their derivatives.  The two
    coincide when expanding at the data-generating parameter.
    """
    weights: list = []
    resid: list = []
    derivs: dict = {tau: [] for tau in sorted_tuples(range(model.m), max_deriv_order)[1:]}
    for psi_row, row in _resid_rows(model, theta_eval, theta_truth, n, max_deriv_order, kmax):
        weights.append(psi_row)
        resid.append(row[()])
        for tau, rows in derivs.items():
            rows.append(row[tau] if tau in row else np.zeros_like(row[()]))
    return MaWeightTable(
        n=n, r=model.r, weights=weights, resid=resid, derivs=derivs, max_order=max_deriv_order
    )


# -- closed forms used as oracles -------------------------------------------


def varma11_psi_closed(model: TdVarmaModel, theta, t: int, k: int) -> np.ndarray:
    """Product form of the MA weights for orders (1, 1):
    psi_{tk} = A_t A_{t-1} ... A_{t-k+2} (B_{t-k+1} + A_{t-k+1})."""
    if (model.p, model.q) != (1, 1):
        raise ContractError("closed-form MA weight requires orders (1, 1)")
    if not 1 <= k <= t - 1:
        raise ContractError("closed-form MA weight requires 1 <= k <= t-1")
    out = np.eye(model.r)
    for l in range(0, k - 1):
        out = out @ model.a_funcs[0].value(t - l, theta)
    tail = model.b_funcs[0].value(t - k + 1, theta) + model.a_funcs[0].value(t - k + 1, theta)
    return out @ tail


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


def triangular_var1_product(
    a11: float,
    a22: float,
    freq_a: float,
    freq_b: float,
    coupling: float,
    t: int,
    k: int,
) -> np.ndarray:
    """Closed form for prod_{l=1}^{k-1} A_{t-l} when
    A_t = [[a11 sin(freq_a t), coupling], [0, a22 sin(freq_b t)]]."""
    if k < 1 or t - (k - 1) < 1:
        raise ContractError("product requires k >= 1 and t-k+1 >= 1")
    if k == 1:
        return np.eye(2)
    ls = np.arange(1, k)
    top = a11 ** (k - 1) * np.prod(np.sin(freq_a * (t - ls)))
    bot = a22 ** (k - 1) * np.prod(np.sin(freq_b * (t - ls)))
    off = 0.0
    for l in range(1, k):
        term = a11 ** (k - l - 1) * a22 ** (l - 1)
        for f in range(1, k - 1):
            if l + f <= k - 1:
                term *= np.sin(freq_a * (t - f))
            else:
                term *= np.sin(freq_b * (t - f - 1))
        off += term
    return np.array([[top, coupling * off], [0.0, bot]])


def var1_transition_power(model: TdVarmaModel, theta0, t: int, k: int) -> np.ndarray:
    """Matrix product prod_{l=1}^{k-1} A_{t-l}(theta0) for upper-triangular
    sinusoidal VAR(1) models, via the closed form."""
    a11, a22, freq_a, freq_b, coupling = _triangular_var1_params(model, theta0)
    return triangular_var1_product(a11, a22, freq_a, freq_b, coupling, t, k)


def _triangular_var1_params(model: TdVarmaModel, theta0):
    from .timefn import Constant, Param, Sine

    if (model.p, model.q) != (1, 0) or model.r != 2:
        raise ContractError("expected a bivariate pure VAR(1) model")
    theta0 = np.asarray(theta0, dtype=float)
    e = model.a_funcs[0].entries
    d_ok = isinstance(e[0][0], Sine) and isinstance(e[1][1], Sine)
    lower = isinstance(e[1][0], Constant) and e[1][0].c == 0.0
    if not (d_ok and lower):
        raise ContractError("expected upper-triangular sinusoidal VAR(1) coefficients")
    off = e[0][1]
    if isinstance(off, Constant):
        coupling = off.c
    elif isinstance(off, Param):
        coupling = float(theta0[off.slot])
    else:
        raise ContractError("expected a constant or single-parameter (1,2) coefficient")
    return (
        float(theta0[e[0][0].slot]),
        float(theta0[e[1][1].slot]),
        e[0][0].omega,
        e[1][1].omega,
        coupling,
    )
