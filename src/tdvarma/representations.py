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
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractError
from .model import TdVarmaModel
from .timefn import index_splits, sorted_tuples


def _row_recurrence(
    r: int, u_funcs, v_funcs, sign: float, theta, n: int, kmax, tuples, basis=None, tail=None
) -> tuple[list, Iterator[np.ndarray]]:
    """(taus, rows) of the recurrence in the module docstring with U = sign u_funcs and
    V = sign v_funcs: the tuples (sorted by order, from ()) that are not identically
    zero, and for t = 1..n their rows stacked as (len(taus), K_t + 1, r, r).  basis
    iterates theta-free rows (None: identity at lag 0).  Only the rows the
    recurrence still reads are kept.

    tail = (step, order, cap) steps the recurrence down after row step: later rows
    stack only the tuples of order <= order (a prefix of taus, which reads no
    higher order) and stop at lag cap.  A lag reads only lags at or below it, so
    every entry that is kept has the same bits as without the tail."""
    if n < 1:
        raise ContractError("horizon must be at least 1")
    if kmax is not None and kmax < 0:
        raise ContractError("kmax must be non-negative")
    kcap = n - 1 if kmax is None else int(kmax)
    step, low, tail_cap = (n, None, kcap) if tail is None else tail
    ts = range(1, n + 1)
    # one evaluation per lag matrix for all t; exact zeros dropped
    u, v = (
        [{tau: sign * c for tau, c in f.deriv_map(ts, theta, tuples).items() if c.any()} for f in fs]
        for fs in (u_funcs, v_funcs)
    )
    # terms (lag, coefficient, source) of each tuple that is not identically zero;
    # source None is the basis, otherwise the stack position of the earlier row R_{t-lag}
    taus, terms = [], []
    for tau in tuples:
        here = len(taus)
        tau_terms = [(i, c[tau], None) for i, c in enumerate(u, 1) if tau in c] + [
            (j, c[sig], here if rho == tau else taus.index(rho))
            for j, c in enumerate(v, 1)
            for sig, rho in index_splits(tau)
            if sig in c and (rho in taus or rho == tau)
        ]
        if not tau or any(src != here for _, _, src in tau_terms):
            taus.append(tau)
            terms.append(tau_terms)

    width = len(taus) if low is None else sum(len(tau) <= low for tau in taus)

    def rows() -> Iterator[np.ndarray]:
        unit = np.eye(r)[None]
        past_basis: deque = deque(maxlen=len(u) + 1)
        past: deque = deque(maxlen=len(v))
        for t in range(1, n + 1):
            K = min(t - 1, kcap if t <= step else tail_cap)
            past_basis.appendleft(unit if basis is None else next(basis))
            acc = np.zeros((len(taus) if t <= step else width, K + 1, r, r))
            acc[0, : len(past_basis[0])] += past_basis[0]
            for row, tau_terms in zip(acc, terms):
                for lag, c, src in tau_terms:
                    if lag <= K:
                        seg = (past_basis[lag] if src is None else past[lag - 1][src])[: K - lag + 1]
                        row[lag : lag + len(seg)] += c[t - 1] @ seg
            past.appendleft(acc)
            yield acc

    return taus, rows()


def _resid_rows(model: TdVarmaModel, theta, theta0, n: int, max_order: int, kmax, tail=None) -> tuple:
    """(taus, pairs): the _row_recurrence tuples up to max_order of M(theta) Psi(theta0),
    and per t the row stacks of Psi(theta0), (1, K_t + 1, r, r), and of d^taus (M Psi).
    The pairs are produced one t at a time, for the caller to reduce as they come;
    tail = (step, order, cap) steps both recurrences down after row step, as in
    _row_recurrence, so that one pass can serve a long low-order horizon too."""
    r, a, b = model.r, model.a_funcs, model.b_funcs
    psi, basis = itertools.tee(_row_recurrence(r, b, a, 1.0, theta0, n, kmax, [()], tail=tail)[1])
    tuples = sorted_tuples(range(model.m), max_order)
    taus, rows = _row_recurrence(r, a, b, -1.0, theta, n, kmax, tuples, (s[0] for s in basis), tail)
    return taus, zip(psi, rows)


@dataclass
class _StackedRows:
    """Rows t = 1..n as _row_recurrence stacks them: rows[t-1][index[tau], k] is the
    lag-k entry for tuple tau.  index holds every sorted tuple of order up to
    max_order; one mapped to None (identically zero) and a lag beyond the row read
    as zero, and any other tuple is an error."""

    n: int
    r: int
    index: dict
    rows: list
    max_order: int

    @classmethod
    def _build(cls, model: TdVarmaModel, max_order: int, taus: list, rows: list, **more):
        index = {tau: taus.index(tau) if tau in taus else None for tau in sorted_tuples(range(model.m), max_order)}
        return cls(n=len(rows), r=model.r, index=index, rows=rows, max_order=max_order, **more)

    def _entry(self, t: int, k: int, indices: Sequence[int], rows=None) -> np.ndarray:
        if not 1 <= t <= self.n or k < 0:
            raise ContractError("weight requested outside the table")
        tau = tuple(sorted(int(i) for i in indices))
        if tau not in self.index:
            raise ContractError(f"derivative tuple {tau} was not built (max_order={self.max_order})")
        j, row = self.index[tau], (self.rows if rows is None else rows)[t - 1]
        return np.zeros((self.r, self.r)) if j is None or k >= row.shape[1] else row[j, k]


@dataclass
class ArWeightTable(_StackedRows):
    """AR weights pi_{tk} and their theta-derivatives: rows[t-1][j, k-1] is the
    pi_{tk} entry, k >= 1 (the rows of -M without lag 0)."""

    def weight(self, t: int, k: int, indices: Sequence[int] = ()) -> np.ndarray:
        return self._entry(t, k - 1, indices)


@dataclass
class MaWeightTable(_StackedRows):
    """MA weights and the MA expansion coefficients of residual derivatives.

    weights[t-1][0, k] is psi_{tk} at the data-generating parameter (the k = 0
    entry is the identity).  rows[t-1][index[tau], k] is the weight of
    g_{t-k} eps_{t-k} in d^tau e_t(theta); for tau = () it vanishes for k >= 1
    when theta equals the data-generating value.
    """

    weights: list

    def weight(self, t: int, k: int) -> np.ndarray:
        return self._entry(t, k, (), self.weights)

    def resid_weight(self, t: int, k: int) -> np.ndarray:
        return self._entry(t, k, ())

    def deriv_weight(self, t: int, k: int, indices: Sequence[int]) -> np.ndarray:
        return self._entry(t, k, indices)


def build_pi(model: TdVarmaModel, theta, n: int, max_deriv_order: int = 0) -> ArWeightTable:
    """AR weight table for t = 1..n with derivative layers up to max_deriv_order."""
    tuples = sorted_tuples(range(model.m), max_deriv_order)
    taus, rows = _row_recurrence(model.r, model.a_funcs, model.b_funcs, -1.0, theta, n, None, tuples)
    return ArWeightTable._build(model, max_deriv_order, taus, [-row[:, 1:] for row in rows])


def build_psi(model: TdVarmaModel, theta_eval, theta_truth, n: int, max_deriv_order: int = 0) -> MaWeightTable:
    """MA weight table plus residual-derivative expansion coefficients.

    theta_truth drives the order-0 MA weights of the observed process;
    theta_eval drives the AR weights and their derivatives.  The two
    coincide when expanding at the data-generating parameter.
    """
    taus, pairs = _resid_rows(model, theta_eval, theta_truth, n, max_deriv_order, None)
    weights, rows = (list(side) for side in zip(*pairs))
    return MaWeightTable._build(model, max_deriv_order, taus, rows, weights=weights)


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
