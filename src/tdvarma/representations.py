"""Finite pure-AR and pure-MA representations and their derivative tables.

With zero initial values the residuals are e = M(theta) x, where the block
lower-triangular M = (I + B_op)^{-1} (I - A_op) carries lags k = 0..t-1 in
row t.  The AR weights are pi_{tk} = -M_t[k], the MA weights psi_{tk} are the
rows of Psi = M(theta0)^{-1}, and the residual derivatives expand as
d^tau e_t(theta) = sum_k (d^tau M(theta) Psi(theta0))_t[k] g_{t-k} eps_{t-k}.
All three tables are instances of one block-row recurrence over lags
k = 0..t-1, differentiated by the product rule:

    R_t = basis_t + sum_i U_ti basis_{t-i} + sum_j V_tj R_{t-j}   (shifted i, j lags)

    table                  U     V     basis
    M(theta)               -A    -B    identity at lag 0
    Psi(theta0)            +B    +A    identity at lag 0
    M(theta) Psi(theta0)   -A    -B    Psi(theta0)

A row is stored as lag panels, (tuples, r, K_t + 1, r) with [j, :, k, :] the lag-k
weight of tuple j, so that a term U_ti R_{t-i} over all its lags is one
(r, r) @ (r, lags r) product.  The rows come in blocks of consecutive rows, as
many as the smallest lag at which V reads the recurrence's own rows, at most
BLOCK, and crossing neither a multiple of BLOCK nor the tail's step; each term is
then one batched product over the block.  That gives BLOCK rows for the
M(theta) Psi(theta0) pass of a q = 0 model (V = -B is empty), and one row
wherever V has a lag-1 term: Psi(theta0) of a model with a non-zero A_1, and
M(theta) Psi(theta0) of one with a non-zero B_1.  The rule reads only the
model's structure, so a row at a time is a block of one.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractError
from .model import TdVarmaModel
from .timefn import index_splits, sorted_tuples


BLOCK = 16  # the most rows a block holds; 64 was no faster and held 2 MB more at peak


def _row_recurrence(
    r: int, u_funcs, v_funcs, sign: float, theta, n: int, tuples, basis=None, tail=None
) -> tuple[list, Iterator[np.ndarray]]:
    """(taus, blocks) of the recurrence in the module docstring with U = sign u_funcs and
    V = sign v_funcs: the tuples (sorted by order, from ()) that are not identically
    zero, and the rows t = 1..n in blocks of consecutive rows, each block
    (rows, len(taus), r, K + 1, r) with K that of its last row.  A row is a stack of lag
    panels: block[b, j, :, k, :] is the lag-k entry of tuple taus[j], zero past the
    row's own K_t.  basis iterates theta-free rows, (1, r, lags, r) zero-padded past
    their own (None: identity at lag 0).  Only the rows the recurrence still reads are
    kept.

    The blocks follow the rule in the module docstring, so each term c_t R_{t-i}[lags]
    of a block reads finished rows.

    tail = (step, order, cap) is the one lag cap and step-down rule: rows after row
    step (every row for step 0) stack only the tuples of order <= order (a prefix
    of taus, which reads no higher order) and stop at lag cap (None: every lag).
    A lag reads only lags at or below it, so every entry that is kept has the same
    bits as without the tail."""
    if n < 1:
        raise ContractError("horizon must be at least 1")
    step, low, cap = (n, None, None) if tail is None else tail
    if cap is not None and cap < 0:
        raise ContractError("lag cap must be non-negative")
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
    span = min([BLOCK] + [lag for tau_terms in terms for lag, _, src in tau_terms if src is not None])

    def block(t0: int, ks: list, kept: list, fresh, past: deque) -> np.ndarray:
        # rows t0..t1 with lags ks, from the basis panels kept of the rows t0 - len(u)..
        # that exist, those fresh of rows t0..t1, and the own rows before t0, past[-1]
        # the last; kept is left with the last len(u) basis panels, and past gains the rows
        kept += [row[0] for row in fresh]
        t1, bases = t0 + len(ks) - 1, _panels(kept, ks[-1] + 1)
        del kept[: len(kept) - len(u)]
        acc = np.zeros((len(ks), len(taus) if t1 <= step else width, r, ks[-1] + 1, r))
        acc[:, 0, :, : bases.shape[2]] += bases[len(bases) - len(ks) :]
        segs: dict = {}  # the own rows' panels at each lag, stacked once per block
        for j, tau_terms in enumerate(terms[: acc.shape[1]]):
            for lag, c, src in tau_terms:
                first = bisect.bisect_left(ks, lag)  # the rows whose lags reach this one
                if first == len(ks):
                    continue
                if src is None:
                    seg = bases[len(bases) - len(ks) + first - lag : len(bases) - lag, :, : ks[-1] + 1 - lag]
                elif (seg := segs.get((src, lag))) is None:
                    rows = [past[s - t0][src] for s in range(t0 + first - lag, t1 - lag + 1)]
                    seg = segs[src, lag] = _panels(rows, ks[-1] + 1 - lag)
                dst = acc[first:, j, :, lag : lag + seg.shape[2]]
                dst += (c[t0 + first - 1 : t1] @ seg.reshape(len(seg), r, -1)).reshape(dst.shape)
        if len(ks) > 1:
            # a row shorter than its block's last is zero past its own lags, also where
            # a coefficient that is not finite met the zero padding of its source
            for row, k in zip(acc, ks):
                row[..., k + 1 :, :] = 0.0
        past.extend(acc)
        return acc

    def blocks() -> Iterator[np.ndarray]:
        unit = np.eye(r)[None, :, None]
        kept: list = []  # the basis panels of the len(u) rows before the block
        past: deque = deque(maxlen=len(v))  # own rows, up to the one before the block
        t0 = 1
        while t0 <= n:
            t1 = min(t0 + span - 1, n, -(-t0 // BLOCK) * BLOCK, step if t0 <= step else n)
            ks = [t - 1 if t <= step or cap is None else min(t - 1, cap) for t in range(t0, t1 + 1)]
            fresh = itertools.repeat(unit, len(ks)) if basis is None else itertools.islice(basis, len(ks))
            yield block(t0, ks, kept, fresh, past)  # kept here only through past
            t0 = t1 + 1

    return taus, blocks()


def _panels(rows: list, width: int) -> np.ndarray:
    """The (r, lags, r) panels rows stacked over their first width lags, zero-padded to
    the longest; a lone row is a view."""
    if len(rows) == 1:
        return rows[0][None, :, :width]
    width = min(width, max(row.shape[1] for row in rows))
    out = np.zeros((len(rows), rows[0].shape[0], width, rows[0].shape[2]))
    for dst, row in zip(out, rows):
        dst[:, : row.shape[1]] = row[:, :width]
    return out


def _rows(blocks) -> Iterator[np.ndarray]:
    return (row for block in blocks for row in block)


def _psi_rows(model: TdVarmaModel, theta0, n: int, tail=None) -> Iterator[np.ndarray]:
    """The rows t = 1..n of Psi(theta0), each (1, r, lags, r) as _row_recurrence makes them."""
    return _rows(_row_recurrence(model.r, model.b_funcs, model.a_funcs, 1.0, theta0, n, [()], tail=tail)[1])


def _resid_rows(model: TdVarmaModel, theta, theta0, n: int, max_order: int, tail=None, psi=None) -> tuple:
    """(taus, blocks): the _row_recurrence tuples up to max_order of M(theta) Psi(theta0)
    and its blocks of rows, produced one block at a time for the caller to reduce as
    they come.  psi iterates the rows of Psi(theta0) (None: made here, one at a time as
    the blocks read them); tail = (step, order, cap) caps and steps down both
    recurrences as in _row_recurrence, so that one pass can serve a long low-order
    horizon too."""
    psi = _psi_rows(model, theta0, n, tail) if psi is None else psi
    tuples = sorted_tuples(range(model.m), max_order)
    return _row_recurrence(model.r, model.a_funcs, model.b_funcs, -1.0, theta, n, tuples, psi, tail)


def _trimmed(rows) -> list:
    """The rows t = 1, 2, ... without their zero padding: t lags each."""
    return [row[:, :, :t] for t, row in enumerate(rows, 1)]


@dataclass
class _StackedRows:
    """Rows t = 1..n as _row_recurrence stacks them: rows[t-1][index[tau], :, k, :] is
    the lag-k entry for tuple tau.  index holds every sorted tuple of order up to
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
        return np.zeros((self.r, self.r)) if j is None or k >= row.shape[2] else row[j, :, k]


@dataclass
class ArWeightTable(_StackedRows):
    """AR weights pi_{tk} and their theta-derivatives: rows[t-1][j, :, k-1] is the
    pi_{tk} entry, k >= 1 (the rows of -M without lag 0)."""

    def weight(self, t: int, k: int, indices: Sequence[int] = ()) -> np.ndarray:
        return self._entry(t, k - 1, indices)


@dataclass
class MaWeightTable(_StackedRows):
    """MA weights and the MA expansion coefficients of residual derivatives.

    weights[t-1][0, :, k] is psi_{tk} at the data-generating parameter (the k = 0
    entry is the identity).  rows[t-1][index[tau], :, k] is the weight of
    g_{t-k} eps_{t-k} in d^tau e_t(theta); for tau = () it vanishes for k >= 1
    when theta equals the data-generating value.
    """

    weights: list

    def weight(self, t: int, k: int) -> np.ndarray:
        return self._entry(t, k, (), self.weights)

    def deriv_weight(self, t: int, k: int, indices: Sequence[int]) -> np.ndarray:
        return self._entry(t, k, indices)


def build_pi(model: TdVarmaModel, theta, n: int, max_deriv_order: int = 0) -> ArWeightTable:
    """AR weight table for t = 1..n with derivative layers up to max_deriv_order."""
    tuples = sorted_tuples(range(model.m), max_deriv_order)
    taus, blocks = _row_recurrence(model.r, model.a_funcs, model.b_funcs, -1.0, theta, n, tuples)
    return ArWeightTable._build(model, max_deriv_order, taus, [-row[:, :, 1:] for row in _trimmed(_rows(blocks))])


def build_psi(model: TdVarmaModel, theta_eval, theta_truth, n: int, max_deriv_order: int = 0) -> MaWeightTable:
    """MA weight table plus residual-derivative expansion coefficients.

    theta_truth drives the order-0 MA weights of the observed process;
    theta_eval drives the AR weights and their derivatives.  The two
    coincide when expanding at the data-generating parameter.
    """
    weights = _trimmed(_psi_rows(model, theta_truth, n))
    taus, blocks = _resid_rows(model, theta_eval, theta_truth, n, max_deriv_order, psi=iter(weights))
    return MaWeightTable._build(model, max_deriv_order, taus, _trimmed(_rows(blocks)), weights=weights)


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
