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
(r, r) @ (r, lags r) product.  The rows of each derivative order are made in
blocks of consecutive rows: BLOCK of them from each 1 + multiple of BLOCK, halved
while they would take more than BLOCK_BYTES, and never more than a lower order's.
In a block, each term that reads the basis, a lower order or a row before the
block is one batched product over the block's rows, X_t.  The block's own rows
then follow by recursive doubling (Kogge and Stone 1973): stacked over the panels'
left axis, Y_t = (R_t, sh_1 R_{t-1}, ...) = X_t + sh_1 (Phi_t Y_{t-1}) with Phi_t the
companion of V's lags and sh_1 a move by one lag, so the levels that
likelihood._lag_solver builds for the block apply as they are, and level d moves
its source by d lags, a fixed offset of d r columns in a panel.  A row's operations
depend only on its place in its block, and the blocks only on the rows, r and the
number of tuples of each order up to the row's own: not on n, the tail, or the
orders a pass asks for above.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractError
from .likelihood import _lag_solver
from .model import TdVarmaModel
from .timefn import index_splits, sorted_tuples


BLOCK = 16  # the most rows a block holds; 8 was slower and 32 no faster on example2's audit
BLOCK_BYTES = 1 << 19  # the most bytes a block's rows of one order take at their full lags;
# 1 MB was no faster and peaked 2.6 MB higher on the default audit of a VARMA(1, 1)


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

    Each order is made in the blocks of the module docstring; a block handed out holds
    the rows that every order has finished, split at the tail's step.

    tail = (step, order, cap) is the one lag cap and step-down rule: rows after row
    step (every row for step 0) stack only the tuples of order <= order (a prefix
    of taus, which reads no higher order) and stop at lag cap (None: every lag).
    A lag reads only lags at or below it, and the blocks do not depend on n or the
    tail, so every entry that is kept has the same bits as without the tail, and as
    at any other n."""
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

    order = [len(tau) for tau in taus]
    width = len(taus) if low is None else sum(o <= low for o in order)
    spans = {o: (order.index(o), len(order) - order[::-1].index(o)) for o in order}  # taus[lo:hi] of order o
    # the doubling's companion reads V_tj R_{t-j} of a row's own tuple, j = 1..own
    own = max((j for j, c in enumerate(v, 1) if () in c), default=0)
    minus_v = np.stack([-c[()] if () in c else np.zeros((n, r, r)) for c in v[:own]]) if own else None

    def lags(t: int) -> int:
        return t - 1 if t <= step or cap is None else min(t - 1, cap)

    def sizes(g0: int) -> dict:
        # the rows of each order's blocks in the group g0..g0 + BLOCK - 1: BLOCK, halved
        # while they would take more than BLOCK_BYTES at the lags of the group's last
        # row without the tail, and no more than a lower order's; so the blocks depend
        # on neither n nor the tail nor the orders above
        out, rows = {}, BLOCK
        for o, (lo, hi) in spans.items():
            while rows > 1 and rows * (hi - lo) * r * r * 8 * (g0 + BLOCK - 1) > BLOCK_BYTES:
                rows //= 2
            out[o] = rows
        return out

    def blocks() -> Iterator[np.ndarray]:
        unit = np.eye(r)[None, :, None]
        kept: list = []  # the basis panels of the rows from t = first on
        past: deque = deque(maxlen=len(v))  # own rows, up to the one before the block
        made: dict = {}  # order -> (first row, rows) of its current block

        def solve(out: np.ndarray, a: int, lo: int, hi: int, segs: dict) -> None:
            # rows a.. of the tuples taus[lo:hi] into the zeros out: every term that reads
            # the basis, a lower order or an own row before a, then the own rows by
            # doubling; segs holds the block's source panels, stacked once for its orders
            nb, nk = len(out), out.shape[3]
            if (bases := segs.get(None)) is None:  # the basis rows a - len(u).. that exist
                have = kept[max(a - len(u) - first, 0) : a + nb - first]
                # the identity basis is one panel, repeated
                bases = segs[None] = np.broadcast_to(unit, (len(have), r, 1, r)) if basis is None else _panels(have, nk)
            end = len(bases)  # bases[end - 1] is row a + nb - 1
            if lo == 0:
                out[:, 0, :, : bases.shape[2]] += bases[end - nb :]

            def source(src: int, s: int) -> np.ndarray:
                if s < a:
                    return past[s - a][src]
                start, rows = made[order[src]]
                return rows[s - start, src - spans[order[src]][0]]

            for j in range(lo, hi):
                for lag, c, src in terms[j]:
                    i0, i1 = max(0, lag + 1 - a), min(nb, lag) if src == j else nb
                    if i0 >= i1 or lag >= nk:
                        continue
                    if src is None:
                        seg = bases[end - nb + i0 - lag : end - lag, :, : nk - lag]
                    elif (seg := segs.get((src, lag, i1))) is None:
                        seg = segs[src, lag, i1] = _panels([source(src, a + i - lag) for i in range(i0, i1)], nk - lag)
                    dst = out[i0:i1, j - lo, :, lag : lag + seg.shape[2]]
                    dst += (c[a + i0 - 1 : a + i1 - 1] @ seg.reshape(len(seg), r, -1)).reshape(dst.shape)
            if own and nb > 1:
                # Y_t = (R_t, sh_1 R_{t-1}, ...) stacked over the panels' left axis, so level
                # d of the solver's doubling moves its source d lags, d r columns of a panel
                y = out if own == 1 else np.concatenate([out, np.zeros((nb, hi - lo, (own - 1) * r, nk, r))], axis=2)
                if (levels := segs.get("levels")) is None:  # one build for the block's orders
                    levels = segs["levels"] = _lag_solver(minus_v[:, a - 1 : a - 1 + nb], np.zeros((0, nb, r)))[0].levels
                for d, phi in levels:
                    if d < nk:  # a capped row's lags reach no further
                        moved = phi[d:, None] @ y[:-d, :, :, : nk - d].reshape(nb - d, hi - lo, own * r, -1)
                        y[d:, :, :, d:] += moved.reshape(nb - d, hi - lo, own * r, nk - d, r)
                if own > 1:
                    out[:] = y[:, :, :r]

        for g0 in range(1, n + 1, BLOCK):
            g1, size = min(g0 + BLOCK - 1, n), sizes(g0)
            fresh = itertools.repeat(unit, g1 - g0 + 1) if basis is None else itertools.islice(basis, g1 - g0 + 1)
            del kept[: max(len(kept) - len(u), 0)]
            kept += [row[0] for row in fresh]
            first = g1 + 1 - len(kept)
            t0 = g0
            while t0 <= g1:
                # the rows t0..t1 up to the next block start of an order still stacked
                live = [o for o in spans if t0 <= step or o <= low]
                t1 = min(g1, *(g0 + ((t0 - g0) // size[o] + 1) * size[o] - 1 for o in live))
                ks = [lags(t) for t in range(t0, t1 + 1)]
                acc = np.zeros((len(ks), len(taus) if t0 <= step else width, r, max(ks) + 1, r))
                segs: dict = {}  # by block end, for the blocks that start at t0
                for o in live:
                    lo, hi = spans[o]
                    if (t0 - g0) % size[o] == 0:  # an order-o block starts: in acc if it ends by t1
                        b1 = min(t0 + size[o] - 1, g1 if low is None or o <= low else min(g1, step))
                        shape = (b1 - t0 + 1, hi - lo, r, max(map(lags, range(t0, b1 + 1))) + 1, r)
                        made[o] = (t0, acc[: b1 - t0 + 1, lo:hi] if b1 <= t1 else np.zeros(shape))
                        solve(made[o][1], t0, lo, hi, segs.setdefault(b1, {}))
                    start, rows = made[o]
                    if rows.base is not acc:  # a longer block: these rows of it
                        take, nk = min(t1, start + len(rows) - 1) - t0 + 1, min(acc.shape[3], rows.shape[3])
                        acc[:take, lo:hi, :, :nk] = rows[t0 - start : t0 - start + take, :, :, :nk]
                del segs  # no stacked source is kept while the rows are read
                if len(ks) > 1:
                    # a row shorter than the longest is zero past its own lags, also where a
                    # coefficient that is not finite met the zero padding of a source; a
                    # source's padding reaches only padding, so the orders above read none
                    for row, k in zip(acc, ks):
                        row[..., k + 1 :, :] = 0.0
                cut = min(step, t1) - t0 + 1
                pieces = [acc]
                if 0 < cut < len(acc):  # rows on both sides of the step
                    pieces = [acc[:cut, :, :, : ks[cut - 1] + 1], acc[cut:, :width, :, : ks[-1] + 1]]
                for piece in pieces:
                    past.extend(piece)
                    yield piece
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
