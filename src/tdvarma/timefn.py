"""Deterministic matrix coefficients as functions of time.

Every coefficient matrix of the model (autoregressive, moving-average and
innovation-scale) is a grid of scalar functions of the time index t >= 1.
Each scalar function depends on at most one or two entries of the global
parameter vector and carries *exact* partial derivatives up to third order,
so that score and information computations downstream never have to fall
back on numerical differentiation.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError

MAX_DERIV_ORDER = 3


def _as_time(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 1):
        raise ContractError("time functions are only defined for t >= 1")
    return arr


def _check_indices(indices: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if len(idx) == 0:
        raise ContractError("derivative call requires at least one index")
    if len(idx) > MAX_DERIV_ORDER:
        raise ContractError(f"derivative order {len(idx)} unsupported (max {MAX_DERIV_ORDER})")
    return idx


def _checked_theta(theta, slots) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if slots and max(slots) >= theta.shape[0]:
        raise ConfigError(f"parameter slot {max(slots)} out of range for theta of length {theta.shape[0]}")
    return theta


def index_splits(idx: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Product-rule splits of a derivative index tuple: the sorted (left, right)
    parts for every subset of its positions, with multiplicity."""
    npos = len(idx)
    return [
        (
            tuple(sorted(idx[p] for p in range(npos) if mask >> p & 1)),
            tuple(sorted(idx[p] for p in range(npos) if not mask >> p & 1)),
        )
        for mask in range(1 << npos)
    ]


class ScalarTimeFunction:
    """One matrix entry: a scalar function of t with exact theta-derivatives.

    A kind that is affine in theta declares its parts once, in `parts`:
    f_t(theta) = c_t + sum_s theta_s F_ts.  Its value and derivatives follow
    from them (first derivatives are the F_ts, higher ones vanish).  An entry
    without parameter slots is affine with no F terms.  Other kinds return
    None from `parts` and define `_value` and `_deriv`.
    """

    kind: str = ""
    config_constants: tuple[str, ...] = ()  # constructor keywords recorded in the config

    def param_slots(self) -> frozenset[int]:
        return frozenset()

    def parts(self, t):
        """(c_t, {slot: F_ts}) over the time array t, or None when f is not affine in theta."""
        return None if self.param_slots() else (self._value(t, np.zeros(0)), {})

    def value(self, t, theta):
        theta = _checked_theta(theta, self.param_slots())
        tt = _as_time(t)
        parts = self.parts(tt)
        if parts is None:
            return self._value(tt, theta)
        out, coefs = parts
        for slot, f in coefs.items():
            out = out + theta[slot] * f
        return out

    def deriv(self, t, theta, indices: Sequence[int]):
        """Exact partial derivative of order len(indices); zero for foreign slots."""
        idx = _check_indices(indices)
        theta = _checked_theta(theta, self.param_slots())
        tt = _as_time(t)
        if not set(idx) <= self.param_slots():
            return np.zeros_like(tt)
        parts = self.parts(tt)
        if parts is None:
            return self._deriv(tt, theta, idx)
        return parts[1][idx[0]] if len(idx) == 1 else np.zeros_like(tt)

    def _value(self, t, theta):
        raise NotImplementedError

    def _deriv(self, t, theta, idx):
        raise NotImplementedError

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "constants": {name: getattr(self, name) for name in self.config_constants},
            "param_slots": sorted(self.param_slots()),
        }

    def __eq__(self, other):
        return type(self) is type(other) and self.to_config() == other.to_config()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_config()})"


class Constant(ScalarTimeFunction):
    """f(t) = c with no free parameters."""

    kind = "const"

    def __init__(self, value: float):
        self.c = float(value)

    def _value(self, t, theta):
        return np.full_like(t, self.c)

    def to_config(self):
        return {**super().to_config(), "constants": {"value": self.c}}


class ExpTrend(ScalarTimeFunction):
    """f(t) = exp(rate * t); no parameters. Used to build unbounded control cases."""

    kind = "exp_trend"
    config_constants = ("rate",)

    def __init__(self, rate: float):
        self.rate = float(rate)

    def _value(self, t, theta):
        return np.exp(self.rate * t)


class _OneSlot(ScalarTimeFunction):
    def __init__(self, slot: int):
        self.slot = int(slot)

    def param_slots(self):
        return frozenset({self.slot})


class Param(_OneSlot):
    """f(t) = theta[slot]; a time-constant free coefficient."""

    kind = "param"

    def parts(self, t):
        return np.zeros_like(t), {self.slot: np.ones_like(t)}


class LinearTrend(_OneSlot):
    """f(t) = theta[slot] * t."""

    kind = "linear"

    def parts(self, t):
        return np.zeros_like(t), {self.slot: t.copy()}


class _Periodic(_OneSlot):
    config_constants = ("omega", "phase")

    def __init__(self, slot: int, omega: float, phase: float = 0.0):
        super().__init__(slot)
        self.omega = float(omega)
        self.phase = float(phase)


class Sine(_Periodic):
    """f(t) = theta[slot] * sin(omega * t + phase), omega and phase known constants."""

    kind = "sine"

    def parts(self, t):
        return np.zeros_like(t), {self.slot: np.sin(self.omega * t + self.phase)}


class ExpSine(_Periodic):
    """f(t) = exp(-theta[slot] * sin(omega * t + phase)); the heteroscedastic scale kind."""

    kind = "exp_sine"

    def _value(self, t, theta):
        return np.exp(-theta[self.slot] * np.sin(self.omega * t + self.phase))

    def _deriv(self, t, theta, idx):
        u = np.sin(self.omega * t + self.phase)
        return (-u) ** len(idx) * np.exp(-theta[self.slot] * u)


class _Composite(ScalarTimeFunction):
    def __init__(self, left: ScalarTimeFunction, right: ScalarTimeFunction):
        self.left = left
        self.right = right

    def param_slots(self):
        return self.left.param_slots() | self.right.param_slots()

    def to_config(self):
        return {**super().to_config(), "terms": [self.left.to_config(), self.right.to_config()]}


class Sum(_Composite):
    kind = "sum"

    def parts(self, t):
        left, right = self.left.parts(t), self.right.parts(t)
        if left is None or right is None:
            return None
        coefs = dict(left[1])
        for slot, f in right[1].items():
            coefs[slot] = coefs[slot] + f if slot in coefs else f
        return left[0] + right[0], coefs

    def _value(self, t, theta):
        return self.left.value(t, theta) + self.right.value(t, theta)

    def _deriv(self, t, theta, idx):
        return self.left.deriv(t, theta, idx) + self.right.deriv(t, theta, idx)


class Product(_Composite):
    kind = "prod"

    def _value(self, t, theta):
        return self.left.value(t, theta) * self.right.value(t, theta)

    def _deriv(self, t, theta, idx):
        # Leibniz rule over all splits of the index positions
        out = np.zeros_like(t)
        for li, ri in index_splits(idx):
            lv = self.left.value(t, theta) if not li else self.left.deriv(t, theta, li)
            rv = self.right.value(t, theta) if not ri else self.right.deriv(t, theta, ri)
            out = out + lv * rv
        return out


_KINDS = {cls.kind: cls for cls in (Constant, Param, LinearTrend, Sine, ExpSine, ExpTrend, Sum, Product)}


def scalar_from_config(rec: Mapping) -> ScalarTimeFunction:
    """Rebuild a scalar time function from its {kind, constants, param_slots} record
    (plus two terms for the composite kinds)."""
    kind = rec.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"unknown time-function kind '{kind}'")
    if issubclass(_KINDS[kind], _Composite):
        terms = rec.get("terms")
        if not isinstance(terms, list) or len(terms) != 2:
            raise ConfigError(f"composite kind '{kind}' requires exactly two terms")
        return _KINDS[kind](*(scalar_from_config(term) for term in terms))
    try:
        return _KINDS[kind](*rec.get("param_slots", []), **rec.get("constants", {}))
    except TypeError as exc:
        raise ConfigError(f"incomplete record for time-function kind '{kind}': {exc}") from exc


class MatrixTimeFunction:
    """An r x r matrix of scalar time functions, evaluated and differentiated jointly.

    `value`, `deriv` and `deriv_map` work entry by entry at any times.  `head`
    and `head_grad` cover t = 1..n.  When every entry is affine in theta they
    read one table (C, F) over t = 1..N, built on first use and rebuilt at
    twice the length when a longer n comes: the value is C + theta_slots . F,
    and the first derivatives are slices of F.
    """

    def __init__(self, entries: Sequence[Sequence[ScalarTimeFunction]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        if self.rows == 0 or any(len(row) != self.rows for row in self.entries):
            raise ConfigError("coefficient matrices must be square and non-empty")
        self.cols = self.rows
        self._slots = frozenset().union(*(f.param_slots() for row in self.entries for f in row))
        self._table = None  # None: not built; False: an entry is not affine; else (slots, C, F)

    @classmethod
    def constant(cls, mat) -> "MatrixTimeFunction":
        mat = np.asarray(mat, dtype=float)
        return cls([[Constant(mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])])

    @classmethod
    def identity(cls, r: int) -> "MatrixTimeFunction":
        return cls.constant(np.eye(r))

    def param_slots(self) -> frozenset[int]:
        return self._slots

    def _affine_table(self, n: int):
        """(slots, C, F) over t = 1..N with N >= n, or None when an entry is not
        affine; C is (N, r, r) and F is (len(slots), N, r, r), both read-only."""
        tab = self._table
        if tab is not None and (not tab or tab[1].shape[0] >= n):
            return tab or None
        big_n = n if tab is None else max(n, 2 * tab[1].shape[0])
        tt = np.arange(1.0, big_n + 1)
        parts = [[f.parts(tt) for f in row] for row in self.entries]
        if any(p is None for row in parts for p in row):
            self._table = False
            return None
        slots = tuple(sorted(self._slots))
        c = np.zeros((big_n, self.rows, self.cols))
        f = np.zeros((len(slots), big_n, self.rows, self.cols))
        for i, row in enumerate(parts):
            for j, (cij, coefs) in enumerate(row):
                c[:, i, j] = cij
                for slot, fij in coefs.items():
                    f[slots.index(slot), :, i, j] = fij
        c.setflags(write=False)
        f.setflags(write=False)
        self._table = slots, c, f
        return self._table

    def head(self, n: int, theta) -> np.ndarray:
        """Values at t = 1..n, shape (n, r, r)."""
        tab = self._affine_table(n)
        if tab is None:
            return self.value(np.arange(1, n + 1), theta)
        slots, c, f = tab
        return c[:n] + np.einsum("k,ktrs->trs", _checked_theta(theta, slots)[list(slots)], f[:, :n])

    def head_grad(self, n: int, theta) -> tuple[tuple[int, ...], np.ndarray]:
        """(slots, D) with D[i] the derivative by theta[slots[i]] at t = 1..n, shape
        (len(slots), n, r, r); read-only for an affine matrix."""
        tab = self._affine_table(n)
        if tab is None:
            ts = np.arange(1, n + 1)
            slots = tuple(sorted(self._slots))
            return slots, np.stack([self.deriv(ts, theta, (k,)) for k in slots])
        _checked_theta(theta, tab[0])
        return tab[0], tab[2][:, :n]

    def value(self, t, theta) -> np.ndarray:
        """Matrix value at time(s) t; shape (r, r) for scalar t, (len(t), r, r) otherwise."""
        tt = _as_time(t)
        out = np.zeros(tt.shape + (self.rows, self.cols))
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                out[..., i, j] = f.value(tt, theta)
        return out

    def deriv(self, t, theta, indices: Sequence[int]) -> np.ndarray:
        """Exact partial derivative of the matrix w.r.t. theta[indices]."""
        idx = _check_indices(indices)
        tt = _as_time(t)
        out = np.zeros(tt.shape + (self.rows, self.cols))
        if not set(idx) <= self.param_slots():
            return out
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                out[..., i, j] = f.deriv(tt, theta, idx)
        return out

    def deriv_map(self, t, theta, tuples: Iterable[tuple[int, ...]]) -> dict:
        """Evaluate several derivative tuples at once; omits exact zeros."""
        out: dict[tuple[int, ...], np.ndarray] = {}
        slots = self.param_slots()
        for tau in tuples:
            if tau == ():
                out[()] = self.value(t, theta)
            elif set(tau) <= slots:
                out[tau] = self.deriv(t, theta, tau)
        return out

    def to_config(self):
        return [[f.to_config() for f in row] for row in self.entries]

    @classmethod
    def from_config(cls, rows) -> "MatrixTimeFunction":
        return cls([[scalar_from_config(rec) for rec in row] for row in rows])

    def __eq__(self, other):
        return isinstance(other, MatrixTimeFunction) and self.to_config() == other.to_config()


def sorted_tuples(indices: Sequence[int], max_order: int) -> list[tuple[int, ...]]:
    """All sorted derivative index tuples over `indices` up to `max_order`, by order."""
    if max_order > MAX_DERIV_ORDER:
        raise ContractError(f"derivative order {max_order} unsupported (max {MAX_DERIV_ORDER})")
    pool = sorted(set(indices))
    return [tau for order in range(max_order + 1) for tau in combinations_with_replacement(pool, order)]

