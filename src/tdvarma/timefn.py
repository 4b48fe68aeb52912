"""Deterministic matrix coefficients as functions of time.

Every coefficient matrix of the model (autoregressive, moving-average and
innovation-scale) is a grid of scalar functions of the time index t >= 1.
Each scalar function depends on at most one or two entries of the global
parameter vector and carries *exact* partial derivatives up to third order,
so that score and information computations downstream never have to fall
back on numerical differentiation.
"""

from __future__ import annotations

import math
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
    """One matrix entry: a scalar function of t with exact theta-derivatives."""

    kind: str = ""

    def param_slots(self) -> frozenset[int]:
        return frozenset()

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        slots = self.param_slots()
        if slots and max(slots) >= theta.shape[0]:
            raise ConfigError(
                f"parameter slot {max(slots)} out of range for theta of length {theta.shape[0]}"
            )
        return theta

    def value(self, t, theta):
        raise NotImplementedError

    def deriv(self, t, theta, indices: Sequence[int]):
        """Exact partial derivative of order len(indices); zero for foreign slots."""
        idx = _check_indices(indices)
        theta = self._check_theta(theta)
        tt = _as_time(t)
        if not set(idx) <= self.param_slots():
            return np.zeros_like(tt)
        return self._deriv(tt, theta, idx)

    def _deriv(self, t, theta, idx):
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.to_config() == other.to_config()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_config()})"


class Constant(ScalarTimeFunction):
    """f(t) = c with no free parameters."""

    kind = "const"

    def __init__(self, value: float):
        self.c = float(value)

    def value(self, t, theta):
        self._check_theta(theta)
        return np.full_like(_as_time(t), self.c)

    def _deriv(self, t, theta, idx):  # pragma: no cover - slots() is empty
        return np.zeros_like(t)

    def to_config(self):
        return {"kind": self.kind, "constants": {"value": self.c}, "param_slots": []}


class Param(ScalarTimeFunction):
    """f(t) = theta[slot]; a time-constant free coefficient."""

    kind = "param"

    def __init__(self, slot: int):
        self.slot = int(slot)

    def param_slots(self):
        return frozenset({self.slot})

    def value(self, t, theta):
        theta = self._check_theta(theta)
        return np.full_like(_as_time(t), theta[self.slot])

    def _deriv(self, t, theta, idx):
        if idx == (self.slot,):
            return np.ones_like(t)
        return np.zeros_like(t)

    def to_config(self):
        return {"kind": self.kind, "constants": {}, "param_slots": [self.slot]}


class LinearTrend(ScalarTimeFunction):
    """f(t) = theta[slot] * t."""

    kind = "linear"

    def __init__(self, slot: int):
        self.slot = int(slot)

    def param_slots(self):
        return frozenset({self.slot})

    def value(self, t, theta):
        theta = self._check_theta(theta)
        return theta[self.slot] * _as_time(t)

    def _deriv(self, t, theta, idx):
        if idx == (self.slot,):
            return t.copy()
        return np.zeros_like(t)

    def to_config(self):
        return {"kind": self.kind, "constants": {}, "param_slots": [self.slot]}


class Sine(ScalarTimeFunction):
    """f(t) = theta[slot] * sin(omega * t + phase), omega and phase known constants."""

    kind = "sine"

    def __init__(self, slot: int, omega: float, phase: float = 0.0):
        self.slot = int(slot)
        self.omega = float(omega)
        self.phase = float(phase)

    def param_slots(self):
        return frozenset({self.slot})

    def value(self, t, theta):
        theta = self._check_theta(theta)
        return theta[self.slot] * np.sin(self.omega * _as_time(t) + self.phase)

    def _deriv(self, t, theta, idx):
        if idx == (self.slot,):
            return np.sin(self.omega * t + self.phase)
        # linear in the amplitude: order >= 2 vanishes
        return np.zeros_like(t)

    def to_config(self):
        return {
            "kind": self.kind,
            "constants": {"omega": self.omega, "phase": self.phase},
            "param_slots": [self.slot],
        }


class ExpSine(ScalarTimeFunction):
    """f(t) = exp(-theta[slot] * sin(omega * t + phase)); the heteroscedastic scale kind."""

    kind = "exp_sine"

    def __init__(self, slot: int, omega: float, phase: float = 0.0):
        self.slot = int(slot)
        self.omega = float(omega)
        self.phase = float(phase)

    def param_slots(self):
        return frozenset({self.slot})

    def value(self, t, theta):
        theta = self._check_theta(theta)
        u = np.sin(self.omega * _as_time(t) + self.phase)
        return np.exp(-theta[self.slot] * u)

    def _deriv(self, t, theta, idx):
        if set(idx) != {self.slot}:
            return np.zeros_like(t)
        u = np.sin(self.omega * t + self.phase)
        return (-u) ** len(idx) * np.exp(-theta[self.slot] * u)

    def to_config(self):
        return {
            "kind": self.kind,
            "constants": {"omega": self.omega, "phase": self.phase},
            "param_slots": [self.slot],
        }


class ExpTrend(ScalarTimeFunction):
    """f(t) = exp(rate * t); no parameters. Used to build unbounded control cases."""

    kind = "exp_trend"

    def __init__(self, rate: float):
        self.rate = float(rate)

    def value(self, t, theta):
        self._check_theta(theta)
        return np.exp(self.rate * _as_time(t))

    def _deriv(self, t, theta, idx):  # pragma: no cover - slots() is empty
        return np.zeros_like(t)

    def to_config(self):
        return {"kind": self.kind, "constants": {"rate": self.rate}, "param_slots": []}


class _Composite(ScalarTimeFunction):
    def __init__(self, left: ScalarTimeFunction, right: ScalarTimeFunction):
        self.left = left
        self.right = right

    def param_slots(self):
        return self.left.param_slots() | self.right.param_slots()

    def to_config(self):
        return {
            "kind": self.kind,
            "constants": {},
            "param_slots": sorted(self.param_slots()),
            "terms": [self.left.to_config(), self.right.to_config()],
        }


class Sum(_Composite):
    kind = "sum"

    def value(self, t, theta):
        return self.left.value(t, theta) + self.right.value(t, theta)

    def _deriv(self, t, theta, idx):
        return self.left.deriv(t, theta, idx) + self.right.deriv(t, theta, idx)


class Product(_Composite):
    kind = "prod"

    def value(self, t, theta):
        return self.left.value(t, theta) * self.right.value(t, theta)

    def _deriv(self, t, theta, idx):
        # Leibniz rule over all splits of the index positions
        out = np.zeros_like(t)
        for li, ri in index_splits(idx):
            lv = self.left.value(t, theta) if not li else self.left.deriv(t, theta, li)
            rv = self.right.value(t, theta) if not ri else self.right.deriv(t, theta, ri)
            out = out + lv * rv
        return out


_KINDS = {
    cls.kind: cls for cls in (Constant, Param, LinearTrend, Sine, ExpSine, ExpTrend)
}


def scalar_from_config(rec: Mapping) -> ScalarTimeFunction:
    """Rebuild a scalar time function from its {kind, constants, param_slots} record."""
    kind = rec.get("kind")
    if kind in ("sum", "prod"):
        terms = rec.get("terms")
        if not isinstance(terms, list) or len(terms) != 2:
            raise ConfigError(f"composite kind '{kind}' requires exactly two terms")
        left, right = (scalar_from_config(term) for term in terms)
        return (Sum if kind == "sum" else Product)(left, right)
    if kind not in _KINDS:
        raise ConfigError(f"unknown time-function kind '{kind}'")
    constants = dict(rec.get("constants", {}))
    slots = list(rec.get("param_slots", []))
    try:
        if kind == "const":
            return Constant(constants["value"])
        if kind == "param":
            return Param(slots[0])
        if kind == "linear":
            return LinearTrend(slots[0])
        if kind == "sine":
            return Sine(slots[0], constants["omega"], constants.get("phase", 0.0))
        if kind == "exp_sine":
            return ExpSine(slots[0], constants["omega"], constants.get("phase", 0.0))
        if kind == "exp_trend":
            return ExpTrend(constants["rate"])
    except (KeyError, IndexError) as exc:
        raise ConfigError(f"incomplete record for time-function kind '{kind}': {exc}") from exc
    raise ConfigError(f"unknown time-function kind '{kind}'")  # pragma: no cover


class MatrixTimeFunction:
    """An r x r matrix of scalar time functions, evaluated and differentiated jointly."""

    def __init__(self, entries: Sequence[Sequence[ScalarTimeFunction]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        if self.rows == 0 or any(len(row) != self.rows for row in self.entries):
            raise ConfigError("coefficient matrices must be square and non-empty")
        self.cols = self.rows

    @classmethod
    def constant(cls, mat) -> "MatrixTimeFunction":
        mat = np.asarray(mat, dtype=float)
        return cls([[Constant(mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])])

    @classmethod
    def identity(cls, r: int) -> "MatrixTimeFunction":
        return cls.constant(np.eye(r))

    def param_slots(self) -> frozenset[int]:
        slots: frozenset[int] = frozenset()
        for row in self.entries:
            for f in row:
                slots |= f.param_slots()
        return slots

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
    """All sorted derivative index tuples over `indices` up to `max_order`."""
    if max_order > MAX_DERIV_ORDER:
        raise ContractError(f"derivative order {max_order} unsupported (max {MAX_DERIV_ORDER})")
    tuples: list[tuple[int, ...]] = [()]
    pool = sorted(indices)
    level: list[tuple[int, ...]] = [()]
    for _ in range(max_order):
        nxt = []
        for tau in level:
            for i in pool:
                if not tau or i >= tau[-1]:
                    nxt.append(tau + (i,))
        level = sorted(set(nxt))
        tuples.extend(level)
    return tuples


TWO_PI = 2.0 * math.pi
