"""Deterministic matrix coefficients as functions of time.

Every coefficient matrix of the model (autoregressive, moving-average and
innovation-scale) is a grid of scalar functions of the time index t >= 1.
Each scalar function depends on at most one or two entries of the global
parameter vector and carries *exact* partial derivatives up to third order,
so that score and information computations downstream never have to fall
back on numerical differentiation.

Every kind has one closed form over a time array t, a sum of terms

    f_t(theta) = sum_k p_kt(theta) exp(sum_s theta_s G_kts),

where p_k is a polynomial in theta whose coefficients are arrays over t and
the exponent is linear in theta (and absent from most terms).  Sums join the
terms and products multiply them out, so the form is closed under both, and
every derivative follows from it by the product rule:

    d^tau (p e^a) = sum over the splits (L, R) of tau of d^L p * prod_{s in R} G_s * e^a.

A matrix packs its entries' terms into one table of the same (poly, expo)
pairs, each coefficient an array over (t, row, col), with sorted keys: an
entry alone and the same entry in a grid then add in the same order and give
the same bits.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError

MAX_DERIV_ORDER = 3


def _as_time(t) -> tuple:
    """(rows, top): the table rows of the integer times t >= 1, a slice for a range
    with a positive step and otherwise an index array (an int for a scalar t), and
    the largest time (0 for none)."""
    if isinstance(t, range) and t.step > 0 and t.start >= 1:
        return slice(t.start - 1, t.stop - 1, t.step), t[-1] if t else 0
    arr = np.asarray(t)
    if not (np.isfinite(arr).all() and np.array_equal(np.floor(arr), arr)):
        raise ContractError("time functions are only defined at integer t")
    rows = arr.astype(np.intp)
    if rows.size and rows.min() < 1:
        raise ContractError("time functions are only defined for t >= 1")
    return (int(rows) if rows.ndim == 0 else rows) - 1, int(rows.max(initial=0))


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


@lru_cache(maxsize=None)
def _splits(idx: tuple[int, ...]) -> tuple:
    """index_splits, kept per tuple for the table's inner loop."""
    return tuple(index_splits(idx))


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


# -- the closed form -------------------------------------------------------------
#
# A kind returns its terms as (poly, expo) pairs: poly maps each monomial, a
# sorted tuple of slots (() the constant), to its coefficient over t, and expo
# maps each slot of the exponent to its coefficient G_s (empty: no exponent).


def _join(terms: list) -> list:
    """The terms with every exponent-free one merged into the first."""
    plain: dict = {}
    rest = []
    for poly, expo in terms:
        if expo:
            rest.append((poly, expo))
            continue
        for mono, coef in poly.items():
            plain[mono] = plain[mono] + coef if mono in plain else coef
    return ([(plain, {})] if plain else []) + rest


def _multiply(left: list, right: list) -> list:
    """The terms of a product, every pair of factor terms multiplied out."""
    out = []
    for lpoly, lexpo in left:
        for rpoly, rexpo in right:
            poly: dict = {}
            for lmono, lcoef in lpoly.items():
                for rmono, rcoef in rpoly.items():
                    mono = tuple(sorted(lmono + rmono))
                    poly[mono] = poly[mono] + lcoef * rcoef if mono in poly else lcoef * rcoef
            expo = dict(lexpo)
            for slot, g in rexpo.items():
                expo[slot] = expo[slot] + g if slot in expo else g
            out.append((poly, expo))
    return _join(out)


@lru_cache(maxsize=None)
def _mono_parts(mono: tuple[int, ...]) -> tuple:
    """(left, w, rest) for every derivative tuple left under which the monomial
    prod_{s in mono} theta_s does not vanish: its d^left is w * prod_{s in rest}
    theta_s.  Kept per monomial for the table's inner loop."""
    parts = dict(index_splits(mono))
    return tuple(
        (left, float(math.prod(math.perm(mono.count(s), left.count(s)) for s in set(left))), rest)
        for left, rest in parts.items()
    )


def _poly_derivs(poly: dict, th: list, lefts: Iterable[tuple[int, ...]]) -> dict:
    """{left: d^left p} for the polynomial p at theta = th, each a fresh array added
    in key order, None where it vanishes."""
    out = dict.fromkeys(lefts)
    for mono, coef in poly.items():
        for left, w, rest in _mono_parts(mono):
            if left not in out:
                continue
            for slot in rest:
                w *= th[slot]
            if w:
                x = coef if w == 1.0 else w * coef
                if out[left] is None:
                    out[left] = x.copy() if x is coef else x
                else:
                    out[left] += x
    return out


class _Form:
    """The terms of a grid of entries over t = 1..n: (poly, expo) pairs like an
    entry's own, each coefficient an array of shape (n,) + grid.  Term k holds
    term k of every entry, zero where an entry has fewer terms or lacks a key.
    The keys are sorted, so an entry alone and the same entry in a grid add their
    contributions in the same order and agree to the bit; the grid only adds
    zeros.  `take` reads some of its rows, `applied_to` multiplies a stack into
    it, and `derivs` evaluates the value and derivatives at a theta."""

    def __init__(self, slots: tuple[int, ...], shape: tuple, terms: list):
        self.slots = slots
        self.shape = shape
        self.terms = terms

    @classmethod
    def pack(cls, entries: Sequence[Sequence[ScalarTimeFunction]], n: int) -> "_Form":
        """The form of a grid of entries over t = 1..n, with read-only arrays."""
        cells = [((i, j), f) for i, row in enumerate(entries) for j, f in enumerate(row)]
        slots = tuple(sorted(frozenset().union(*(f.param_slots() for _, f in cells))))
        tt = np.arange(1.0, n + 1)
        shape = (n, len(entries), len(entries[0]))
        per_cell = [(pos, f.terms(tt)) for pos, f in cells]
        terms = []
        for k in range(max(len(ts) for _, ts in per_cell)):
            term: tuple = ({}, {})
            for pos, ts in per_cell:
                for packed, part in zip(term, ts[k] if k < len(ts) else ()):
                    for key, coef in part.items():
                        packed.setdefault(key, np.zeros(shape))[(Ellipsis,) + pos] = coef
            for part in term:
                for arr in part.values():
                    arr.setflags(write=False)
            terms.append(tuple(dict(sorted(part.items())) for part in term))
        return cls(slots, shape, terms)

    @cached_property
    def affine(self) -> bool:
        """One term without exponent or monomials above degree one: every second
        derivative vanishes."""
        poly, expo = self.terms[0]
        return len(self.terms) == 1 and not expo and all(len(mono) <= 1 for mono in poly)

    @cached_property
    def slopes(self) -> Optional[np.ndarray]:
        """For an affine form its linear coefficients stacked over the slots,
        read-only; else None."""
        if not self.affine:
            return None
        poly = self.terms[0][0]
        out = np.stack([poly[(slot,)] for slot in self.slots]) if self.slots else np.zeros((0,) + self.shape)
        out.setflags(write=False)
        return out

    def take(self, rows) -> "_Form":
        """The same form at the given rows: views for a slice, a gather for indices."""
        cut = [tuple({key: coef[rows] for key, coef in part.items()} for part in term) for term in self.terms]
        return _Form(self.slots, next(iter(cut[0][0].values())).shape, cut)

    def applied_to(self, y: np.ndarray) -> "AppliedForm":
        """This form times the fixed (n, r) stack y, row t the vector f_t y_t.  A term
        without exponent is linear in its coefficient arrays, so they are contracted
        with y here; a term with one keeps y_tj in its entry (i, j)."""
        flat = [({key: (coef @ y[..., None])[..., 0] for key, coef in poly.items()}, expo)
                for poly, expo in self.terms if not expo]
        entry = [({key: coef * y[:, None, :] for key, coef in poly.items()}, expo)
                 for poly, expo in self.terms if expo]
        return AppliedForm(
            self.slots,
            _Form(self.slots, y.shape, flat) if flat else None,
            _Form(self.slots, self.shape, entry) if entry else None,
        )

    def derivs(self, theta, taus: Iterable[tuple[int, ...]]) -> dict:
        """{tau: d^tau f} at theta for every tau (() the value), each a fresh array."""
        th = _checked_theta(theta, self.slots).tolist()
        out = dict.fromkeys(taus)
        for poly, expo in self.terms:
            # the product-rule splits of every tau whose right part the exponent takes
            splits = [(tau, left, right) for tau in out for left, right in _splits(tau)
                      if not right or (expo and expo.keys() >= set(right))]
            polys = _poly_derivs(poly, th, [left for _, left, _ in splits])
            powers = [th[slot] * g for slot, g in expo.items()]  # theta_s G_s, added in slot order
            e = np.exp(sum(powers[1:], powers[0])) if powers else None
            for tau, left, right in splits:
                x = polys[left]
                if x is None:
                    continue
                for slot in right:
                    x = x * expo[slot]
                if e is not None:
                    x = x * e
                out[tau] = x if out[tau] is None else out[tau] + x
        for tau, x in out.items():
            if x is None:
                out[tau] = np.zeros(self.shape)
        return out


class AppliedForm(NamedTuple):
    """A matrix's form over t = 1..n times a fixed (n, r) stack y: the terms without
    exponent contracted with y, of shape (n, r), and those with one holding y_tj in
    entry (i, j), summed over j once evaluated.  Either part is None when empty."""

    slots: tuple[int, ...]
    flat: Optional[_Form]
    entry: Optional[_Form]

    def derivs(self, theta, taus: Iterable[tuple[int, ...]]) -> dict:
        """{tau: d^tau (f_t y_t)} at theta for every tau (() the value), shape (n, r)."""
        taus = list(taus)
        out = {} if self.flat is None else self.flat.derivs(theta, taus)
        if self.entry is not None:
            for tau, x in self.entry.derivs(theta, taus).items():
                out[tau] = out[tau] + x.sum(axis=-1) if tau in out else x.sum(axis=-1)
        return out

    def second_derivs(self, theta) -> dict:
        """{(k, l): d_k d_l (f_t y_t)} at theta over the pairs k <= l of the slots, shape
        (n, r); empty when the matrix is affine."""
        if self.entry is None and (self.flat is None or self.flat.affine):
            return {}
        return self.derivs(theta, combinations_with_replacement(self.slots, 2))


class ScalarTimeFunction:
    """One matrix entry: a scalar function of t with exact theta-derivatives.

    Each kind declares its closed form once, in `terms`; its value and
    derivatives are those of the entry as a 1 x 1 matrix.
    """

    kind: str = ""
    config_constants: tuple[str, ...] = ()  # constructor keywords recorded in the config

    def param_slots(self) -> frozenset[int]:
        return frozenset()

    def terms(self, t) -> list:
        """The (poly, expo) terms of the closed form over the time array t."""
        raise NotImplementedError

    @cached_property
    def _matrix(self) -> "MatrixTimeFunction":
        return MatrixTimeFunction([[self]])

    def value(self, t, theta):
        return self._matrix.value(t, theta)[..., 0, 0]

    def deriv(self, t, theta, indices: Sequence[int]):
        """Exact partial derivative of order len(indices); zero for foreign slots."""
        return self._matrix.deriv(t, theta, indices)[..., 0, 0]

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

    def terms(self, t):
        return [({(): self.c}, {})]

    def to_config(self):
        return {**super().to_config(), "constants": {"value": self.c}}


class ExpTrend(ScalarTimeFunction):
    """f(t) = exp(rate * t); no parameters. Used to build unbounded control cases."""

    kind = "exp_trend"
    config_constants = ("rate",)

    def __init__(self, rate: float):
        self.rate = float(rate)

    def terms(self, t):
        return [({(): np.exp(self.rate * t)}, {})]


class _OneSlot(ScalarTimeFunction):
    def __init__(self, slot: int):
        self.slot = int(slot)

    def param_slots(self):
        return frozenset({self.slot})


class Param(_OneSlot):
    """f(t) = theta[slot]; a time-constant free coefficient."""

    kind = "param"

    def terms(self, t):
        return [({(self.slot,): 1.0}, {})]


class LinearTrend(_OneSlot):
    """f(t) = theta[slot] * t."""

    kind = "linear"

    def terms(self, t):
        return [({(self.slot,): t}, {})]


class _Periodic(_OneSlot):
    config_constants = ("omega", "phase")

    def __init__(self, slot: int, omega: float, phase: float = 0.0):
        super().__init__(slot)
        self.omega = float(omega)
        self.phase = float(phase)


class Sine(_Periodic):
    """f(t) = theta[slot] * sin(omega * t + phase), omega and phase known constants."""

    kind = "sine"

    def terms(self, t):
        return [({(self.slot,): np.sin(self.omega * t + self.phase)}, {})]


class ExpSine(_Periodic):
    """f(t) = exp(-theta[slot] * sin(omega * t + phase)); the heteroscedastic scale kind,
    an exponent with coefficient G = -sin(omega * t + phase), so d^k f = G^k f."""

    kind = "exp_sine"

    def terms(self, t):
        return [({(): 1.0}, {self.slot: -np.sin(self.omega * t + self.phase)})]


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

    def terms(self, t):
        return _join(self.left.terms(t) + self.right.terms(t))


class Product(_Composite):
    kind = "prod"

    def terms(self, t):
        return _multiply(self.left.terms(t), self.right.terms(t))


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

    Every evaluation reads rows of one table, the entries' own (poly, expo)
    terms packed over t = 1..N with coefficients over (t, row, col) and sorted
    keys, built on first use and rebuilt at twice the length (or up to the
    latest time, if that is further) when a later time comes.  Times are
    integers >= 1: a range reads a slice of the table and anything else a
    gather.  Every derivative up to order 3 follows from the rows.  For an
    affine matrix, one term without exponent or monomials above degree one,
    the first derivatives are its linear coefficients, which `head_grad`
    stacks once per table view.  `applied_to` multiplies a fixed (n, r) stack
    into the rows at t = 1..n once, for products A_t y_t that are then
    evaluated at any theta.
    """

    def __init__(self, entries: Sequence[Sequence[ScalarTimeFunction]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        if self.rows == 0 or any(len(row) != self.rows for row in self.entries):
            raise ConfigError("coefficient matrices must be square and non-empty")
        self.cols = self.rows
        self._slots = frozenset().union(*(f.param_slots() for row in self.entries for f in row))
        self._table: Optional[_Form] = None  # the form over t = 1..N once built, read-only
        self._cut: tuple = (None, None)  # (range, the table's rows there) at the last range asked

    @classmethod
    def constant(cls, mat) -> "MatrixTimeFunction":
        mat = np.asarray(mat, dtype=float)
        return cls([[Constant(mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])])

    @classmethod
    def identity(cls, r: int) -> "MatrixTimeFunction":
        return cls.constant(np.eye(r))

    def param_slots(self) -> frozenset[int]:
        return self._slots

    def _rows(self, t) -> _Form:
        """The table's form at the times t."""
        if isinstance(t, range) and t == self._cut[0]:
            return self._cut[1]
        rows, top = _as_time(t)
        tab = self._table
        if tab is None or tab.shape[0] < top:
            tab = self._table = _Form.pack(self.entries, top if tab is None else max(top, 2 * tab.shape[0]))
        form = tab.take(rows)
        if isinstance(rows, slice):
            self._cut = (t, form)
        return form

    def head_grad(self, n: int, theta) -> tuple[tuple[int, ...], np.ndarray]:
        """(slots, D) with D[i] the derivative by theta[slots[i]] at t = 1..n, shape
        (len(slots), n, r, r); for an affine matrix the read-only linear coefficients,
        stacked once per table view."""
        tab = self._rows(range(1, n + 1))
        if tab.slopes is not None:
            _checked_theta(theta, tab.slots)
            return tab.slots, tab.slopes
        grads = tab.derivs(theta, [(k,) for k in tab.slots])
        return tab.slots, np.stack(list(grads.values()))

    def head_second(self, n: int, theta) -> dict:
        """{(k, l): d_k d_l of the matrix at t = 1..n} over the pairs k <= l of its slots,
        each (n, r, r); empty for an affine matrix."""
        tab = self._rows(range(1, n + 1))
        return {} if tab.affine else tab.derivs(theta, combinations_with_replacement(tab.slots, 2))

    def applied_to(self, y) -> AppliedForm:
        """The matrix at t = 1..n times the fixed (n, r) stack y, as a form to evaluate
        and differentiate at any theta; y is multiplied in once, here."""
        return self._rows(range(1, len(y) + 1)).applied_to(np.asarray(y, dtype=float))

    def value(self, t, theta) -> np.ndarray:
        """Matrix value at time(s) t; shape (r, r) for scalar t, (len(t), r, r) otherwise."""
        return self._rows(t).derivs(theta, [()])[()]

    def deriv(self, t, theta, indices: Sequence[int]) -> np.ndarray:
        """Exact partial derivative of the matrix w.r.t. theta[indices]; zero when they
        name a slot the matrix does not use."""
        tau = tuple(sorted(_check_indices(indices)))
        found = self.deriv_map(t, theta, [tau])
        return found[tau] if found else np.zeros(self._rows(t).shape)

    def deriv_map(self, t, theta, tuples: Iterable[tuple[int, ...]]) -> dict:
        """Evaluate several derivative tuples at once; omits the tuples with a slot the
        matrix does not use, whose derivatives vanish."""
        return self._rows(t).derivs(theta, [tau for tau in tuples if set(tau) <= self._slots])

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
