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
"""

from __future__ import annotations

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


def _mono_deriv(mono: tuple[int, ...], left: tuple[int, ...], theta: np.ndarray) -> float:
    """d^left of the monomial prod_{s in mono} theta_s at theta."""
    rest = list(mono)
    w = 1.0
    for slot in left:
        if slot not in rest:
            return 0.0
        w *= rest.count(slot)
        rest.remove(slot)
    for slot in rest:
        w *= theta[slot]
    return w


def _slot_dot(th: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k th[k] * stack[k], added in slot order.  einsum's order of addition
    varies with the stack's shape, so an entry packed alone and the same entry
    packed in a grid could differ in the last bit; a grid only adds zero terms."""
    out = th[0] * stack[0]
    for k in range(1, len(th)):
        out += th[k] * stack[k]
    return out


class _Term(NamedTuple):
    """One packed term: arrays of the form's shape, stacked over its slots where noted."""

    c: np.ndarray                 # the constant coefficient
    lin: Optional[np.ndarray]     # (slots, ...) linear coefficients, None without any
    higher: dict                  # {monomial of degree >= 2: coefficient}
    expo: Optional[np.ndarray]    # (slots, ...) exponent coefficients, None without an exponent
    expo_slots: frozenset         # the slots the exponent uses


class _Form:
    """The terms of a grid of entries over t = 1..n, packed as arrays of shape
    (n,) + grid: term k of the form holds term k of every entry, zero where an
    entry has fewer terms.  `take` reads some of its rows, `applied_to` multiplies
    a stack into it, and `derivs` evaluates the value and derivatives at a theta."""

    def __init__(self, slots: tuple[int, ...], shape: tuple, terms: list):
        self.slots = slots
        self.shape = shape
        self.terms = terms
        self._where = {slot: k for k, slot in enumerate(slots)}
        self._take = np.array(slots, dtype=np.intp)

    @classmethod
    def pack(cls, entries: Sequence[Sequence[ScalarTimeFunction]], n: int) -> "_Form":
        """The form of a grid of entries over t = 1..n, with read-only arrays."""
        cells = [((i, j), f) for i, row in enumerate(entries) for j, f in enumerate(row)]
        slots = tuple(sorted(frozenset().union(*(f.param_slots() for _, f in cells))))
        tt = np.arange(1.0, n + 1)
        shape = (n, len(entries), len(entries[0]))
        where = {slot: k for k, slot in enumerate(slots)}
        per_cell = [(pos, f.terms(tt)) for pos, f in cells]
        terms = []
        for k in range(max(len(ts) for _, ts in per_cell)):
            c = np.zeros(shape)
            lin = expo = None
            higher: dict = {}
            expo_slots: set = set()
            for pos, ts in per_cell:
                if k >= len(ts):
                    continue
                at = (Ellipsis,) + pos
                poly, ex = ts[k]
                for mono, coef in poly.items():
                    if not mono:
                        c[at] = coef
                    elif len(mono) == 1:
                        lin = np.zeros((len(slots),) + shape) if lin is None else lin
                        lin[(where[mono[0]],) + at] = coef
                    else:
                        higher.setdefault(mono, np.zeros(shape))[at] = coef
                for slot, g in ex.items():
                    expo = np.zeros((len(slots),) + shape) if expo is None else expo
                    expo[(where[slot],) + at] = g
                    expo_slots.add(slot)
            for arr in (c, lin, expo, *higher.values()):
                if arr is not None:
                    arr.setflags(write=False)
            terms.append(_Term(c, lin, dict(sorted(higher.items())), expo, frozenset(expo_slots)))
        return cls(slots, shape, terms)

    @property
    def affine(self) -> bool:
        """One term without exponent or monomials above degree one: c + theta . lin."""
        return len(self.terms) == 1 and self.terms[0].expo is None and not self.terms[0].higher

    def take(self, rows) -> "_Form":
        """The same form at the given rows: views for a slice, a gather for indices."""
        cut = [
            _Term(
                term.c[rows],
                None if term.lin is None else term.lin[:, rows],
                {mono: coef[rows] for mono, coef in term.higher.items()},
                None if term.expo is None else term.expo[:, rows],
                term.expo_slots,
            )
            for term in self.terms
        ]
        return _Form(self.slots, cut[0].c.shape, cut)

    def applied_to(self, y: np.ndarray) -> "AppliedForm":
        """This form times the fixed (n, r) stack y, row t the vector f_t y_t.  A term
        without exponent is linear in its coefficient arrays, so they are contracted
        with y here; a term with one keeps y_tj in its entry (i, j)."""
        def scaled(term: _Term, times) -> _Term:
            arrays = [times(term.c), None if term.lin is None else times(term.lin),
                      *(times(coef) for coef in term.higher.values())]
            for arr in arrays:
                if arr is not None:
                    arr.setflags(write=False)
            return _Term(arrays[0], arrays[1], dict(zip(term.higher, arrays[2:])), term.expo, term.expo_slots)

        flat = [scaled(term, lambda a: (a @ y[..., None])[..., 0]) for term in self.terms if term.expo is None]
        entry = [scaled(term, lambda a: a * y[:, None, :]) for term in self.terms if term.expo is not None]
        return AppliedForm(
            self.slots,
            _Form(self.slots, y.shape, flat) if flat else None,
            _Form(self.slots, self.shape, entry) if entry else None,
        )

    def _poly(self, term: _Term, theta, th, left) -> Optional[np.ndarray]:
        """d^left p of the term's polynomial, None where it vanishes identically."""
        if not left:
            p = term.c if term.lin is None else term.c + _slot_dot(th, term.lin)
        elif len(left) == 1 and term.lin is not None:
            p = term.lin[self._where[left[0]]]
        else:
            p = None
        for mono, coef in term.higher.items():
            w = _mono_deriv(mono, left, theta)
            if w:
                p = w * coef if p is None else p + w * coef
        return p

    def derivs(self, theta, taus: Iterable[tuple[int, ...]]) -> dict:
        """{tau: d^tau f} at theta for every tau (() the value), each a fresh array."""
        theta = _checked_theta(theta, self.slots)
        th = theta[self._take]
        out = dict.fromkeys(taus)
        for term in self.terms:
            e = None if term.expo is None else np.exp(_slot_dot(th, term.expo))
            polys: dict = {}
            for tau, acc in out.items():
                for left, right in _splits(tau):
                    if right and (e is None or not term.expo_slots.issuperset(right)):
                        continue
                    x = polys[left] if left in polys else polys.setdefault(left, self._poly(term, theta, th, left))
                    if x is None:
                        continue
                    for slot in right:
                        x = x * term.expo[self._where[slot]]
                    if e is not None:
                        x = x * e
                    acc = x if acc is None else acc + x
                out[tau] = acc
        for tau, x in out.items():
            if x is None:
                out[tau] = np.zeros(self.shape)
            elif not x.flags.writeable:
                out[tau] = x.copy()
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
        _checked_theta(theta, self.param_slots())
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

    Every evaluation reads rows of one table, the entries' closed forms packed
    over t = 1..N, built on first use and rebuilt at twice the length (or up to
    the latest time, if that is further) when a later time comes.  Times are
    integers >= 1: a range reads a slice of the table and anything else a
    gather.  Every derivative up to order 3 follows from the rows.  For an
    affine matrix the table is (C, F), one term without exponent: the value is
    C + theta_slots . F and the first derivatives are slices of F.  `applied_to`
    multiplies a fixed (n, r) stack into the rows at t = 1..n once, for products
    A_t y_t that are then evaluated at any theta.
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
        (len(slots), n, r, r); read-only for an affine matrix."""
        tab = self._rows(range(1, n + 1))
        if tab.affine:
            _checked_theta(theta, tab.slots)
            lin = tab.terms[0].lin
            return tab.slots, np.zeros((0,) + tab.shape) if lin is None else lin
        grads = tab.derivs(theta, [(k,) for k in tab.slots])
        return tab.slots, np.stack(list(grads.values()))

    def applied_to(self, y) -> AppliedForm:
        """The matrix at t = 1..n times the fixed (n, r) stack y, as a form to evaluate
        and differentiate at any theta; y is multiplied in once, here."""
        return self._rows(range(1, len(y) + 1)).applied_to(np.asarray(y, dtype=float))

    def value(self, t, theta) -> np.ndarray:
        """Matrix value at time(s) t; shape (r, r) for scalar t, (len(t), r, r) otherwise."""
        return self._rows(t).derivs(theta, [()])[()]

    def deriv(self, t, theta, indices: Sequence[int]) -> np.ndarray:
        """Exact partial derivative of the matrix w.r.t. theta[indices]."""
        tau = tuple(sorted(_check_indices(indices)))
        form = self._rows(t)
        return form.derivs(theta, [tau])[tau] if set(tau) <= self._slots else np.zeros(form.shape)

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
