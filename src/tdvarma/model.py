"""Model container: orders, coefficient functions, parameter layout, noise scale.

The process is an r-vector ARMA(p, q) whose coefficient matrices and
innovation scale are deterministic functions of t, driven by independent
innovations with covariance `sigma`.  The per-time residual covariance is
Sigma_t(theta) = g_t(theta) Sigma g_t(theta)^T = F_t F_t^T with F_t = g_t L and
Sigma = L L^T.  Covariances are checked and factored here only: Sigma by its
Cholesky factor L when it is set, and each g_t stack by one batched inverse,
which gives the whitening factors H_t = F_t^{-1} = L^{-1} g_t^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, SingularCovarianceError
from .timefn import AppliedForm, MatrixTimeFunction, index_splits

DEFAULT_CHECK_HORIZON = 400


@dataclass(frozen=True)
class ParamLayout:
    """Names and block structure of the parameter vector.

    The vector is split into three functionally independent blocks: the
    autoregressive block (size n_ar), the moving-average block (size n_ma)
    and the scale block (the rest).  Coefficient functions may only
    reference slots of their own block.  There is at least one name, and
    the names are distinct and hold no comma or line break, so each is one
    field of a CSV row.
    """

    names: tuple[str, ...]
    n_ar: int
    n_ma: int
    theta0: Optional[tuple[float, ...]] = None
    bounds: Optional[tuple[Optional[tuple[float, float]], ...]] = None

    def __post_init__(self):
        m = len(self.names)
        if not m:
            raise ConfigError("a layout needs at least one parameter name")
        for i, name in enumerate(self.names):
            if name in self.names[:i]:
                raise ConfigError(f"parameter name {name!r} appears more than once")
            if any(c in name for c in ",\r\n"):
                raise ConfigError(f"parameter name {name!r} contains a comma or a line break")
        if self.n_ar < 0 or self.n_ma < 0 or self.n_ar + self.n_ma > m:
            raise ConfigError("parameter block sizes must be non-negative and sum to at most m")
        if self.theta0 is not None:
            object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
            if len(self.theta0) != m:
                raise ConfigError("theta0 length does not match the number of parameters")
        if self.bounds is not None:
            if len(self.bounds) != m:
                raise ConfigError("bounds length does not match the number of parameters")
            norm = tuple(None if b is None else tuple(float(v) for v in b) for b in self.bounds)
            if any(b is not None and not (len(b) == 2 and b[0] < b[1]) for b in norm):
                raise ConfigError("each bound must be None or a pair (lo, hi) with lo < hi")
            object.__setattr__(self, "bounds", norm)

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def ar_slots(self) -> range:
        return range(0, self.n_ar)

    @property
    def ma_slots(self) -> range:
        return range(self.n_ar, self.n_ar + self.n_ma)

    @property
    def scale_slots(self) -> range:
        return range(self.n_ar + self.n_ma, self.m)

    def theta0_array(self) -> np.ndarray:
        if self.theta0 is None:
            raise ContractError("this operation requires a layout with a true parameter value")
        return np.asarray(self.theta0, dtype=float)


@dataclass(frozen=True)
class Series:
    """An observed r-vector series of length n (rows are time points)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise ConfigError("series values must be a non-empty (n, r) array")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("series contains non-finite entries")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]


def _lagged(x: np.ndarray, lag: int) -> np.ndarray:
    """x shifted down by `lag` rows, zero-padded (x_s = 0 for s < 1)."""
    out = np.zeros_like(x)
    out[lag:] = x[:-lag]
    return out


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def _checked_sigma(sigma, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sigma, its Cholesky factor L, L^{-1}), all read-only, for a finite, symmetric
    positive definite r x r innovation covariance; Sigma is symmetrized."""
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (r, r) or not np.all(np.isfinite(sig)):
        raise ConfigError(f"innovation covariance must be a finite {r} x {r} matrix")
    sig = _sym(sig)
    try:
        chol = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError as exc:
        raise ConfigError("innovation covariance is not positive definite") from exc
    out = (sig, chol, np.linalg.inv(chol))
    for a in out:
        a.setflags(write=False)
    return out


def _check_scale(ok: np.ndarray, t, theta) -> None:
    """Raises SingularCovarianceError naming the first of the times t where ok is false."""
    if not ok.all():
        raise SingularCovarianceError(np.ravel(t)[np.argmin(ok)].item(), theta)


class TdVarmaModel:
    """A vector ARMA(p, q) model with time-dependent coefficients.

    Parameters
    ----------
    r : process dimension.
    a_funcs, b_funcs : autoregressive / moving-average coefficient matrices
        (length p and q respectively), each an r x r MatrixTimeFunction.
    g_func : innovation scale matrix g_t(theta); identity when None.
    sigma : innovation covariance (symmetric positive definite, r x r); its
        Cholesky factor L is kept as `sigma_chol`.
    layout : parameter names / blocks / optional true value and bounds.

    When the layout supplies a true value, the constructor evaluates
    `scale_factor` there for t = 1..DEFAULT_CHECK_HORIZON, and a Sigma_t that is
    singular or not finite raises ConfigError naming its t; no fixed determinant
    threshold applies.  Sigma is set once, here; a model at another Sigma is a
    new model on the same coefficient functions.  The likelihood reads
    Sigma_t = F_t F_t' (F_t = g_t L) only through `scale_factor`'s H_t = F_t^{-1},
    log det Sigma_t and S_t.  `_sigma_t_table` forms
    Sigma_t, Sigma_t^{-1} and their exact derivatives up to order 3 for the
    covariance audit; `sigma_t` and `sigma_t_all` read Sigma_t from it.
    """

    def __init__(
        self,
        r: int,
        a_funcs: Sequence[MatrixTimeFunction],
        b_funcs: Sequence[MatrixTimeFunction],
        g_func: Optional[MatrixTimeFunction],
        sigma,
        layout: ParamLayout,
    ):
        self.r = int(r)
        self.a_funcs = tuple(a_funcs)
        self.b_funcs = tuple(b_funcs)
        self.g_func = MatrixTimeFunction.identity(r) if g_func is None else g_func
        self.layout = layout
        self._fixed_scale: Optional[tuple] = None
        self._validate()
        self.sigma, self.sigma_chol, self._chol_inv = _checked_sigma(sigma, self.r)
        if layout.theta0 is not None:
            try:
                with np.errstate(all="ignore"):
                    self.scale_factor(DEFAULT_CHECK_HORIZON, layout.theta0_array())
            except SingularCovarianceError as exc:
                raise ConfigError(f"Sigma_t = g_t Sigma g_t' is not finite or singular at t={exc.t}") from exc

    @property
    def p(self) -> int:
        return len(self.a_funcs)

    @property
    def q(self) -> int:
        return len(self.b_funcs)

    @property
    def m(self) -> int:
        return self.layout.m

    def _validate(self):
        if self.r < 1:
            raise ConfigError("dimension r must be at least 1")
        if any(f.rows != self.r for f in self.a_funcs + self.b_funcs + (self.g_func,)):
            raise ConfigError(f"coefficient and scale matrices must be {self.r} x {self.r}")

        lay = self.layout
        blocks = (
            ("autoregressive", self.a_funcs, set(lay.ar_slots)),
            ("moving-average", self.b_funcs, set(lay.ma_slots)),
            ("scale", (self.g_func,), set(lay.scale_slots)),
        )
        for name, funcs, allowed in blocks:
            for f in funcs:
                extra = f.param_slots() - allowed
                if extra:
                    raise ConfigError(f"{name} coefficients reference slots {sorted(extra)} outside their block")

    def check_length(self, n: int, what: str) -> None:
        """Raise ConfigError where numpy could not hold an (n, r, r) float64 table, which
        any pass over t = 1..n makes, before anything is sized by n."""
        if n * self.r * self.r * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"{what} {n} needs ({n}, {self.r}, {self.r}) tables past numpy's size limit")

    # -- per-time evaluations -------------------------------------------------

    def a_values(self, ts, theta) -> np.ndarray:
        """Stacked AR coefficients A_t1..A_tp, shape (p, len(ts), r, r)."""
        return self._stack(self.a_funcs, ts, theta)

    def ar_products(self, x: np.ndarray) -> tuple[AppliedForm, ...]:
        """A_ti x_{t-i} over t = 1..n for each lag i = 1..p, as forms in theta: the
        products of the series x (n, r) with the AR coefficient tables, which do not
        depend on theta, formed once for every theta (x_s = 0 for s < 1)."""
        return tuple(f.applied_to(_lagged(x, lag)) for lag, f in enumerate(self.a_funcs, 1))

    def b_values(self, ts, theta) -> np.ndarray:
        """Stacked MA coefficients B_t1..B_tq, shape (q, len(ts), r, r)."""
        return self._stack(self.b_funcs, ts, theta)

    def _stack(self, funcs, ts, theta) -> np.ndarray:
        if not funcs:
            return np.zeros((0, len(ts), self.r, self.r))
        return np.stack([f.value(ts, theta) for f in funcs])

    def g_values(self, ts, theta) -> np.ndarray:
        return self.g_func.value(ts, theta)

    def sigma_t(self, t, theta) -> np.ndarray:
        """Residual covariance Sigma_t = g_t Sigma g_t^T (symmetrized)."""
        return self._sigma_t_table(t, theta, [()])[0][()]

    def sigma_t_all(self, n: int, theta) -> np.ndarray:
        """Residual covariances for t = 1..n, shape (n, r, r)."""
        return self._sigma_t_table(range(1, n + 1), theta, [()])[0][()]

    def scale_factor(self, n: int, theta) -> tuple:
        """(H_t, log det Sigma_t, S_t) for t = 1..n, shapes (n, r, r), (n,) and
        (len(scale_slots), n, r, r).  H_t = L^{-1} g_t^{-1} inverts the factor F_t = g_t L
        of Sigma_t, so H_t' H_t = Sigma_t^{-1}, and S_t = H_t (dg_t) L by the scale slots
        (which come last in theta), zero for a slot g_t does not use, so that
        H_t dSigma_t H_t' = S_t + S_t'; one evaluation of g_t serves all three.  A Sigma_t
        that is singular or not finite raises SingularCovarianceError naming the first
        such t.  When g_t has no parameter slots H_t and log det Sigma_t are kept,
        read-only, for the longest n asked so far and read by prefix."""
        fixed = self._fixed_scale
        slots = self.layout.scale_slots
        g: dict = {}  # g_t and its derivatives by the scale slots it uses; none when it is fixed
        if fixed is not None and fixed[0].shape[0] >= n:
            factors = tuple(a[:n] for a in fixed)
        else:
            ts = range(1, n + 1)
            g = self.g_func.deriv_map(ts, theta, [()] + [(s,) for s in slots])
            f = g[()] @ self.sigma_chol
            _, logdet = np.linalg.slogdet(f)
            # diag(F_t F_t') overflows where Sigma_t does; a singular F_t has log det -inf
            if not np.isfinite(np.vdot(f, f) + np.sum(logdet)):
                _check_scale(np.isfinite(logdet) & np.isfinite(np.sum(f * f, axis=-1)).all(axis=-1), ts, theta)
            factors = (self._chol_inv @ np.linalg.inv(g[()]), 2.0 * logdet)
            if not self.g_func.param_slots():
                for a in factors:
                    a.setflags(write=False)
                self._fixed_scale = factors
        s = np.zeros((len(slots), n, self.r, self.r))
        for i, slot in enumerate(slots):
            if (slot,) in g:
                s[i] = factors[0] @ g[(slot,)] @ self.sigma_chol
        return factors + (s,)

    def _sigma_t_deriv_any(self, t, theta, idx) -> np.ndarray:
        """Leibniz expansion of d^k (g Sigma g^T) for any k <= 3."""
        sig, _ = self._sigma_t_table(t, theta, _subtuples(idx))
        tau = tuple(sorted(idx))
        return sig[tau] if tau in sig else np.zeros(np.shape(t) + (self.r, self.r))

    def _sigma_t_table(self, t, theta, taus, inverse: bool = False) -> tuple[dict, dict]:
        """({tau: d^tau Sigma_t}, {tau: d^tau Sigma_t^{-1}}) for the sorted tuples taus,
        which run by order from () and hold the sorted sub-tuples of each member; every
        product is formed once, from one evaluation of g_t and its derivatives.  A tuple
        with an index outside the scale slots, or whose every product vanishes, is
        identically zero and left out; a derivative of g_t that deriv_map leaves out is
        read as zero, so a mixed derivative of Sigma_t (or its inverse) is kept whether
        or not g_t's own is formed.  The inverse table is empty unless requested; its
        entries other than () are not symmetrized."""
        slots = self.g_func.param_slots()
        taus = [tau for tau in taus if set(tau) <= slots]
        g = self.g_func.deriv_map(t, theta, taus)
        gs = {tau: d @ self.sigma for tau, d in g.items()}
        gt = {tau: np.ascontiguousarray(np.swapaxes(d, -1, -2)) for tau, d in g.items()}  # a faster matmul
        sig = {}  # over g Sigma g^T
        for tau in taus:
            parts = [gs[a] @ gt[b] for a, b in index_splits(tau) if a in g and b in g]
            if parts:
                sig[tau] = _sym(sum(parts))
        inv: dict = {}
        if not inverse:
            return sig, inv
        sign, logdet = np.linalg.slogdet(sig[()])
        _check_scale((sign > 0) & np.isfinite(logdet) & np.isfinite(sig[()]).all(axis=(-2, -1)), t, theta)
        inv[()] = _sym(np.linalg.inv(sig[()]))
        for tau in taus[1:]:
            # differentiate -M^-1 (d_head M) M^-1 by the remaining indices, split three ways
            head, rest = tau[0], tau[1:]
            splits = [(a, tuple(sorted((head,) + b)), c) for a, bc in index_splits(rest)
                      for b, c in index_splits(bc)]
            parts = [-inv[a] @ sig[m] @ inv[c] for a, m, c in splits if a in inv and m in sig and c in inv]
            if parts:
                inv[tau] = sum(parts)
        return sig, inv

    def __eq__(self, other):
        return (
            isinstance(other, TdVarmaModel)
            and self.r == other.r
            and self.a_funcs == other.a_funcs
            and self.b_funcs == other.b_funcs
            and self.g_func == other.g_func
            and np.array_equal(self.sigma, other.sigma)
            and self.layout == other.layout
        )


def _subtuples(idx: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All sorted sub-multisets of idx, deduplicated, by order."""
    return sorted({left for left, _ in index_splits(idx)}, key=lambda tau: (len(tau), tau))
