"""Numerical audit of the regularity conditions behind the asymptotics.

The consistency and normality theory for this model class rests on a set
of finite-horizon-checkable conditions: geometric decay of the MA-expansion
coefficients of the residual derivatives, bounded covariance derivatives,
bounded innovation moments, a positive definite information limit, and
O(1/n) cross-time coupling sums.  These audits measure the relevant
quantities over a probe horizon and return pass / fail / inconclusive
verdicts with the measured constants.  A pass is numerical evidence, not a
proof.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .asymptotics import _information_pass, theoretical_v  # perfbench/tracer.py wraps theoretical_v here
from .errors import ContractError, SingularCovarianceError
from .model import TdVarmaModel, _sym
from .representations import BLOCK, _resid_rows
from .representations import build_pi, build_psi  # unused here; perfbench/tracer.py wraps these names
from .timefn import sorted_tuples

# Probe horizon and grids of the audits, also the defaults of `tdvarma check`.
N_PROBE = 500
NU_GRID = (1, 5, 10, 20, 40)            # starts of the tail sums the decay fit uses
CROSS_GRID = (50, 100, 200, 400)        # lengths n of the first cross-time family
CROSS_M_GRID = (300, 600, 900, 1200)    # and of the second
D_CAP = 60                              # largest shift of the cross-time sums; lags stop at 2 * D_CAP
INFO_GRID = (25, 50, 100)               # horizons of the information check

# -- Kronecker / moment utilities --------------------------------------------


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat).reshape(-1, order="F")


def commutation_matrix(r: int) -> np.ndarray:
    """Permutation K with K vec(A) = vec(A') for r x r matrices A."""
    # row j r + i of the identity's row (i, j)
    return np.eye(r * r).reshape(r, r, r * r).transpose(1, 0, 2).reshape(r * r, r * r)


def gaussian_kappa(sigma) -> np.ndarray:
    """Fourth-moment matrix E[vec(ee') vec(ee')'] for e ~ N(0, sigma),
    from the pairwise-product expansion of E[e_a e_b e_c e_d] at row b r + a, column d r + c."""
    s = np.asarray(sigma, dtype=float)
    r = s.shape[0]
    pairs = ("ab,cd->badc", "ac,bd->badc", "ad,bc->badc")
    return sum(np.einsum(spec, s, s) for spec in pairs).reshape(r * r, r * r)


def fourth_cumulant_residual(sigma) -> np.ndarray:
    """kappa - vec(S)vec(S)' - S (x) S - K (S (x) S); exactly zero for Gaussian noise."""
    s = np.asarray(sigma, dtype=float)
    r = s.shape[0]
    kron = np.kron(s, s)
    vs = vec(s)
    return gaussian_kappa(s) - np.outer(vs, vs) - kron - commutation_matrix(r) @ kron


def gaussian_quad_norm_moment(sigma, power: int = 4) -> float:
    """E[(e'e)^power] for e ~ N(0, sigma), power <= 4, via the cumulants of
    the eigenvalue-weighted chi-square representation."""
    lam = np.linalg.eigvalsh(np.asarray(sigma, dtype=float))
    s = [float(np.sum(lam**m)) for m in range(0, 5)]
    k1, k2, k3, k4 = s[1], 2 * s[2], 8 * s[3], 48 * s[4]
    if power == 1:
        return k1
    if power == 2:
        return k2 + k1**2
    if power == 3:
        return k3 + 3 * k2 * k1 + k1**3
    if power == 4:
        return k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4
    raise ContractError("moment power must be between 1 and 4")


# -- report structure ---------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    verdict: str                       # pass / fail / inconclusive
    constants: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass
class AssumptionReport:
    phi: Optional[float]
    bound_constants: dict
    h37_ratios: dict
    verdicts: dict
    checks: dict
    weight_pass_s: float               # wall time of run_all's shared weight pass

    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())


# -- MA-derivative weight tables ---------------------------------------------


def _reduce_rows(resid_rows: tuple, reducers: Sequence) -> None:
    """Hand each block of a _resid_rows pass, rows t0.., to every reducer as it is
    produced, with the norms of its weights formed here once; no block is kept, and
    none is computed when no tuple of order >= 1 is left."""
    taus, blocks = resid_rows
    for red in reducers:
        red.start(taus)
    t0 = 1
    for block in blocks if len(taus) > 1 else ():
        norms = _weight_norms(block)
        for red in reducers:
            red.take(t0, block, norms)
        t0 += len(block)
        del block, norms  # the next block is made without them


def _weight_norms(block: np.ndarray) -> np.ndarray:
    """Frobenius norms of a block's order >= 1 weights, norms[j - 1, b, k] of
    block[b, j, :, k, :].  Each weight is summed as one contiguous r x r matrix, so the
    norms have the bits of a row-by-row einsum."""
    weights = np.ascontiguousarray(block[:, 1:].transpose(0, 1, 3, 2, 4))
    return np.sqrt(np.einsum("bjkrs,bjkrs->jbk", weights, weights))


# -- individual checks --------------------------------------------------------


def _timed(check):
    """Record the check's wall time in details["wall_s"]; numpy prints no warning, as a
    non-finite quantity is reported in the verdict."""
    @functools.wraps(check)
    def run(*args, **kwargs) -> CheckResult:
        start = time.perf_counter()
        with np.errstate(all="ignore"):
            res = check(*args, **kwargs)
        res.details["wall_s"] = time.perf_counter() - start
        return res
    return run


@_timed
def check_psi_decay(model: TdVarmaModel, theta0, n_probe: int = N_PROBE) -> CheckResult:
    """Geometric decay of MA-derivative tail sums from each start in NU_GRID below
    n_probe (squared and fourth powers for first/second-order weights; bounded
    totals for third order).  A tail sum that is not finite fails the check and
    leaves no decay_base.  The weight rows are reduced as the recurrence
    produces them (run_all shares that pass with check_cross_sums)."""
    decay = _DecayTails(n_probe)
    _reduce_rows(_resid_rows(model, theta0, theta0, n_probe, 3), [decay])
    return decay.result()


class _DecayTails:
    """check_psi_decay as a reducer of the rows t <= n_probe of a _resid_rows pass of
    order 3 without a lag cap.  The weight norms of ROWS rows at a time (whole blocks of
    the pass, which cross neither a multiple of BLOCK nor n_probe) are reduced to their
    maxima over t: the tail sums from each start in nu_grid (orders 1 and 2, powers 2
    and 4), the totals of squares (order 3) and the last lag with a non-zero weight of
    order 1 or 2.  A maximum is exact, so the blocks give the bits of one (tuples,
    n_probe, n_probe) table, which is never made."""

    ROWS = 4 * BLOCK

    def __init__(self, n_probe: int):
        self.n_probe = n_probe
        self.nu_grid = [v for v in NU_GRID if v <= n_probe - 1]

    def start(self, taus: list) -> None:
        self.taus = taus[1:]
        self.n_low = sum(len(tau) <= 2 for tau in self.taus)
        # norms[j, i, k] of row t = i + 1 (mod ROWS), zero-padded beyond K_t
        self.block = np.zeros((len(self.taus), min(self.ROWS, self.n_probe), self.n_probe))
        self.tails = np.zeros((2, self.n_low, len(self.nu_grid)))  # powers 2 and 4
        self.sum_sq = np.zeros(len(self.taus) - self.n_low)
        self.k_nonzero = -1

    def take(self, t0: int, block: np.ndarray, norms: np.ndarray) -> None:
        if t0 > self.n_probe:  # blocks never cross n_probe, the step of a longer pass
            return
        i, t1 = (t0 - 1) % self.block.shape[1], t0 + len(block) - 1
        self.block[:, i : i + len(block), : norms.shape[2]] = norms
        if i + len(block) == self.block.shape[1] or t1 == self.n_probe:
            self._reduce(self.block[:, : i + len(block)], t1)

    def _reduce(self, tab: np.ndarray, t1: int) -> None:
        # row t holds t lags, so the columns past the last row's (and the last start
        # of a tail sum) are zero; weights whose norm sits at the roundoff floor count
        # as exact zeros, and a later row in the same slot is longer, so it overwrites
        # every floored entry.  The totals of squares sum every column, zeros too, as
        # the pairwise sum they are takes its grouping from the row length
        part = tab[..., : max(t1, max(self.nu_grid, default=0) + 1)]
        part[~(part > 1e-14)] = 0.0
        low = part[: self.n_low]
        nz = np.nonzero(np.any(low > 0, axis=(0, 1)))[0]
        if nz.size:
            self.k_nonzero = max(self.k_nonzero, int(nz[-1]))
        for tails, power in zip(self.tails, (2, 4)):
            np.maximum(tails, _tail_sums(low, self.nu_grid, power), out=tails)
        np.maximum(self.sum_sq, np.max(np.sum(tab[self.n_low :] ** 2, axis=-1), axis=-1), out=self.sum_sq)

    def result(self) -> CheckResult:
        nu_grid = self.nu_grid
        phis = []
        constants: dict = {}
        details: dict = {"nu_grid": nu_grid}
        finite = bool(np.isfinite(self.tails).all() and np.isfinite(self.sum_sq).all())
        verdict = "pass" if finite else "fail"
        for j, tau in enumerate(self.taus[: self.n_low]):
            for tails, label in zip(self.tails[:, j], ("sq", "4th")):
                if not np.all(np.isfinite(tails)):
                    details[f"unbounded_{label}_{tau}"] = True
                    continue
                pos = tails > 0
                if pos.sum() < 2:
                    continue  # vanishes almost immediately: trivially geometric
                x = np.array(nu_grid, dtype=float)[pos]
                y = np.log(tails[pos])
                slope = float(np.polyfit(x, y, 1)[0])
                phi = math.exp(slope)
                phis.append(phi)
                if not phi < 0.999:
                    verdict = "fail"
                if 0 < phi < 1:
                    key = f"decay_{label}_bound_o{len(tau)}"
                    bound = np.max(tails[pos] / phi ** (x - 1.0))
                    constants[key] = max(constants.get(key, 0.0), float(bound))
        constants["sum_sq_bound_o3"] = max([0.0, *self.sum_sq.tolist()])

        any_positive = self.k_nonzero >= 0
        phi = max(phis) if phis else (0.0 if any_positive else None)
        if not finite:
            phi = None  # no decay rate describes a tail sum that overflowed
        elif phi is None:
            verdict = "inconclusive"  # no non-zero weights at all
        details["max_k_nonzero"] = max(self.k_nonzero, 0)
        if any_positive and self.k_nonzero < self.n_probe - 2:
            details["k_cutoff"] = self.k_nonzero
        if phi is not None:
            constants["decay_base"] = phi
        return CheckResult("psi_decay", verdict, constants, details)


def _tail_sums(tab: np.ndarray, nu_grid: Sequence[int], power: int) -> np.ndarray:
    """max_t sum_{k >= nu} tab[..., t, k]^power for each nu: one reverse cumulative
    sum over the zero-padded (..., T, K+1) table, then the worst t per nu.  The power
    is taken before the reversal, so that numpy's vectorized loop serves every shape."""
    return np.cumsum((tab**power)[..., ::-1], axis=-1)[..., ::-1][..., nu_grid].max(axis=-2)


def _trend_ok(values: np.ndarray) -> bool:
    """Bounded–not-increasing heuristic: the last-decile max must not exceed
    the max over the earlier horizon by more than 1%."""
    n = values.shape[0]
    if n < 2:
        return True
    cut = max(1, n - max(1, n // 10))
    return bool(np.max(values[cut:]) <= 1.01 * np.max(values[:cut]) + 1e-300)


@_timed
def check_sigma_bounds(model: TdVarmaModel, theta0, n_probe: int = N_PROBE) -> CheckResult:
    """Finiteness (and non-growth) of covariance / scale derivative norms; a Sigma_t
    that is singular or not finite up to n_probe fails with details["singular_t"]."""
    theta0 = np.asarray(theta0, dtype=float)
    ts = range(1, n_probe + 1)
    constants: dict = {}
    verdict = "pass"
    details: dict = {}

    def fro2(stack):
        return np.einsum("trs,trs->t", stack, stack)

    # every covariance and inverse derivative up to order 3 from one memo; the
    # tuples it leaves out are identically zero (_sym leaves sig's entries as they are)
    try:
        sig, inv = model._sigma_t_table(ts, theta0, sorted_tuples(range(model.m), 3), inverse=True)
    except SingularCovarianceError as exc:
        return CheckResult("covariance_bounds", "fail", {}, {"singular_t": exc.t})
    quantities = {"scale_norm_bound": fro2(model.g_values(ts, theta0)), "covinv_norm_bound": fro2(inv[()])}
    for key, table, order in (
        ("cov_d1_bound", sig, 1),
        ("cov_d2_bound", sig, 2),
        ("covinv_d1_bound", inv, 1),
        ("covinv_d2_bound", inv, 2),
        ("covinv_d3_bound", inv, 3),
    ):
        stacks = (fro2(_sym(stack)) for tau, stack in table.items() if len(tau) == order)
        quantities[key] = functools.reduce(np.maximum, stacks, np.zeros(n_probe))

    for key, arr in quantities.items():
        if not np.all(np.isfinite(arr)):
            verdict = "fail"
            details[f"nonfinite_{key}"] = True
            continue
        constants[key] = float(np.max(arr))
        if not _trend_ok(arr):
            verdict = "fail"
            details[f"growing_{key}"] = True
    return CheckResult("covariance_bounds", verdict, constants, details)


@_timed
def check_moment_bounds(sigma) -> CheckResult:
    """Innovation moment bounds of Gaussian noise, from exact formulas."""
    s = np.asarray(sigma, dtype=float)
    kappa = gaussian_kappa(s)
    vs = vec(s)
    kron = np.kron(s, s)
    parts = (kappa, np.outer(vs, vs), kron, commutation_matrix(s.shape[0]) @ kron)
    m3 = sum(float(np.linalg.norm(part)) for part in parts)
    constants = {
        "moment_8th": gaussian_quad_norm_moment(s, 4),
        "moment_3rd_norm": 0.0,  # odd Gaussian moments vanish
        "moment_matrix_norm": m3,
        "fourth_cumulant_residual_norm": float(np.linalg.norm(fourth_cumulant_residual(s))),
    }
    verdict = "pass" if all(math.isfinite(v) for v in constants.values()) else "fail"
    return CheckResult("moment_bounds", verdict, constants, {})


@_timed
def check_information(model: TdVarmaModel, theta0, n_grid: Sequence[int] = INFO_GRID) -> CheckResult:
    """Positive definiteness of the finite-horizon information matrix; a Sigma_t that
    is singular or not finite up to max(n_grid) fails with details["singular_t"]."""
    try:
        reports = _information_pass(model, theta0, n_grid)
    except SingularCovarianceError as exc:
        return CheckResult("information_pd", "fail", {}, {"singular_t": exc.t})
    min_eigs = {n: rep.min_eigenvalue for n, rep in reports.items()}
    verdict = "pass" if all(rep.positive_definite for rep in reports.values()) else "fail"
    return CheckResult("information_pd", verdict, {"min_eigenvalue": min(min_eigs.values())}, {"min_eigs": min_eigs})


@_timed
def check_cross_sums(
    model: TdVarmaModel,
    theta0,
    n_grid: Sequence[int] = CROSS_GRID,
    m_term_grid: Sequence[int] = CROSS_M_GRID,
) -> CheckResult:
    """O(1/n) behaviour of the cross-time coupling sums.

    The first family couples MA-derivative norms along shifted diagonals;
    the second couples vectorized weight sandwiches through the innovation
    fourth-moment structure.  For Gaussian innovations the fourth-cumulant
    residual vanishes, so its term is skipped exactly.  The second family's
    weights are whitened by the model's scale factor H_t = (g_t L)^{-1}.

    Lags are capped at 2 * D_CAP and shifts at D_CAP, both read when the check
    is called: geometric weight decay makes the discarded tail negligible
    (VALIDATION.md compares D_CAP 60 and 120).  Alone, the check asks for the
    order-1 rows capped at that lag from row 1 on, tail (0, 1, kcap); run_all
    shares its pass with check_psi_decay.  Each block of rows is reduced as it
    is produced, and both families run as array kernels (cumulative sums along the
    diagonals, one batched matmul per shift), so the default grid costs well
    under a second for the shipped examples.  Quasi-periodic models can have
    n * value transients stretching over hundreds of observations, so the
    verdict uses the slope between the two largest grid points.  details
    also record the maximum of the second family's n * value curve over
    n = 1..max(m_term_grid) and where it occurs.  An empty m_term_grid skips the
    second family.  A family whose value is not finite at some grid n fails, and
    its ratios hold that value.  A Sigma_t that is singular or not finite up to
    the longest length fails the check, with details["singular_t"] its first t.
    """
    cross = _CrossSums(model, theta0, n_grid, m_term_grid)
    _reduce_rows(_resid_rows(model, cross.theta0, cross.theta0, cross.horizon, 1, (0, 1, cross.kcap)), [cross])
    return cross.result()


class _CrossSums:
    """check_cross_sums as a reducer of a _resid_rows pass over t = 1..horizon that
    stacks the order-1 tuples up to lag kcap (and may hold more of both).  A slot
    that is identically zero is not in the pass, so every slot is reduced."""

    def __init__(self, model: TdVarmaModel, theta0, n_grid: Sequence[int], m_term_grid: Sequence[int]):
        self.model, self.theta0 = model, np.asarray(theta0, dtype=float)
        self.n_grid = sorted(int(v) for v in n_grid)
        self.m_term_grid = sorted(int(v) for v in m_term_grid)
        if not self.n_grid or min(self.n_grid + self.m_term_grid) < 1:
            raise ContractError("cross-sum lengths must be integers >= 1, with at least one in n_grid")
        self.n_max, self.n2 = max(self.n_grid), max(self.m_term_grid, default=0)
        self.horizon = max(self.n_max, self.n2)
        self.kcap = min(self.horizon - 1, 2 * D_CAP)
        self.g_all = model.g_values(range(1, self.horizon + 1), self.theta0)
        try:  # a Sigma_t that is singular or not finite up to the horizon fails the check
            self.h, self.singular_t = model.scale_factor(self.horizon, self.theta0)[0], None
        except SingularCovarianceError as exc:
            self.h, self.singular_t = None, exc.t

    def start(self, taus: list) -> None:
        # the weight norms up to n_max, and up to n2 the whitened lag-k weights
        # V_t[i, :, k-1, :] = H_t w_{t,i,k} g_{t-k} L with Sigma = L L^T and
        # H_t' H_t = Sigma_t^{-1}, so that V_t V_{t+d}^T carries the Sigma sandwich;
        # both terms of the second family are Frobenius products, which an
        # orthogonal Q_t in H_t = Q_t Sigma_t^{-1/2} leaves unchanged.  Row n2 has
        # n2 - 1 lags past lag 0, so no more are kept
        model = self.model
        self.n_slots = sum(len(tau) == 1 for tau in taus)  # the order-1 tuples follow ()
        self.norms = np.zeros((self.n_slots, self.n_max, self.kcap + 1))
        self.whitened = np.zeros((self.n2, self.n_slots, model.r, min(self.kcap, max(self.n2 - 1, 0)), model.r))
        if self.n2 and self.n_slots:
            self.g_chol = self.g_all @ model.sigma_chol

    def take(self, t0: int, block: np.ndarray, norms: np.ndarray) -> None:
        t1, lags = t0 + len(block) - 1, min(block.shape[3] - 1, self.kcap)
        if t0 <= self.n_max:
            rows = min(t1, self.n_max) - t0 + 1
            self.norms[:, t0 - 1 : t0 - 1 + rows, : lags + 1] = norms[: self.n_slots, :rows, : lags + 1]
        lo, hi, lags = max(t0, 2), min(t1, self.n2), min(lags, self.whitened.shape[3])
        if lo > hi or self.singular_t is not None:
            return
        # rows lo..hi at once: H_t times each slot's lag panel, then each lag times g_{t-k} L,
        # zero past a row's own t - 1 lags
        panels = block[lo - t0 : hi - t0 + 1, 1 : 1 + self.n_slots, :, 1 : lags + 1]
        left = (self.h[lo - 1 : hi, None] @ panels.reshape(*panels.shape[:3], -1)).reshape(panels.shape)
        src = np.arange(lo - 2, hi - 1)[:, None] - np.arange(lags)  # t - k - 1 for k = 1..lags
        white = left.transpose(0, 1, 3, 2, 4) @ self.g_chol[np.maximum(src, 0)][:, None]
        white.transpose(0, 2, 1, 3, 4)[src < 0] = 0.0
        self.whitened[lo - 1 : hi, :, :, :lags] = white.transpose(0, 1, 3, 2, 4)

    def result(self) -> CheckResult:
        if self.singular_t is not None:
            return CheckResult("cross_sums", "fail", {}, {"singular_t": self.singular_t})
        n_grid, m_term_grid, n_max, n2, kcap = self.n_grid, self.m_term_grid, self.n_max, self.n2, self.kcap
        norms, whitened = self.norms, self.whitened
        details: dict = {}
        verdict = "pass"

        # first family: v_k = N_{s+k}[k], k = 1..n-s, along the diagonal of each start s;
        # cumulative sums over k give sum v and sum v^2 for every n at once
        s_idx, k_idx = np.arange(1, n_max)[:, None], np.arange(kcap + 1)[None, :]
        # indices past row n_max are clipped; they lie past the last k any n reads
        diag = norms[:, np.minimum(s_idx + k_idx - 1, n_max - 1), k_idx]
        diag[:, :, 0] = 0.0  # the diagonals start at lag 1
        c1 = np.cumsum(diag, axis=2)
        c2 = np.cumsum(np.square(diag, out=diag), axis=2, out=diag)  # in place: run_all peaks here
        g2 = np.einsum("trs,trs->t", self.g_all, self.g_all)
        first_vals = {}
        for n in n_grid:
            s = np.arange(1, n)
            sv, sv2 = c1[:, s - 1, np.minimum(n - s, kcap)], c2[:, s - 1, np.minimum(n - s, kcap)]
            totals = np.sum(g2[s - 1] * 0.5 * (sv**2 - sv2), axis=1)
            first_vals[n] = float(np.max(totals, initial=0.0)) / (n * n)  # nan stays nan
        ratios = {f"first_n{n}": n * val for n, val in first_vals.items()}

        second_vals = {}
        if m_term_grid:
            inner = np.zeros(n2 + 1)
            if self.n_slots:
                inner[1:] = _second_family_inner(whitened)
            csum = np.cumsum(inner)
            for n in m_term_grid:
                second_vals[n] = float(csum[n]) / (n * n)
                ratios[f"second_n{n}"] = n * second_vals[n]
            curve = csum[1:] / np.arange(1, n2 + 1)  # n * value for n = 1..n2
            details["second_curve_max"] = float(curve.max())
            details["second_curve_argmax_n"] = int(np.argmax(curve)) + 1

        def trend(vals: dict, label: str):
            nonlocal verdict
            if not all(map(math.isfinite, vals.values())):  # the ratios record the value
                verdict = "fail"
                return
            pts = sorted((n, n * v) for n, v in vals.items() if v > 0)
            if len(pts) < 2:
                return
            (n1, y1), (n2, y2) = pts[-2], pts[-1]
            slope = math.log(y2 / y1) / math.log(n2 / n1)
            details[f"{label}_trend"] = slope
            if slope > 0.15:
                verdict = "fail"

        trend(first_vals, "first")
        trend(second_vals, "second")
        details["gaussian_fourth_cumulant_term_skipped"] = True
        return CheckResult("cross_sums", verdict, {}, {**details, "ratios": ratios})


def _second_family_inner(whitened: np.ndarray) -> np.ndarray:
    """Per-t summands, t = 1..T, of the second cross-time family.

    whitened[t-1] holds the lag-k weights V_t[i, a, k-1, b] of slot i,
    zero-padded over k, shape (T, S, r, K, r).  For each shift d <= D_CAP the
    slot-pair sandwiches S_t[i, j] = sum_k V_t[i, :, k] V_{t+d}[j, :, k+d]^T are
    one batched (S r, K r) @ (K r, S r) product over t; the summand adds
    max_ij |<D_i, D_j> + <S_t[j, i], S_t[i, j]>| (Frobenius products,
    D_i = S_t[i, i]) over the shifts.
    """
    T, n_slots, r, K, _ = whitened.shape
    flat = whitened.reshape(T, n_slots * r, K * r)  # rows (slot, a), columns (lag, b)
    inner = np.zeros(T)
    for d in range(1, min(D_CAP, T - 1) + 1):
        width = max(K - d, 0) * r
        s_all = flat[: T - d, :, :width] @ flat[d:, :, d * r : d * r + width].transpose(0, 2, 1)
        s_all = s_all.reshape(T - d, n_slots, r, n_slots, r)  # [t, i, a, j, b] = S_t[i, j][a, b]
        d_self = np.einsum("tiaib->tiab", s_all)
        term2 = np.einsum("tjab,tiab->tij", d_self, d_self)
        term3 = np.einsum("tjaib,tiajb->tij", s_all, s_all)
        inner[: T - d] += np.max(np.abs(term2 + term3), axis=(1, 2))
    return inner


def run_all(
    model: TdVarmaModel,
    theta0=None,
    n_probe: int = N_PROBE,
    cross_grid: Sequence[int] = CROSS_GRID,
    cross_m_grid: Sequence[int] = CROSS_M_GRID,
    info_grid: Sequence[int] = INFO_GRID,
) -> AssumptionReport:
    """Run every audit and assemble the report.

    check_psi_decay and check_cross_sums share one pass of the weight recurrence,
    and each reduces every row as it is produced.  The pass runs to the longer of
    n_probe and the cross-sum horizon; past n_probe it stacks only the order-1
    tuples, up to the cross-sum lag cap.  Their results are those of the checks
    called alone, bit for bit.  Each check's details["wall_s"] leaves the pass
    out; the report's weight_pass_s holds it.  A check whose horizon holds a
    Sigma_t that is singular or not finite fails with details["singular_t"], its
    first t, and the other checks still run.
    """
    theta0 = model.layout.theta0_array() if theta0 is None else np.asarray(theta0, dtype=float)
    start = time.perf_counter()
    with np.errstate(all="ignore"):  # as in each check
        decay, cross = _DecayTails(n_probe), _CrossSums(model, theta0, cross_grid, cross_m_grid)
        tail = (n_probe, 1, cross.kcap) if cross.horizon > n_probe else None
        _reduce_rows(_resid_rows(model, theta0, theta0, max(n_probe, cross.horizon), 3, tail), [decay, cross])
    weight_pass_s = time.perf_counter() - start
    psi_decay, cross_sums = _timed(decay.result)(), _timed(cross.result)()
    del decay, cross  # their arrays are freed before the other checks make theirs
    checks = {}
    for res in (
        psi_decay,
        check_sigma_bounds(model, theta0, n_probe=n_probe),
        check_moment_bounds(model.sigma),
        check_information(model, theta0, n_grid=info_grid),
        cross_sums,
    ):
        checks[res.name] = res
    constants: dict = {}
    for res in checks.values():
        constants.update(res.constants)
    return AssumptionReport(
        phi=checks["psi_decay"].constants.get("decay_base"),
        bound_constants=constants,
        h37_ratios=checks["cross_sums"].details.get("ratios", {}),
        verdicts={name: res.verdict for name, res in checks.items()},
        checks=checks,
        weight_pass_s=weight_pass_s,
    )
