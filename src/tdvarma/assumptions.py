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

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .asymptotics import theoretical_v
from .errors import ContractError
from .model import TdVarmaModel
from .representations import _resid_rows
from .representations import build_pi, build_psi  # unused here; perfbench/tracer.py wraps these names
from .timefn import sorted_tuples

# -- Kronecker / moment utilities --------------------------------------------


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat).reshape(-1, order="F")


def commutation_matrix(r: int) -> np.ndarray:
    """Permutation K with K vec(A) = vec(A') for r x r matrices A."""
    k = np.zeros((r * r, r * r))
    for i in range(r):
        for j in range(r):
            k[j * r + i, i * r + j] = 1.0
    return k


def gaussian_kappa(sigma) -> np.ndarray:
    """Fourth-moment matrix E[vec(ee') vec(ee')'] for e ~ N(0, sigma),
    assembled entrywise from the pairwise-product expansion of E[e_a e_b e_c e_d]."""
    s = np.asarray(sigma, dtype=float)
    r = s.shape[0]
    kappa = np.empty((r * r, r * r))
    for a in range(r):
        for b in range(r):
            row = b * r + a
            for c in range(r):
                for d in range(r):
                    col = d * r + c
                    kappa[row, col] = s[a, b] * s[c, d] + s[a, c] * s[b, d] + s[a, d] * s[b, c]
    return kappa


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

    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())


# -- MA-derivative norms ------------------------------------------------------


def psi_deriv_norms(
    model: TdVarmaModel, theta0, n: int, max_order: int = 3, kmax: Optional[int] = None
) -> dict:
    """Frobenius norms of the residual-derivative MA weights.

    Returns {tuple: [per-t 1d arrays over k = 0..K_t]} for all sorted index
    tuples of order 1..max_order; each row of weights is reduced to norms as
    it is produced, keeping the memory footprint linear in the table size.
    """
    out: dict = {tau: [] for tau in sorted_tuples(range(model.m), max_order)[1:]}
    for _, row in _resid_rows(model, theta0, theta0, n, max_order, kmax):
        zero = np.zeros(row[()].shape[0])  # shared by the identically zero tuples
        zero.flags.writeable = False
        for tau, norms in out.items():
            arr = row.get(tau)
            norms.append(zero if arr is None else np.sqrt(np.einsum("krs,krs->k", arr, arr)))
    return out


# -- individual checks --------------------------------------------------------


def check_psi_decay(
    model: TdVarmaModel,
    theta0,
    n_probe: int = 500,
    nu_grid: Sequence[int] = (1, 5, 10, 20, 40),
) -> CheckResult:
    """Geometric decay of MA-derivative tail sums (squared and fourth powers
    for first/second-order weights; bounded totals for third order)."""
    norms = psi_deriv_norms(model, theta0, n_probe, max_order=3)
    # weights whose norm sits at the roundoff floor count as exact zeros
    norms = {
        tau: [np.where(arr > 1e-14, arr, 0.0) for arr in rows] for tau, rows in norms.items()
    }
    nu_grid = [int(v) for v in nu_grid if v <= n_probe - 1]
    phis = []
    constants: dict = {}
    details: dict = {"nu_grid": nu_grid}
    verdict = "pass"
    max_k_nonzero = 0
    any_positive = False

    def tail_stats(rows, power):
        tails = []
        for nu in nu_grid:
            best = 0.0
            for arr in rows:
                if arr.shape[0] - 1 >= nu:
                    best = max(best, float(np.sum(arr[nu:] ** power)))
            tails.append(best)
        return np.array(tails)

    order12 = [tau for tau in norms if len(tau) <= 2]
    order3 = [tau for tau in norms if len(tau) == 3]

    for tau in order12:
        rows = norms[tau]
        for arr in rows:
            nz = np.nonzero(arr > 0)[0]
            if nz.size:
                max_k_nonzero = max(max_k_nonzero, int(nz[-1]))
                any_positive = True
        for power, label in ((2, "sq"), (4, "4th")):
            tails = tail_stats(rows, power)
            if not np.all(np.isfinite(tails)):
                verdict = "fail"
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

    o3_max = 0.0
    for tau in order3:
        for arr in norms[tau]:
            s = float(np.sum(arr**2))
            if not math.isfinite(s):
                verdict = "fail"
            o3_max = max(o3_max, s)
    constants["sum_sq_bound_o3"] = o3_max

    phi = max(phis) if phis else (0.0 if any_positive else None)
    if phi is None:
        verdict = "inconclusive"  # no non-zero weights at all
    details["max_k_nonzero"] = max_k_nonzero
    if any_positive and max_k_nonzero < n_probe - 2:
        details["k_cutoff"] = max_k_nonzero
    if phi is not None:
        constants["decay_base"] = phi
    return CheckResult("psi_decay", verdict, constants, details)


def _trend_ok(values: np.ndarray) -> bool:
    """Bounded–not-increasing heuristic: the last-decile max must not exceed
    the max over the earlier horizon by more than 1%."""
    n = values.shape[0]
    if n < 2:
        return True
    cut = max(1, n - max(1, n // 10))
    return bool(np.max(values[cut:]) <= 1.01 * np.max(values[:cut]) + 1e-300)


def check_sigma_bounds(model: TdVarmaModel, theta0, n_probe: int = 500) -> CheckResult:
    """Finiteness (and non-growth) of covariance / scale derivative norms."""
    theta0 = np.asarray(theta0, dtype=float)
    ts = np.arange(1, n_probe + 1)
    m = model.m
    constants: dict = {}
    verdict = "pass"
    details: dict = {}

    def fro2(stack):
        return np.einsum("trs,trs->t", stack, stack)

    g = model.g_values(ts, theta0)
    quantities = {"scale_norm_bound": fro2(g)}
    siginv = np.linalg.inv(model.sigma_t_all(n_probe, theta0))
    quantities["covinv_norm_bound"] = fro2(siginv)

    singles = [(i,) for i in range(m)]
    pairs = [tau for tau in sorted_tuples(range(m), 2) if len(tau) == 2]
    triples = [tau for tau in sorted_tuples(range(m), 3) if len(tau) == 3]

    def accumulate(key, stacks):
        arr = np.zeros(n_probe)
        for s in stacks:
            arr = np.maximum(arr, fro2(s))
        quantities[key] = arr

    accumulate("cov_d1_bound", (model._sigma_t_deriv_any(ts, theta0, tau) for tau in singles))
    accumulate("cov_d2_bound", (model._sigma_t_deriv_any(ts, theta0, tau) for tau in pairs))
    accumulate("covinv_d1_bound", (model.sigma_t_inv_deriv(ts, theta0, tau) for tau in singles))
    accumulate("covinv_d2_bound", (model.sigma_t_inv_deriv(ts, theta0, tau) for tau in pairs))
    accumulate("covinv_d3_bound", (model.sigma_t_inv_deriv(ts, theta0, tau) for tau in triples))

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


def check_moment_bounds(sigma, dist: str = "gaussian") -> CheckResult:
    """Innovation moment bounds; exact formulas for Gaussian noise."""
    if dist != "gaussian":
        raise ContractError("only Gaussian innovations are supported")
    s = np.asarray(sigma, dtype=float)
    kappa = gaussian_kappa(s)
    vs = vec(s)
    kron = np.kron(s, s)
    m3 = (
        float(np.linalg.norm(kappa))
        + float(np.linalg.norm(np.outer(vs, vs)))
        + float(np.linalg.norm(kron))
        + float(np.linalg.norm(commutation_matrix(s.shape[0]) @ kron))
    )
    constants = {
        "moment_8th": gaussian_quad_norm_moment(s, 4),
        "moment_3rd_norm": 0.0,  # odd Gaussian moments vanish
        "moment_matrix_norm": m3,
        "fourth_cumulant_residual_norm": float(np.linalg.norm(fourth_cumulant_residual(s))),
    }
    verdict = "pass" if all(math.isfinite(v) for v in constants.values()) else "fail"
    return CheckResult("moment_bounds", verdict, constants, {})


def check_information(
    model: TdVarmaModel, theta0, n_grid: Sequence[int] = (25, 50, 100)
) -> CheckResult:
    """Positive definiteness of the finite-horizon information matrix."""
    min_eigs = {}
    verdict = "pass"
    for n in n_grid:
        rep = theoretical_v(model, theta0, int(n))
        min_eigs[int(n)] = rep.min_eigenvalue
        if not rep.positive_definite:
            verdict = "fail"
    return CheckResult("information_pd", verdict, {"min_eigenvalue": min(min_eigs.values())}, {"min_eigs": min_eigs})


def check_cross_sums(
    model: TdVarmaModel,
    theta0,
    n_grid: Sequence[int] = (50, 100, 200, 400),
    m_term_grid: Sequence[int] = (300, 600, 900, 1200),
    d_cap: int = 60,
) -> CheckResult:
    """O(1/n) behaviour of the cross-time coupling sums.

    The first family couples MA-derivative norms along shifted diagonals;
    the second couples vectorized weight sandwiches through the innovation
    fourth-moment structure.  For Gaussian innovations the fourth-cumulant
    residual vanishes, so its term is skipped exactly.

    Lags and shifts are capped at d_cap: geometric weight decay makes the
    discarded tail negligible, and the cap keeps long horizons affordable.
    Quasi-periodic models can have n * value transients stretching over
    hundreds of observations, so the verdict uses the slope between the two
    largest grid points.
    """
    theta0 = np.asarray(theta0, dtype=float)
    n_grid = sorted(int(v) for v in n_grid)
    m_term_grid = sorted(int(v) for v in m_term_grid)
    n_max = max(n_grid)
    horizon = max([n_max, *m_term_grid])
    kcap = min(horizon - 1, 2 * d_cap)
    norms = psi_deriv_norms(model, theta0, n_max, max_order=1, kmax=kcap)
    slots = [tau[0] for tau, rows in norms.items() if any(a.any() for a in rows)]
    ts = np.arange(1, horizon + 1)
    g_all = model.g_values(ts, theta0)
    g2 = np.einsum("trs,trs->t", g_all, g_all)

    ratios: dict = {}
    details: dict = {}
    verdict = "pass"

    first_vals = {}
    for n in n_grid:
        best = 0.0
        for i in slots:
            rows = norms[(i,)]
            total = 0.0
            for s in range(1, n):
                v = np.array(
                    [
                        rows[s + k - 1][k] if rows[s + k - 1].shape[0] > k else 0.0
                        for k in range(1, n - s + 1)
                    ]
                )
                total += g2[s - 1] * 0.5 * (v.sum() ** 2 - float(v @ v))
            best = max(best, total / (n * n))
        first_vals[n] = best
        ratios[f"first_n{n}"] = n * best

    second_vals = {}
    if m_term_grid and not slots:
        second_vals = {n: 0.0 for n in m_term_grid}
        ratios.update({f"second_n{n}": 0.0 for n in m_term_grid})
    elif m_term_grid:
        n2_max = max(m_term_grid)
        sig = model.sigma_t_all(n2_max, theta0)
        evals, evecs = np.linalg.eigh(sig)
        inv_sqrt = np.einsum("tab,tb,tcb->tac", evecs, 1.0 / np.sqrt(evals), evecs)
        urows = []  # per t: (n_slots, K_t, r, r)
        for t, (_, row) in enumerate(_resid_rows(model, theta0, theta0, n2_max, 1, kcap), 1):
            zero = np.zeros_like(row[()])
            rows = np.stack([row.get((i,), zero)[1:] for i in slots])
            K = rows.shape[1]
            gseg = g_all[t - 2 :: -1][:K] if t >= 2 else g_all[:0]
            urows.append(np.einsum("ab,ikbc,kcd->ikad", inv_sqrt[t - 1], rows, gseg))
        inner = np.zeros(n2_max + 1)
        for t in range(2, n2_max + 1):
            ut = urows[t - 1]
            tot = 0.0
            for d in range(1, min(d_cap, n2_max - t) + 1):
                utd = urows[t + d - 1]
                L = min(ut.shape[1], utd.shape[1] - d)
                if L <= 0:
                    continue
                s_all = np.einsum(
                    "ikab,bc,jkdc->ijad", ut[:, :L], model.sigma, utd[:, d : d + L]
                )
                d_self = np.einsum("iiab->iab", s_all)
                term2 = np.einsum("jab,iab->ij", d_self, d_self)
                term3 = np.einsum("jiab,ijab->ij", s_all, s_all)
                tot += float(np.max(np.abs(term2 + term3)))
            inner[t] = tot
        csum = np.cumsum(inner)
        for n in m_term_grid:
            second_vals[n] = float(csum[n]) / (n * n)
            ratios[f"second_n{n}"] = n * second_vals[n]

    def trend(vals: dict, label: str):
        nonlocal verdict
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


def run_all(
    model: TdVarmaModel,
    theta0=None,
    n_probe: int = 500,
    nu_grid: Sequence[int] = (1, 5, 10, 20, 40),
    cross_grid: Sequence[int] = (50, 100, 200, 400),
    cross_m_grid: Sequence[int] = (300, 600, 900, 1200),
    info_grid: Sequence[int] = (25, 50, 100),
) -> AssumptionReport:
    """Run every audit and assemble the report."""
    theta0 = model.layout.theta0_array() if theta0 is None else np.asarray(theta0, dtype=float)
    checks = {}
    for res in (
        check_psi_decay(model, theta0, n_probe=n_probe, nu_grid=nu_grid),
        check_sigma_bounds(model, theta0, n_probe=n_probe),
        check_moment_bounds(model.sigma),
        check_information(model, theta0, n_grid=info_grid),
        check_cross_sums(model, theta0, n_grid=cross_grid, m_term_grid=cross_m_grid),
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
    )
