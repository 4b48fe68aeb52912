"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 check the theoretical standard errors sqrt(diag(V^{-1})/n)
against the paper's numbers.  The theoretical pairs printed in the source
cannot be reproduced as stated: the example1 pair is sqrt(diag(V)/n) (an
inversion slip) and the example2 quadruple assumes a symmetry of the scale
block that the documented model does not have.  Each criterion therefore
compares with published numbers that do pin the quantity down (the source's
own Monte Carlo tables) and prints the old values next to what the program
gives.  VALIDATION.md at the repository root holds the full analysis and the
three independent checks of the information matrix itself.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import make_sin_varma11
from tdvarma import examples
from tdvarma.assumptions import check_psi_decay, fourth_cumulant_residual, psi_deriv_norms, run_all
from tdvarma.asymptotics import theoretical_v
from tdvarma.likelihood import empirical_vw, objective, objective_value, residuals
from tdvarma.mc import McPlan, run_mc
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.representations import build_psi
from tdvarma.simulate import SimPlan, make_rng, simulate
from tdvarma.timefn import Constant, MatrixTimeFunction, Param, Sine

RESULTS: list = []
THREADS = min(4, os.cpu_count() or 1)


def record(criterion: str, passed: bool, detail: str):
    RESULTS.append((criterion, passed, detail))
    assert passed, f"{criterion}: {detail}"


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_example2_theoretical_errors():
    m = examples.example2_model()
    t0 = time.time()
    rep = theoretical_v(m, np.array(m.layout.theta0), 50)
    elapsed = time.time() - t0
    # printed theoretical quadruple: its symmetric scale pair needs V33 = V44,
    # which the documented model does not give (see VALIDATION.md)
    published = np.array(examples.PRINTED_THEORY_SE["example2"][50])
    # table 2, n = 50, line (c): sample standard deviations of the estimates
    table2_c50 = np.array(examples.PAPER_TABLES[2].printed[50]["c"])

    def near_table2(se):
        return bool(np.all(np.abs(se / table2_c50 - 1.0) <= 0.15))

    diag_v_se = np.sqrt(np.diag(rep.v) / 50)
    ok_se = rep.se is not None and near_table2(rep.se)
    # the comparison separates: neither the printed quadruple nor the
    # uninverted sqrt(diag(V)/n) passes it
    ok_sep = not near_table2(published) and not near_table2(diag_v_se)
    record(
        "criterion 1 (example2 n=50 theoretical se vs table-2 sample std)",
        ok_se and ok_sep,
        f"got {np.round(rep.se, 4).tolist()} vs table-2 (c) {table2_c50.tolist()} "
        f"(within 15%: {ok_se}); printed theoretical {published.tolist()} and "
        f"sqrt(diag(V)/n) = {np.round(diag_v_se, 4).tolist()} both rejected: {ok_sep}; "
        f"V33 = {rep.v[2, 2]:.4f}, V44 = {rep.v[3, 3]:.4f} (elapsed {elapsed:.2f}s); "
        "see VALIDATION.md",
    )


def test_criterion_01_runtime_and_validity():
    m = examples.example2_model()
    t0 = time.time()
    rep = theoretical_v(m, np.array(m.layout.theta0), 50)
    elapsed = time.time() - t0
    ok = elapsed < 5.0 and rep.positive_definite
    record("criterion 1 (runtime < 5 s, V positive definite)", ok, f"{elapsed:.2f}s")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_example1_theoretical_errors():
    m = examples.example1_theory_model()
    rep = theoretical_v(m, np.array(m.layout.theta0), 25)
    # the printed pair is sqrt(diag(V)/n), not sqrt(diag(V^{-1})/n): it still
    # pins V down to four digits
    published = np.array(examples.PRINTED_THEORY_SE["example1_theory"][25])
    diag_v_se = np.sqrt(np.diag(rep.v) / 25)
    ok_v = bool(np.all(np.abs(diag_v_se - published) <= 5e-4))
    ok_inv = rep.se is not None and np.allclose(
        rep.se, np.sqrt(np.diag(np.linalg.inv(rep.v)) / 25), rtol=1e-12, atol=0.0
    )

    # table 1, n = 400, line (b): mean estimated standard errors, which
    # settle the convention: only the inverted information matches them
    ms = examples.example1_sim_model()
    rep400 = theoretical_v(ms, np.array(ms.layout.theta0), 400)
    table1_b400 = np.array(examples.PAPER_TABLES[1].printed[400]["b"])

    def near_table1(se):
        return bool(np.all(np.abs(se / table1_b400 - 1.0) <= 0.05))

    ok_mc = rep400.se is not None and near_table1(rep400.se)
    ok_sep = not near_table1(np.sqrt(np.diag(rep400.v) / 400))
    record(
        "criterion 2 (example1 n=25 published V, se = sqrt(diag(V^-1)/n) per table 1)",
        ok_v and ok_inv and ok_mc and ok_sep,
        f"sqrt(diag(V)/n) = {np.round(diag_v_se, 4).tolist()} vs printed {published.tolist()} "
        f"(ok={ok_v}); se = {np.round(rep.se, 4).tolist()} (inverse ok={ok_inv}); "
        f"example1_sim n=400 se = {np.round(rep400.se, 4).tolist()} vs table-1 (b) "
        f"{table1_b400.tolist()} (within 5%: {ok_mc}, sqrt(diag(V)/n) rejected: {ok_sep}); "
        "see VALIDATION.md",
    )


def test_criterion_02_offdiagonal_and_runtime():
    m = examples.example1_theory_model()
    t0 = time.time()
    rep = theoretical_v(m, np.array(m.layout.theta0), 25)
    elapsed = time.time() - t0
    ok = abs(rep.v[0, 1]) <= 1e-10 and elapsed < 5.0
    record(
        "criterion 2 (off-diagonal information = 0, runtime < 5 s)",
        ok,
        f"|V12| = {abs(rep.v[0, 1]):.2e}, {elapsed:.2f}s",
    )


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_table1_n100_cell():
    table = examples.PAPER_TABLES[1]
    plan = McPlan.from_run(examples.build(table.which), examples.paper_run(table.which), n_list=(100,))
    t0 = time.time()
    cell = run_mc(plan, threads=THREADS).cell(100)
    elapsed = time.time() - t0
    pub_a = np.array(table.printed[100]["a"])
    pub_b = np.array(table.printed[100]["b"])
    ok_a = bool(np.all(np.abs(cell.mean_estimate - pub_a) <= 0.012))
    ok_b = bool(np.all(np.abs(cell.mean_se / pub_b - 1.0) <= 0.10))
    ok_d = bool(np.all((cell.reject_pct >= 2.5) & (cell.reject_pct <= 8.0)))
    ok = ok_a and ok_b and ok_d and elapsed < 600.0
    record(
        "criterion 3 (table-1 n=100 cell, R=1000)",
        ok,
        f"a={np.round(cell.mean_estimate, 4).tolist()} "
        f"b={np.round(cell.mean_se, 4).tolist()} "
        f"d={np.round(cell.reject_pct, 1).tolist()} elapsed={elapsed:.0f}s "
        f"(a ok={ok_a}, b ok={ok_b}, d ok={ok_d})",
    )


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04_table2_n50_cell():
    table = examples.PAPER_TABLES[2]
    plan = McPlan.from_run(examples.build(table.which), examples.paper_run(table.which), n_list=(50,))
    cell = run_mc(plan, threads=THREADS).cell(50)
    pub_a = np.array(table.printed[50]["a"])
    pub_c = np.array(table.printed[50]["c"])
    ok_a = bool(np.all(np.abs(cell.mean_estimate - pub_a) <= 0.02))
    ok_c = bool(np.all(np.abs(cell.std_estimate / pub_c - 1.0) <= 0.15))
    record(
        "criterion 4 (table-2 n=50 cell, R=1000)",
        ok_a and ok_c,
        f"a={np.round(cell.mean_estimate, 4).tolist()} "
        f"c={np.round(cell.std_estimate, 4).tolist()} (a ok={ok_a}, c ok={ok_c})",
    )


# -- criterion 5 ---------------------------------------------------------------


def _values_by_time(func, theta, n):
    """func.value(s, theta) for s = 1..n, indexed by s (scalar evaluations)."""
    return [None] + [func.value(s, theta) for s in range(1, n + 1)]


def _closed_ma_weights_varma11(a, b, t):
    """Incremental product-form MA weights for orders (1,1), given the
    coefficient values a[s] = A_s and b[s] = B_s."""
    out = {}
    prefix = np.eye(a[1].shape[0])
    for k in range(1, t):
        tail = b[t - k + 1] + a[t - k + 1]
        out[k] = prefix @ tail
        prefix = prefix @ a[t - k + 1]
    return out


def _closed_ma_weights_var1(a, t):
    """Running product weights for a pure VAR(1), given a[s] = A_s."""
    out = {}
    prod = np.eye(a[1].shape[0])
    for k in range(1, t):
        prod = prod @ a[t - k + 1]
        out[k] = prod.copy()
    return out


def _random_sin_var1(rng):
    entries = [
        [Sine(0, rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi)),
         Sine(1, rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi))],
        [Sine(2, rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi)),
         Sine(3, rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi))],
    ]
    amps = tuple(rng.uniform(-0.7, 0.7, size=4))
    layout = ParamLayout(names=("p0", "p1", "p2", "p3"), n_ar=4, n_ma=0, theta0=amps)
    return TdVarmaModel(2, [MatrixTimeFunction(entries)], [], None, np.eye(2), layout)


def test_criterion_05_recurrence_closed_form_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    for draw in range(100):
        m11 = make_sin_varma11(rng)
        th = np.array(m11.layout.theta0)
        psi = build_psi(m11, th, th, 50)
        a, b = (_values_by_time(f, th, 50) for f in (m11.a_funcs[0], m11.b_funcs[0]))
        for t in range(2, 51):
            closed = _closed_ma_weights_varma11(a, b, t)
            for k in range(1, t):
                worst = max(worst, float(np.abs(psi.weight(t, k) - closed[k]).max()))

        mv = _random_sin_var1(rng)
        thv = np.array(mv.layout.theta0)
        psiv = build_psi(mv, thv, thv, 50)
        av = _values_by_time(mv.a_funcs[0], thv, 50)
        for t in range(2, 51):
            closed = _closed_ma_weights_var1(av, t)
            for k in range(1, t):
                worst = max(worst, float(np.abs(psiv.weight(t, k) - closed[k]).max()))
    record(
        "criterion 5 (recurrence vs product forms, 100 draws)",
        worst < 1e-12,
        f"max abs deviation {worst:.2e}",
    )


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_score_exactness():
    worst = 0.0
    for which in ("example1_sim", "example1_theory", "example2"):
        m = examples.build(which)
        th0 = np.array(m.layout.theta0)
        series = simulate(SimPlan(m, m.layout.theta0, 50, 606))
        rng = np.random.default_rng(42)
        for _ in range(20):
            th = th0 + rng.uniform(-0.05, 0.05, size=th0.size)
            rep = objective(m, series, th)
            for i in range(th.size):
                h = 1e-6 * (1.0 + abs(th[i]))
                tp, tm = th.copy(), th.copy()
                tp[i] += h
                tm[i] -= h
                fd = (objective_value(m, series, tp) - objective_value(m, series, tm)) / (2 * h)
                worst = max(worst, abs(rep.grad[i] - fd) / max(1.0, abs(fd)))
    record("criterion 6 (analytic score vs finite differences)", worst < 1e-6, f"max rel err {worst:.2e}")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_cross_representation_residual_derivatives():
    m = examples.example1_sim_model()
    th0 = np.array(m.layout.theta0)
    n = 100
    series = simulate(SimPlan(m, m.layout.theta0, n, 99))
    eps = make_rng(99, 0).standard_normal((n, m.r)) @ m.sigma_chol.T
    res = residuals(m, series, th0)
    psi = build_psi(m, th0, th0, n, max_deriv_order=1)
    g_all = m.g_values(np.arange(1, n + 1), th0)
    scaled = np.einsum("trs,ts->tr", g_all, eps)
    worst = 0.0
    for i in range(m.m):
        for t in range(1, n + 1):
            acc = np.zeros(2)
            for k in range(1, t):
                acc += psi.deriv_weight(t, k, (i,)) @ scaled[t - 1 - k]
            worst = max(worst, float(np.abs(acc - res.de[i, t - 1]).max()))
    record("criterion 7 (recursive vs MA-form residual derivatives)", worst < 1e-9, f"max {worst:.2e}")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_gaussian_w_equals_v():
    m = examples.example1_sim_model()
    th0 = np.array(m.layout.theta0)
    R = 500
    diffs = []
    for rep_i in range(R):
        series = simulate(SimPlan(m, m.layout.theta0, 200, 314, rep_i))
        v, w = empirical_vw(m, series, th0)
        diffs.append(v - w)
    diffs = np.array(diffs)
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / math.sqrt(R)
    ratio = float(np.max(np.abs(mean) / (3.0 * se)))
    record(
        "criterion 8 (averaged V-hat equals W-hat within 3 mc-se)",
        ratio < 1.0,
        f"max |mean| / (3 se) = {ratio:.3f} over {R} replications",
    )


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_assumption_audits():
    ok_parts = []
    for which in ("example1_sim", "example2"):
        m = examples.build(which)
        rep = run_all(
            m,
            n_probe=250,
            cross_grid=(50, 100, 200),
            cross_m_grid=(50, 100),
            info_grid=(25, 50, 100),
        )
        ok_parts.append((which, rep.all_pass()))

    layout = ParamLayout(names=("a1", "a2"), n_ar=2, n_ma=0, theta0=(1.5, 1.5))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(1)]])
    explosive = TdVarmaModel(2, [a], [], None, np.eye(2), layout)
    expl = check_psi_decay(explosive, (1.5, 1.5), n_probe=80)
    ok_parts.append(("explosive-fails", expl.verdict == "fail"))

    m_int = examples.example1_sim_model(freq_a=2 * math.pi / 25, freq_b=2 * math.pi / 25)
    norms = psi_deriv_norms(m_int, np.array(m_int.layout.theta0), 200, max_order=1)
    beyond = max(
        (float(arr[52:].max()) for rows in norms.values() for arr in rows if arr.shape[0] > 52),
        default=0.0,
    )
    ok_parts.append(("integer-period-vanishing", beyond < 1e-14))
    ok = all(flag for _, flag in ok_parts)
    record("criterion 9 (assumption audits)", ok, f"{ok_parts}")


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_fourth_moment_identity():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for r in (2, 3):
        for _ in range(10):
            root = rng.standard_normal((r, r))
            sigma = root @ root.T + 0.3 * np.eye(r)
            sigma /= np.max(np.abs(sigma))
            worst = max(worst, float(np.max(np.abs(fourth_cumulant_residual(sigma)))))
    record("criterion 10 (Gaussian fourth-moment identity)", worst < 1e-12, f"max |residual| {worst:.2e}")
