import math
import os
import warnings

import numpy as np
import pytest
from conftest import make_random_varma, make_random_varma22, make_scale_singular_at
from oracles import example2_trace_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from tdvarma import examples
from tdvarma.assumptions import check_information
from tdvarma.asymptotics import _information_pass, example1_v_closed, theoretical_v
from tdvarma.errors import ContractError, NumericalError, SingularCovarianceError
from tdvarma.mc import McPlan, run_mc
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.representations import _resid_rows
from tdvarma.timefn import Constant, MatrixTimeFunction, Param


def covariance_recursion_v(model, theta0, n):
    """Independent oracle for pure VAR(1): propagate Cov(x_t) exactly and
    accumulate the information sum from first principles."""
    assert (model.p, model.q) == (1, 0)
    th = np.asarray(theta0, dtype=float)
    m, r = model.m, model.r
    v = np.zeros((m, m))
    cov_prev = np.zeros((r, r))  # Cov(x_0) = 0
    for t in range(1, n + 1):
        a_t = model.a_funcs[0].value(t, th)
        sig_t = model.sigma_t(t, th)
        sig_inv = np.linalg.inv(sig_t)
        da = [model.a_funcs[0].deriv(t, th, (i,)) for i in range(m)]
        dsig = [model._sigma_t_deriv_any(t, th, (i,)) for i in range(m)]
        for i in range(m):
            for j in range(i, m):
                val = np.trace(da[i].T @ sig_inv @ da[j] @ cov_prev)
                val += 0.5 * np.trace(sig_inv @ dsig[i] @ sig_inv @ dsig[j])
                v[i, j] += val
                if i != j:
                    v[j, i] += val
        cov_prev = a_t @ cov_prev @ a_t.T + sig_t
    return v / n


def ma_expansion_v(model, theta0, n_grid):
    """Independent oracle for any VARMA(p, q): {n: V(n)} from the MA expansion
    de_t = sum_k psi_tk eta_{t-k} of the residual derivatives, whose terms are
    uncorrelated across k, so E[de_ti de_tj'] = sum_k psi_tik Sigma_{t-k} psi_tjk'."""
    th = np.asarray(theta0, dtype=float)
    n_max = max(n_grid)
    sig = model.sigma_t_all(n_max, th)
    siginv = np.linalg.inv(sig)
    v = np.zeros((model.m, model.m))
    out = {}
    taus, rows = _resid_rows(model, th, th, n_max, 1, None)
    slots = [tau[0] for tau in taus[1:]]  # the slots the residuals use; V's first term is zero elsewhere
    for t, (_, stack) in enumerate(rows, 1):
        psi = stack[1:, 1:]  # psi[i, k-1] = psi_tik for k = 1..t-1
        lagged = sig[t - 2 :: -1][: t - 1]  # Sigma_{t-k} for k = 1..t-1
        v[np.ix_(slots, slots)] += np.einsum("ab,ikbc,kcd,jkad->ij", siginv[t - 1], psi, lagged, psi, optimize=True)
        if t in n_grid:
            out[t] = v.copy()
    # 0.5 tr(Sigma_t^{-1} dSigma_t/di Sigma_t^{-1} dSigma_t/dj) over the scale slots, per t
    scale = list(model.layout.scale_slots)
    rel = [siginv @ model._sigma_t_deriv_any(np.arange(1, n_max + 1), th, (i,)) for i in scale]
    per_t = 0.5 * np.array([[np.trace(a @ b, axis1=-2, axis2=-1) for b in rel] for a in rel])
    for n, vn in out.items():
        vn[np.ix_(scale, scale)] += per_t[..., :n].sum(axis=-1)
        vn /= n
    return out


def _assert_matches_ma_expansion(model, n_grid):
    th = np.array(model.layout.theta0)
    want = ma_expansion_v(model, th, n_grid)
    got = _information_pass(model, th, n_grid)  # a draw need not be identified at every n
    assert list(got) == list(n_grid)
    for n in n_grid:
        np.testing.assert_allclose(got[n].v, want[n], rtol=1e-12, atol=1e-12 * np.abs(want[n]).max())
    return want


@settings(max_examples=25, deadline=None)
@given(p=st.integers(0, 2), q=st.integers(0, 2), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_state_recursion_matches_ma_expansion_for_random_varma(p, q, r, seed):
    _assert_matches_ma_expansion(make_random_varma(np.random.default_rng(seed), p, q, r), (1, 2, 9, 30))


def test_rank_deficient_information_has_no_standard_errors():
    # the AR amplitudes and their shared factor are not separately identified, so
    # V(n) has a null eigenvalue that rounds to about +-1e-18
    model = make_random_varma(np.random.default_rng(1), 2, 0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = _information_pass(model, np.array(model.layout.theta0), (1, 2, 9, 30))
    for rep in reports.values():
        assert not rep.positive_definite and rep.se is None
        assert abs(rep.min_eigenvalue) < 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_state_recursion_matches_ma_expansion_for_varma22(seed):
    _assert_matches_ma_expansion(make_random_varma22(np.random.default_rng(seed)), (40, 3, 17))


def test_state_recursion_matches_ma_expansion_for_example2(example2):
    # the ExpSine scale makes Sigma_t vary, so each lag k sees its own Sigma_{t-k}
    want = _assert_matches_ma_expansion(example2, (25, 50, 100, 400))
    th = np.array(example2.layout.theta0)
    for n, v in want.items():
        got = theoretical_v(example2, th, n).v
        np.testing.assert_allclose(got, v, rtol=1e-12, atol=1e-12 * np.abs(v).max())


def test_information_rejects_horizons_below_one(example2):
    th = np.array(example2.layout.theta0)
    with pytest.raises(ContractError):
        theoretical_v(example2, th, 0)
    with pytest.raises(ContractError):
        check_information(example2, th, n_grid=())
    with pytest.raises(ContractError):
        check_information(example2, th, n_grid=(25, 0))


def test_information_reports_singular_residual_covariance():
    # g_t = diag(s, 1) is singular at s = 0, a value the layout's theta0 avoids
    layout = ParamLayout(names=("a", "s"), n_ar=1, n_ma=0, theta0=(0.5, 1.0))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Constant(0.3)]])
    g = MatrixTimeFunction([[Param(1), Constant(0.0)], [Constant(0.0), Constant(1.0)]])
    model = TdVarmaModel(2, [a], [], g, np.eye(2), layout)
    with pytest.raises(NumericalError):
        theoretical_v(model, np.array([0.5, 0.0]), 10)


def test_information_names_the_first_singular_time():
    model = make_scale_singular_at(3)
    theta = np.array([0.5, 1.0])
    with pytest.raises(SingularCovarianceError) as err:
        theoretical_v(model, theta, 10)
    assert err.value.t == 3
    res = check_information(model, theta, (2, 10))  # the audit records it as a failure
    assert res.verdict == "fail" and res.details["singular_t"] == 3
    assert theoretical_v(model, theta, 2).positive_definite


@pytest.mark.parametrize("which", ["example1_sim", "example1_theory", "example2"])
def test_information_matches_covariance_recursion_oracle(which):
    model = examples.build(which)
    th0 = np.array(model.layout.theta0)
    n = 50
    rep = theoretical_v(model, th0, n)
    oracle = covariance_recursion_v(model, th0, n)
    np.testing.assert_allclose(rep.v, oracle, rtol=1e-10, atol=1e-12)


def test_example1_generic_equals_closed_form(example1_theory):
    th0 = np.array(example1_theory.layout.theta0)
    for n in (25, 100):
        rep = theoretical_v(example1_theory, th0, n)
        closed = example1_v_closed(example1_theory, th0, n)
        assert np.max(np.abs(rep.v - closed.v)) < 1e-8 * max(1.0, np.abs(closed.v).max())
        np.testing.assert_allclose(rep.se, closed.se, rtol=1e-8)


def test_example1_information_offdiagonal_vanishes(example1_theory):
    th0 = np.array(example1_theory.layout.theta0)
    rep = theoretical_v(example1_theory, th0, 25)
    assert abs(rep.v[0, 1]) < 1e-10
    assert abs(rep.v[1, 0]) < 1e-10


def test_example2_generic_gblock_matches_trace_closed_form(example2):
    th0 = np.array(example2.layout.theta0)
    n = 50
    rep = theoretical_v(example2, th0, n)
    acc = np.zeros((2, 2))
    for t in range(1, n + 1):
        v33, v34, v44 = example2_trace_terms(th0, example2.sigma, examples.FREQ_C, t)
        acc += 0.5 * np.array([[v33, v34], [v34, v44]])
    np.testing.assert_allclose(rep.v[2:, 2:], acc / n, rtol=1e-8, atol=1e-12)


def test_example2_trace_terms_match_numeric_traces(example2):
    th0 = np.array(example2.layout.theta0)
    for t in (3, 11, 19, 25, 36):
        got = example2_trace_terms(th0, example2.sigma, examples.FREQ_C, t)
        sig, inv = example2._sigma_t_table(t, th0, [(), (2,), (3,)], inverse=True)
        sig_inv, d3, d4 = inv[()], sig[(2,)], sig[(3,)]
        expected = (
            float(np.trace(sig_inv @ d3 @ sig_inv @ d3)),
            float(np.trace(sig_inv @ d3 @ sig_inv @ d4)),
            float(np.trace(sig_inv @ d4 @ sig_inv @ d4)),
        )
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_example2_trace_terms_substitution_point():
    # s12 = 0, unit variances, zero rates, sine at 1: first trace equals 3/2
    got = example2_trace_terms(
        (0.0, 0.0, 0.0, 0.0), np.eye(2), math.pi / 2.0, 1, phase=0.0
    )
    assert got[0] == pytest.approx(1.5, rel=1e-12)
    assert got[2] == pytest.approx(1.5, rel=1e-12)


def test_example2_trace_terms_vanish_at_zero_sine(example2):
    th0 = np.array(example2.layout.theta0)
    got = example2_trace_terms(th0, example2.sigma, examples.FREQ_C, 25)
    np.testing.assert_allclose(got, (0.0, 0.0, 0.0), atol=1e-25)


def test_trace_terms_reject_singular_noise():
    with pytest.raises(ContractError):
        example2_trace_terms((0.8, -0.9, 1.0, -1.0), [[1.0, 1.0], [1.0, 1.0]], 0.3, 5)


def test_scaling_law_for_standard_errors(example2):
    th0 = np.array(example2.layout.theta0)
    se50 = theoretical_v(example2, th0, 50).se
    se200 = theoretical_v(example2, th0, 200).se
    np.testing.assert_allclose(se200, se50 / 2.0, rtol=0.10)


def test_zero_amplitude_information_still_positive():
    # the lag-1 identity term keeps the sine amplitudes identified even at
    # amplitude zero: V11 averages sin^2(a t) over the horizon
    model = examples.example1_theory_model(theta0=(0.0, 0.0), coupling=0.0)
    rep = theoretical_v(model, np.array([0.0, 0.0]), 25)
    expected = np.mean(np.sin(examples.FREQ_A * np.arange(2, 26)) ** 2) * 24 / 25
    assert rep.v[0, 0] == pytest.approx(expected, rel=1e-10)
    assert rep.positive_definite


def test_unidentified_model_flagged_non_pd():
    # two amplitudes attached to the same sine: only their sum is identified
    from tdvarma.model import ParamLayout, TdVarmaModel
    from tdvarma.timefn import Constant, MatrixTimeFunction, Sine, Sum

    layout = ParamLayout(names=("u", "v"), n_ar=2, n_ma=0, theta0=(0.4, 0.3))
    a = MatrixTimeFunction(
        [
            [Sum(Sine(0, 0.3), Sine(1, 0.3)), Constant(0.0)],
            [Constant(0.0), Constant(0.2)],
        ]
    )
    model = TdVarmaModel(2, [a], [], None, np.eye(2), layout)
    rep = theoretical_v(model, np.array([0.4, 0.3]), 40)
    assert not rep.positive_definite
    assert rep.se is None
    assert abs(rep.min_eigenvalue) < 1e-12


def test_information_positive_definite_examples():
    for which in ("example1_sim", "example1_theory", "example2"):
        model = examples.build(which)
        rep = theoretical_v(model, np.array(model.layout.theta0), 50)
        assert rep.positive_definite
        assert rep.min_eigenvalue > 0


@pytest.mark.parametrize("which", ["example1_theory", "example2"])
def test_theoretical_se_matches_monte_carlo_dispersion(which):
    """Third check of V, independent of any published number: across
    replications the QML estimates spread by sqrt(diag(V^{-1})/n).  The sample
    standard deviation of R draws has a relative Monte Carlo standard error of
    about 1/sqrt(2(R-1)); allow four of them (about 16% at R = 300)."""
    model = examples.build(which)
    th0 = model.layout.theta0
    n, reps = 400, 300
    plan = McPlan(
        model=model,
        theta0=th0,
        n_list=(n,),
        replications=reps,
        seed=2024,
        theta_init=tuple(v + 0.1 for v in th0),
        estimate_sigma=False,
    )
    summary = run_mc(plan, threads=min(2, os.cpu_count() or 1))
    cell = summary.cell(n)
    assert not summary.flagged
    se = theoretical_v(model, np.array(th0), n).se
    tol = 4.0 / math.sqrt(2.0 * (cell.n_converged - 1))
    np.testing.assert_array_less(np.abs(cell.std_estimate / se - 1.0), tol)
