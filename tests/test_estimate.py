import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import make_sin_varma11

from tdvarma import estimate, examples, likelihood
from tdvarma.errors import ContractError, NumericalError
from tdvarma.estimate import _descent, _safe_objective, estimate_noise_cov, fit, wald_test
from tdvarma.model import ParamLayout, Series, TdVarmaModel
from tdvarma.simulate import SimPlan, replication_stream, simulate
from tdvarma.timefn import Constant, MatrixTimeFunction, Param, Sine


def test_white_noise_scale_closed_form(rng):
    # A = 0, g = s I, Sigma = I: the minimizer is the per-component second moment
    layout = ParamLayout(names=("s",), n_ar=0, n_ma=0, theta0=(1.0,))
    g = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [], [], g, np.eye(2), layout)
    x = rng.standard_normal((400, 2)) * 1.4
    res = fit(m, Series(values=x), (1.0,))
    closed = math.sqrt(float(np.sum(x * x)) / (2 * 400))
    assert res.converged
    assert float(res.theta[0]) == pytest.approx(closed, rel=1e-6)


def test_fit_recovers_truth_at_n400():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 400, 99))
    res = fit(m, series, (0.1, 0.1, 0.1), estimate_sigma=True)
    assert res.converged
    # within sampling error (about 3 asymptotic standard errors)
    np.testing.assert_allclose(res.theta, [0.8, 0.5, -0.9], atol=0.15)
    assert res.sigma_hat is not None
    np.testing.assert_allclose(res.sigma_hat, np.eye(2), atol=0.2)
    assert res.covariance_ok and np.all(res.se > 0)


def test_monotone_descent():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    res = fit(m, series, (0.1, 0.1, 0.1))
    hist = np.array(res.q_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_permutation_invariance():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 150, 17))
    res = fit(m, series, (0.1, 0.1, 0.1))

    perm_layout = ParamLayout(
        names=("a22_amp", "a11_amp", "a12"), n_ar=3, n_ma=0, theta0=(-0.9, 0.8, 0.5)
    )
    a = MatrixTimeFunction(
        [
            [Sine(1, examples.FREQ_A), Param(2)],
            [Constant(0.0), Sine(0, examples.FREQ_B)],
        ]
    )
    m2 = TdVarmaModel(2, [a], [], None, np.eye(2), perm_layout)
    res2 = fit(m2, series, (0.1, 0.1, 0.1))
    np.testing.assert_allclose(
        res.theta, np.array([res2.theta[1], res2.theta[2], res2.theta[0]]), atol=1e-8
    )


def test_consistency_improves_with_n():
    m = examples.example1_sim_model()
    th0 = np.array(m.layout.theta0)
    medians = {}
    for n in (25, 100, 400):
        errs = []
        for rep in range(200):
            series = simulate(SimPlan(m, m.layout.theta0, n, 1000, replication_stream(n, rep)))
            res = fit(m, series, (0.1, 0.1, 0.1))
            errs.append(float(np.linalg.norm(res.theta - th0)))
        medians[n] = float(np.median(errs))
    assert medians[400] < medians[100] < medians[25]


def test_nonconvergence_returns_result(monkeypatch):
    # example2's exp-sine scale block keeps the objective non-quadratic, so one
    # iteration cannot reach the minimum
    m = examples.example2_model()
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    start = tuple(v + 0.1 for v in m.layout.theta0)
    monkeypatch.setattr(estimate, "MAX_ITERS", 1)
    res = fit(m, series, start)
    assert not res.converged
    assert res.termination == "max_iters"
    assert np.all(np.isfinite(res.theta))


def test_bounds_projection_respected():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    layout = dataclasses.replace(m.layout, bounds=((0.0, 0.75), None, (-0.75, 0.0)))
    bounded = TdVarmaModel(m.r, m.a_funcs, m.b_funcs, m.g_func, m.sigma, layout)
    res = fit(bounded, series, (0.1, 0.1, 0.1))
    assert 0.0 <= res.theta[0] <= 0.75
    assert -0.75 <= res.theta[2] <= 0.0
    # the unbounded estimate lies above the first upper bound, so that bound binds
    assert fit(m, series, (0.1, 0.1, 0.1)).theta[0] > 0.75 == res.theta[0]


def test_too_short_series_rejected():
    m = examples.example1_sim_model()
    with pytest.raises(ContractError):
        fit(m, Series(values=np.ones((2, 2))), (0.1, 0.1, 0.1))


def test_singular_noise_covariance_estimate_is_a_numerical_failure():
    # a second component that is identically zero leaves sigma_hat singular at the
    # start point; that is a breakdown of the fit on these data, not a malformed
    # configuration, and the evaluation itself raises it
    m = examples.example1_sim_model()
    x = simulate(SimPlan(m, m.layout.theta0, 60, 3)).values.copy()
    x[:, 1] = 0.0
    with pytest.raises(NumericalError, match="not positive definite") as info:
        fit(m, Series(values=x), (0.1, 0.1, 0.1), estimate_sigma=True)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("theta_init", [(0.1, 0.1), (0.1,) * 4])
def test_wrong_length_start_rejected(theta_init):
    m = examples.example1_sim_model()
    with pytest.raises(ContractError, match="theta_init"):
        fit(m, simulate(SimPlan(m, m.layout.theta0, 30, 1)), theta_init)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("b, finite", [(3.0, False), (1e3, False), (1e-200, True)])
def test_exploding_moving_average_reads_as_inf(b, finite):
    # pure MA(1) with B = b I: the residuals grow like b^t and overflow for b > 1
    layout = ParamLayout(names=("b",), n_ar=0, n_ma=1, theta0=(0.0,))
    ma = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [], [ma], None, np.eye(2), layout)
    series = Series(values=np.random.default_rng(8).standard_normal((2000, 2)))
    theta = np.array([b])
    if finite:
        assert math.isfinite(_safe_objective(m, series, theta).q)
        assert math.isfinite(likelihood.objective(m, series, theta).q)
    else:
        assert _safe_objective(m, series, theta) is None
        with pytest.raises(NumericalError):
            likelihood.objective(m, series, theta)


def test_noise_cov_moment_estimator_matches_direct(rng):
    m = examples.example2_model()
    th0 = np.array(m.layout.theta0)
    series = simulate(SimPlan(m, m.layout.theta0, 300, 8))
    est = estimate_noise_cov(m, series, th0)
    # direct computation from definitions
    from tdvarma.likelihood import residuals

    res = residuals(m, series, th0)
    acc = np.zeros((2, 2))
    for t in range(1, 301):
        gi = np.linalg.inv(m.g_func.value(t, th0))
        z = gi @ res.e[t - 1]
        acc += np.outer(z, z)
    np.testing.assert_allclose(est, acc / 300, atol=1e-12)
    np.testing.assert_allclose(est, m.sigma, atol=0.25)


def test_wald_trivials():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 200, 3))
    res = fit(m, series, (0.1, 0.1, 0.1))
    t0 = wald_test(res, 0, float(res.theta[0]))
    assert t0.statistic == 0.0 and not t0.reject_5pct
    t3 = wald_test(res, 0, float(res.theta[0] - 3.0 * res.se[0]))
    assert t3.statistic == pytest.approx(3.0) and t3.reject_5pct
    t196 = wald_test(res, 0, float(res.theta[0] - 1.9 * res.se[0]))
    assert not t196.reject_5pct


def test_first_step_is_the_gls_solution():
    # q = 0 and no scale slots: e_t = y_t - Z_t theta is affine in theta, so with
    # Sigma fixed the QML estimate is (Z' Sigma^-1 Z)^-1 Z' Sigma^-1 y
    m = examples.example1_sim_model()
    assert len(m.layout.scale_slots) == 0
    n = 100
    series = simulate(SimPlan(m, m.layout.theta0, n, 5))
    x = series.values
    a = m.a_funcs[0]
    basis = np.eye(m.m)
    sig_inv = np.linalg.inv(m.sigma_t_all(n, np.zeros(m.m)))
    gram = np.zeros((m.m, m.m))
    rhs = np.zeros(m.m)
    for t in range(2, n + 1):
        a0 = a.value(t, np.zeros(m.m))
        z = np.column_stack([(a.value(t, basis[i]) - a0) @ x[t - 2] for i in range(m.m)])
        y = x[t - 1] - a0 @ x[t - 2]
        gram += z.T @ sig_inv[t - 1] @ z
        rhs += z.T @ sig_inv[t - 1] @ y
    gls = np.linalg.solve(gram, rhs)
    res = fit(m, series, (0.1, 0.1, 0.1))
    assert res.converged and res.n_evals == 2  # the start point and one trial
    np.testing.assert_allclose(res.theta, gls, atol=1e-8)


@pytest.mark.parametrize("name", ["example1_sim", "example2"])
def test_objective_info_matches_reference_and_vhat(name, request):
    m = request.getfixturevalue(name)
    n = 120
    series = simulate(SimPlan(m, m.layout.theta0, n, 11))
    theta = np.array(m.layout.theta0) + 0.05
    info = likelihood.objective(m, series, theta).info
    vhat = likelihood.empirical_vw(m, series, theta)[0]
    np.testing.assert_allclose(info / n, vhat, rtol=0, atol=1e-13)

    # per-t reference from central differences of e_t and Sigma_t
    h = 1e-6
    de, dsig = [], []
    for i in range(m.m):
        step = h * np.eye(m.m)[i]
        up = likelihood.residuals(m, series, theta + step)
        dn = likelihood.residuals(m, series, theta - step)
        de.append((up.e - dn.e) / (2 * h))
        dsig.append((m.sigma_t_all(n, theta + step) - m.sigma_t_all(n, theta - step)) / (2 * h))
    siginv = np.linalg.inv(m.sigma_t_all(n, theta))
    ref = np.zeros((m.m, m.m))
    for t in range(n):
        for i in range(m.m):
            for j in range(m.m):
                ref[i, j] += de[i][t] @ siginv[t] @ de[j][t] + 0.5 * np.trace(
                    siginv[t] @ dsig[i][t] @ siginv[t] @ dsig[j][t]
                )
    np.testing.assert_allclose(info, ref, rtol=1e-6, atol=1e-6 * np.max(np.abs(ref)))


def test_singular_info_falls_back_to_identity(rng):
    # slot 1 is referenced by no coefficient, so its row of the information is zero;
    # neither the Hessian model nor the information gives a direction, and the step
    # is the identity's, -g
    layout = ParamLayout(names=("a", "unused"), n_ar=2, n_ma=0, theta0=(0.4, 0.0))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [a], [], None, np.eye(2), layout)
    series = Series(values=rng.standard_normal((200, 2)))
    rep = likelihood.objective(m, series, np.array([0.1, 0.3]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(rep.info)
    np.testing.assert_array_equal(_descent((rep.info, rep.info), rep.grad), -rep.grad)
    res = fit(m, series, (0.1, 0.3))
    assert res.converged
    assert float(res.theta[1]) == 0.3


def test_descent_falls_back_from_the_model_to_the_information():
    g = np.array([1.0, -2.0])
    info = np.diag([2.0, 4.0])
    np.testing.assert_array_equal(_descent((np.eye(2), info), g), -g)        # the model's direction
    np.testing.assert_array_equal(_descent((-np.eye(2), info), g), [-0.5, 0.5])  # not descent: info's
    np.testing.assert_array_equal(_descent((-np.eye(2), -info), g), -g)      # neither: -g


def test_n_evals_counts_every_evaluation(monkeypatch):
    calls = {"n": 0}
    for name in ("objective", "objective_value"):
        original = getattr(likelihood, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(likelihood, name, counted)
    m = examples.example2_model()
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    start = tuple(v + 0.1 for v in m.layout.theta0)
    res = fit(m, series, start, estimate_sigma=True)
    assert res.converged and res.termination == "gradient"
    assert res.n_evals == calls["n"] >= res.iters
    assert "rounds" not in res.metadata


@pytest.mark.parametrize("which", ["example1_sim", "example2"])
@pytest.mark.parametrize("estimate_sigma", [False, True], ids=["sigma_fixed", "sigma_estimated"])
def test_fit_reuses_the_last_evaluation(monkeypatch, which, estimate_sigma):
    # residuals runs once per evaluation, and V_hat, W_hat and sigma_hat come from the last one
    calls = {"n": 0}
    original = likelihood.residuals

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(likelihood, "residuals", counted)
    m = examples.build(which)
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    start = tuple(v + 0.1 for v in m.layout.theta0)
    res = fit(m, series, start, estimate_sigma=estimate_sigma)
    assert calls["n"] == res.n_evals
    last = likelihood.objective(m, series, res.theta, estimate_sigma)
    vhat, what = likelihood.report_vw(last)
    np.testing.assert_array_equal(res.vhat, vhat)
    np.testing.assert_array_equal(res.what, what)
    if estimate_sigma:
        np.testing.assert_array_equal(res.sigma_hat, last.sigma_hat)
        np.testing.assert_allclose(res.sigma_hat, estimate_noise_cov(m, series, res.theta), rtol=1e-12)
        # the same matrices from the fixed-sigma objective at sigma_hat
        at_sigma_hat = likelihood.empirical_vw(m.with_sigma(res.sigma_hat), series, res.theta)
        for got, want in zip((res.vhat, res.what), at_sigma_hat):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))
    else:
        assert res.sigma_hat is None


@pytest.mark.parametrize(
    "which, estimate_sigma",
    [("example1_sim", True), ("example2", False), ("varma11", False)],
)
def test_each_point_is_evaluated_once(monkeypatch, which, estimate_sigma):
    # the line search tests Armijo on the full evaluation of its trial, and an
    # accepted trial's report is the next iterate's: no point is evaluated twice
    thetas, objective = [], likelihood.objective

    def recorded(model, series, theta, estimate_sigma=False):
        thetas.append(np.array(theta, dtype=float).tobytes())
        return objective(model, series, theta, estimate_sigma)

    monkeypatch.setattr(likelihood, "objective", recorded)
    monkeypatch.setattr(likelihood, "objective_value", lambda *a, **k: pytest.fail("objective_value called"))
    m = make_sin_varma11(np.random.default_rng(909)) if which == "varma11" else examples.build(which)
    start = (0.1,) * m.m if which == "example1_sim" else tuple(v + 0.1 for v in m.layout.theta0)
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    res = fit(m, series, start, estimate_sigma=estimate_sigma)
    assert res.n_evals == len(thetas) == len(set(thetas))


def test_a_raising_trial_point_backtracks(monkeypatch):
    # the first trial point raises; the search halves its step instead of aborting the fit
    m = examples.example2_model()
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    start = tuple(v + 0.1 for v in m.layout.theta0)
    clean = fit(m, series, start)
    objective, calls = likelihood.objective, []

    def first_trial_raises(model, series, theta, estimate_sigma=False):
        calls.append(np.array(theta, dtype=float))
        if len(calls) == 2:
            raise NumericalError("a bad trial point")
        return objective(model, series, theta, estimate_sigma)

    monkeypatch.setattr(likelihood, "objective", first_trial_raises)
    res = fit(m, series, start)
    start, first_trial, second_trial = calls[:3]
    np.testing.assert_allclose(second_trial - start, 0.5 * (first_trial - start), rtol=1e-12, atol=1e-15)
    assert res.converged and res.termination == "gradient"
    np.testing.assert_allclose(res.theta, clean.theta, rtol=0, atol=1e-5)


def test_a_singular_noise_covariance_trial_backtracks(monkeypatch):
    # the first trial's residuals lose their second component, so its sigma_hat is
    # singular: the evaluation raises and the search halves its step
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 100, 5))
    clean = fit(m, series, (0.1, 0.1, 0.1), estimate_sigma=True)
    noise_cov, objective, thetas = likelihood.noise_cov, likelihood.objective, []

    def first_trial_singular(model, u):
        return noise_cov(model, u * np.array([1.0, 0.0]) if len(thetas) == 2 else u)

    def recorded(model, series, theta, estimate_sigma=False):
        thetas.append(np.array(theta, dtype=float))
        return objective(model, series, theta, estimate_sigma)

    monkeypatch.setattr(likelihood, "noise_cov", first_trial_singular)
    monkeypatch.setattr(likelihood, "objective", recorded)
    res = fit(m, series, (0.1, 0.1, 0.1), estimate_sigma=True)
    start, first_trial, second_trial = thetas[:3]
    np.testing.assert_allclose(second_trial - start, 0.5 * (first_trial - start), rtol=1e-12, atol=1e-15)
    assert res.converged and res.termination == "gradient"
    np.testing.assert_allclose(res.theta, clean.theta, rtol=0, atol=1e-5)
    thetas[:] = [start, start]  # the evaluation itself raises at the trial
    with pytest.raises(NumericalError, match="not positive definite"):
        objective(m, series, first_trial, True)


@pytest.mark.parametrize("n", [25, 100])
def test_profile_fit_is_the_fixed_point_of_the_alternation(monkeypatch, n):
    # the joint minimizer over theta and Sigma is the fixed point of fixed-Sigma fits
    # alternated with Sigma_hat(theta); the oracle runs that alternation to it, on the
    # table-1 design
    monkeypatch.setattr(estimate, "GRAD_TOL", 1e-11)
    m = examples.example1_sim_model()
    start = examples.paper_run("example1_sim").theta_init
    for rep in range(5):
        series = simulate(SimPlan(m, m.layout.theta0, n, 1234567, replication_stream(n, rep)))
        theta, work = np.array(start), m
        for _ in range(200):
            new = fit(work, series, theta).theta
            work = m.with_sigma(estimate_noise_cov(m, series, new))
            moved, theta = np.max(np.abs(new - theta)), new
            if moved <= 1e-13:
                break
        else:
            pytest.fail(f"the alternation did not settle (replication {rep})")
        res = fit(m, series, start, estimate_sigma=True)
        assert res.converged
        np.testing.assert_allclose(res.theta, theta, rtol=0, atol=1e-8)
        np.testing.assert_allclose(res.sigma_hat, work.sigma, rtol=0, atol=1e-8)


def test_rejected_trial_points_do_not_warn():
    # example2 from 0.1 meets trial points where g_t overflows; they are rejected
    # without numpy warnings, and the results are those of an unfiltered run
    m = examples.example2_model()
    series = [simulate(SimPlan(m, m.layout.theta0, 25, 7, replication_stream(25, rep))) for rep in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        strict = [fit(m, x, (0.1,) * m.m) for x in series]
    for x, got in zip(series, strict):
        want = fit(m, x, (0.1,) * m.m)
        np.testing.assert_array_equal(got.theta, want.theta)
        assert (got.n_evals, got.termination) == (want.n_evals, want.termination)


def test_information_only_standard_errors():
    m = examples.example2_model()
    n = 150
    series = simulate(SimPlan(m, m.layout.theta0, n, 8))
    res = fit(m, series, m.layout.theta0)
    assert res.covariance_ok
    expected = np.sqrt(np.diag(np.linalg.inv(res.vhat)) / n)
    np.testing.assert_allclose(res.se_info, expected, rtol=1e-14, atol=0)
    # V_hat and W_hat agree to sampling error at the truth, so do the two kinds of errors
    np.testing.assert_allclose(res.se_info, res.se, rtol=0.5)


def test_information_only_errors_absent_without_vhat(rng):
    layout = ParamLayout(names=("a", "unused"), n_ar=2, n_ma=0, theta0=(0.4, 0.0))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [a], [], None, np.eye(2), layout)
    res = fit(m, Series(values=rng.standard_normal((200, 2))), (0.1, 0.3))
    assert res.vhat is None and res.se_info is None and res.se is None
