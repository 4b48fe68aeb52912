import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_heads_match_entrywise,
    dense_residual_operator,
    lag_solve_loop,
    make_random_varma,
    make_random_varma22,
    make_scalar_arma11,
    make_sin_varma11,
)
from tdvarma import examples, likelihood
from tdvarma.errors import ContractError, SingularCovarianceError
from tdvarma.estimate import _safe_objective, estimate_noise_cov
from tdvarma.likelihood import (
    _lag_solver,
    _lag_sum,
    _lagged,
    empirical_vw,
    objective,
    objective_value,
    residuals,
)
from tdvarma.model import ParamLayout, Series, TdVarmaModel
from tdvarma.representations import build_psi
from tdvarma.simulate import SimPlan, make_rng, simulate
from tdvarma.timefn import (
    Constant,
    ExpSine,
    MatrixTimeFunction,
    Param,
    Product,
    Sine,
    Sum,
    index_splits,
    sorted_tuples,
)


def test_zero_model_residuals_equal_series(rng):
    layout = ParamLayout(names=("g",), n_ar=0, n_ma=0, theta0=(1.0,))
    g = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [], [], g, np.eye(2), layout)
    x = rng.standard_normal((20, 2))
    res = residuals(m, Series(values=x), np.array([1.0]))
    np.testing.assert_array_equal(res.e, x)


def test_one_step_hand_computation():
    m = examples.example1_sim_model()
    # A_2(theta) = diag(0.5, 0.5) by direct construction of theta
    th = np.array([0.5 / math.sin(examples.FREQ_A * 2), 0.0, 0.5 / math.sin(examples.FREQ_B * 2)])
    x = np.array([[1.0, 0.0], [1.0, 1.0]])
    res = residuals(m, Series(values=x), th)
    np.testing.assert_array_equal(res.e[0], x[0])
    np.testing.assert_allclose(res.e[1], [0.5, 1.0], atol=1e-14)


def test_objective_single_observation_value():
    layout = ParamLayout(names=("a",), n_ar=1, n_ma=0, theta0=(0.0,))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Constant(0.0)]])
    m = TdVarmaModel(2, [a], [], None, np.eye(2), layout)
    rep = objective(m, Series(values=np.array([[1.0, 1.0]])), np.array([0.0]))
    assert rep.alphas[0] == pytest.approx(2.0, abs=1e-14)
    assert rep.q == pytest.approx(1.0 + math.log(2.0 * math.pi), abs=1e-12)
    assert rep.q == pytest.approx(0.5 * rep.alphas.sum() + 2 * 1 / 2 * math.log(2 * math.pi))


def _worst_fd_error(m, series, th):
    """Largest |grad_i - central difference_i| / max(1, |central difference_i|)."""
    grad = objective(m, series, th).grad
    worst = 0.0
    for i in range(th.size):
        h = 1e-6 * (1.0 + abs(th[i]))
        tp = th.copy()
        tm = th.copy()
        tp[i] += h
        tm[i] -= h
        fd = (objective_value(m, series, tp) - objective_value(m, series, tm)) / (2 * h)
        worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
    return worst


@pytest.mark.parametrize("which", ["example1_sim", "example1_theory", "example2"])
def test_gradient_matches_finite_differences(which):
    m = examples.build(which)
    th0 = np.array(m.layout.theta0)
    series = simulate(SimPlan(m, m.layout.theta0, 50, 2024))
    rng = np.random.default_rng(5)
    worst = max(_worst_fd_error(m, series, th0 + rng.uniform(-0.05, 0.05, size=th0.size)) for _ in range(20))
    assert worst < 1e-6


def _profile_value(m, series, th):
    """Q(theta, Sigma_hat(theta)) through the fixed-Sigma objective of a model that holds Sigma_hat."""
    at_hat = TdVarmaModel(m.r, m.a_funcs, m.b_funcs, m.g_func, estimate_noise_cov(m, series, th), m.layout)
    return objective_value(at_hat, series, th)


@pytest.mark.parametrize("which", ["example1_sim", "example2"])
def test_profile_gradient_matches_finite_differences(which):
    # example2's scale slots exercise the re-whitened S_t; its model Sigma is not
    # Sigma_hat, so the re-whitening is not the identity
    m = examples.build(which)
    series = simulate(SimPlan(m, m.layout.theta0, 50, 2024))
    rng = np.random.default_rng(6)
    for _ in range(5):
        th = np.array(m.layout.theta0) + rng.uniform(-0.05, 0.05, size=m.m)
        rep = objective(m, series, th, estimate_sigma=True)
        assert rep.q == pytest.approx(_profile_value(m, series, th), rel=1e-12)
        np.testing.assert_allclose(rep.sigma_hat, estimate_noise_cov(m, series, th), rtol=1e-12)
        for i in range(m.m):
            h = 1e-6 * (1.0 + abs(th[i]))
            step = h * np.eye(m.m)[i]
            fd = (_profile_value(m, series, th + step) - _profile_value(m, series, th - step)) / (2 * h)
            assert abs(rep.grad[i] - fd) / max(1.0, abs(fd)) < 1e-6


def test_gradient_matches_fd_with_moving_average_part(rng):
    m = make_sin_varma11(rng)
    th0 = np.array(m.layout.theta0)
    series = simulate(SimPlan(m, m.layout.theta0, 60, 77))
    rep = objective(m, series, th0)
    for i in range(m.m):
        h = 1e-6
        tp = th0.copy()
        tm = th0.copy()
        tp[i] += h
        tm[i] -= h
        fd = (objective_value(m, series, tp) - objective_value(m, series, tm)) / (2 * h)
        assert rep.grad[i] == pytest.approx(fd, rel=2e-6, abs=1e-6)


def test_gradient_matches_fd_with_an_exponent_in_the_ar_part():
    # ExpSine factors in AR entries put exponent terms in the series' AR products,
    # which are evaluated entry by entry and summed; the score reaches them through
    # residuals, over two lags
    layout = ParamLayout(names=("a", "b", "c"), n_ar=3, n_ma=0, theta0=(0.4, 0.3, 0.5))
    a1 = MatrixTimeFunction([[Product(Sine(0, 0.7), ExpSine(1, 0.3)), Constant(0.1)],
                             [Constant(0.0), Sine(2, 0.4, 1.0)]])
    a2 = MatrixTimeFunction([[Constant(0.0), Sum(Param(2), ExpSine(0, 0.9, 1.0))],
                             [Constant(0.0), Constant(0.0)]])
    m = TdVarmaModel(2, [a1, a2], [], None, np.eye(2), layout)
    assert [prod.entry is not None for prod in m.ar_products(np.ones((5, 2)))] == [True, True]
    series = simulate(SimPlan(m, m.layout.theta0, 60, 41))
    x, rng = series.values, np.random.default_rng(8)
    for _ in range(5):
        th = np.array(m.layout.theta0) + rng.uniform(-0.05, 0.05, 3)
        # without an MA part e = x - A_op x, here from the coefficient matrices
        want = x - _lag_sum(m.a_values(range(1, 61), th), x)
        assert np.max(np.abs(residuals(m, series, th).e - want)) <= 1e-13 * np.max(np.abs(want))
        assert _worst_fd_error(m, series, th) < 1e-6


@settings(max_examples=25, deadline=None)
@given(p=st.integers(0, 2), q=st.integers(0, 2), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_score_matches_fd_for_random_varma(p, q, r, seed):
    rng = np.random.default_rng(seed)
    m = make_random_varma(rng, p, q, r)
    th0 = np.array(m.layout.theta0)
    series = simulate(SimPlan(m, m.layout.theta0, 40, seed))
    assert _worst_fd_error(m, series, th0 + rng.uniform(-0.05, 0.05, size=th0.size)) < 2e-6


def test_residuals_and_simulation_match_dense_operator():
    # e = M(theta) x and de_i = d_i M(theta) x with M = (I + B_op)^{-1} (I - A_op);
    # the simulated series is x = M(theta0)^{-1} g eps
    rng = np.random.default_rng(2718)
    m = make_random_varma22(rng)
    n = 14
    th0 = np.array(m.layout.theta0)
    th = th0 + rng.uniform(-0.1, 0.1, size=th0.size)
    series = simulate(SimPlan(m, m.layout.theta0, n, 11))
    eps = make_rng(11, 0).standard_normal((n, m.r)) @ m.sigma_chol.T
    x = series.values.ravel()
    scaled = np.einsum("trs,ts->tr", m.g_values(np.arange(1, n + 1), th0), eps).ravel()
    np.testing.assert_allclose(x, np.linalg.solve(dense_residual_operator(m, th0, n)[()], scaled), atol=1e-12)
    res = residuals(m, series, th)
    ops = dense_residual_operator(m, th, n, [()] + [(i,) for i in range(m.m)])
    np.testing.assert_allclose(res.e.ravel(), ops[()] @ x, atol=1e-12)
    np.testing.assert_allclose(res.de.reshape(m.m, -1), np.stack([ops[(i,)] @ x for i in range(m.m)]), atol=1e-12)


def test_average_alpha_approaches_population_value():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 10000, 7))
    rep = objective(m, series, np.array(m.layout.theta0))
    # identity residual covariance: log det = 0 and E[e' e] = 2
    assert rep.alphas.mean() == pytest.approx(2.0, abs=0.1)


def test_cross_representation_residual_derivatives_arma(rng):
    # the forward-solved derivatives of a VARMA(1,1) equal the MA expansion
    m = make_sin_varma11(rng)
    th0 = np.array(m.layout.theta0)
    n = 60
    series = simulate(SimPlan(m, m.layout.theta0, n, 3))
    eps = make_rng(3, 0).standard_normal((n, m.r)) @ m.sigma_chol.T
    res = residuals(m, series, th0)
    psi = build_psi(m, th0, th0, n, max_deriv_order=1)
    g_all = m.g_values(np.arange(1, n + 1), th0)
    scaled = np.einsum("trs,ts->tr", g_all, eps)
    worst = 0.0
    for i in range(m.m):
        for t in range(1, n + 1):
            acc = np.zeros(m.r)
            for k in range(1, t):
                acc += psi.deriv_weight(t, k, (i,)) @ scaled[t - 1 - k]
            worst = max(worst, float(np.abs(acc - res.de[i, t - 1]).max()))
    assert worst < 1e-9


def test_vhat_offdiagonal_vanishes_for_decoupled_model():
    m = examples.example1_theory_model()
    series = simulate(SimPlan(m, m.layout.theta0, 10000, 11))
    v, w = empirical_vw(m, series, np.array(m.layout.theta0))
    assert abs(v[0, 1]) < 0.05 * math.sqrt(v[0, 0] * v[1, 1])


def test_vhat_closed_form_scale_only_model():
    # A = 0, g = s I, Sigma = I: V = 0.5 tr((Sigma^-1 dSigma)^2) = 2 r / s^2
    layout = ParamLayout(names=("s",), n_ar=0, n_ma=0, theta0=(1.3,))
    g = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [], [], g, np.eye(2), layout)
    series = Series(values=np.full((25, 2), 0.7))
    v, _ = empirical_vw(m, series, np.array([1.3]))
    assert v[0, 0] == pytest.approx(0.5 * 2 * (2.0 / 1.3) ** 2, rel=1e-12)


def test_what_approx_vhat_at_truth_large_n():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 10000, 13))
    v, w = empirical_vw(m, series, np.array(m.layout.theta0))
    scale = np.sqrt(np.outer(np.diag(v), np.diag(v)))
    assert np.max(np.abs(w - v) / scale) < 0.10


def test_score_rows_behave_like_martingale_differences():
    m = examples.example1_sim_model()
    th0 = np.array(m.layout.theta0)
    n = 200
    hits = 0
    for rep_i in range(200):
        series = simulate(SimPlan(m, m.layout.theta0, n, 100, rep_i))
        rep = objective(m, series, th0)
        rows = rep.score_rows
        mean = rows.mean(axis=0)
        std = rows.std(axis=0, ddof=1)
        if np.all(np.abs(mean) < 5.0 * std / math.sqrt(n)):
            hits += 1
    assert hits >= 190  # 95% of 200


def test_objective_invariant_under_parameter_relabeling():
    # permuting names/slots is pure bookkeeping
    m = examples.example1_sim_model()
    th = np.array([0.7, 0.4, -0.8])
    series = simulate(SimPlan(m, m.layout.theta0, 80, 21))
    q1 = objective_value(m, series, th)

    perm_layout = ParamLayout(names=("a22_amp", "a11_amp", "a12"), n_ar=3, n_ma=0,
                              theta0=(-0.9, 0.8, 0.5))
    a = MatrixTimeFunction(
        [
            [Sine(1, examples.FREQ_A), Param(2)],
            [Constant(0.0), Sine(0, examples.FREQ_B)],
        ]
    )
    m2 = TdVarmaModel(2, [a], [], None, np.eye(2), perm_layout)
    q2 = objective_value(m2, series, np.array([th[2], th[0], th[1]]))
    assert q1 == pytest.approx(q2, abs=1e-12)


def test_singular_covariance_names_time_index():
    layout = ParamLayout(names=("a", "g"), n_ar=1, n_ma=0)
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Constant(0.0)]])
    # scale vanishes in channel 2 for every t: Sigma_t singular from t = 1
    g = MatrixTimeFunction([[Param(1), Constant(0.0)], [Constant(0.0), Constant(0.0)]])
    m = TdVarmaModel(2, [a], [], g, np.eye(2), layout)
    with pytest.raises(SingularCovarianceError) as err:
        residuals(m, Series(values=np.ones((5, 2))), np.array([0.2, 1.0]))
    assert err.value.t == 1


def test_non_finite_covariance_names_first_time_index():
    # g_t overflows at eta11 = 800, so Sigma_t is inf or NaN from some t on; numpy's
    # batched Cholesky passes such matrices through without raising
    m = examples.build("example2")
    theta = np.array([0.8, -0.9, 800.0, -1.0])
    series = simulate(SimPlan(m, m.layout.theta0, 50, 1))
    with np.errstate(all="ignore"):
        finite = np.isfinite(m.sigma_t_all(50, theta)).all(axis=(1, 2))
        assert finite[0] and not finite.all()
        for call in (residuals, objective_value, objective):
            with pytest.raises(SingularCovarianceError) as err:
                call(m, series, theta)
            assert err.value.t == 1 + int(np.argmin(finite)) and err.value.theta == tuple(theta)
        assert _safe_objective(m, series, theta) is None  # a rejected line-search trial


@pytest.mark.parametrize("which", ["example1_sim", "example2", "random_varma"])
def test_residuals_carry_the_inverse_and_log_determinant(which):
    # H_t inverts F_t = g_t L, H_t' H_t = Sigma_t^{-1}, and S_t + S_t' = H_t dSigma_t H_t'
    rng = np.random.default_rng(23)
    m = make_random_varma(rng, 1, 1, 3) if which == "random_varma" else examples.build(which)
    theta = np.array(m.layout.theta0) + 0.05
    n = 40
    ts = np.arange(1, n + 1)
    res = residuals(m, simulate(SimPlan(m, m.layout.theta0, n, 5)), theta)
    g = m.g_values(ts, theta)
    eye = np.broadcast_to(np.eye(m.r), g.shape)
    _assert_rel(res.h @ g @ m.sigma_chol, eye, rtol=1e-13)
    inv = m._sigma_t_table(ts, theta, [()], inverse=True)[1][()]
    _assert_rel(np.swapaxes(res.h, -1, -2) @ res.h, inv, rtol=1e-13)
    _assert_rel(res.logdet, np.linalg.slogdet(m.sigma_t_all(n, theta))[1], rtol=1e-13)
    assert res.s.shape == (len(m.layout.scale_slots), n, m.r, m.r)
    for s, slot in zip(res.s, m.layout.scale_slots):
        want = res.h @ m._sigma_t_deriv_any(ts, theta, (slot,)) @ np.swapaxes(res.h, -1, -2)
        _assert_rel(s + np.swapaxes(s, -1, -2), want, rtol=1e-13)


def test_dimension_mismatch_rejected():
    m = examples.example1_sim_model()
    with pytest.raises(ContractError):
        residuals(m, Series(values=np.ones((5, 1))), np.array(m.layout.theta0))


def _all_matrices(model):
    return [*model.a_funcs, *model.b_funcs, model.g_func]


@pytest.mark.parametrize("which", ["example1_sim", "example1_theory", "example2", "varma11", "varma22"])
def test_coefficient_tables_match_entrywise_path(which):
    makers = {
        "varma11": lambda: make_sin_varma11(np.random.default_rng(909)),
        "varma22": lambda: make_random_varma22(np.random.default_rng(3)),
    }
    m = makers[which]() if which in makers else examples.build(which)
    th0 = np.array(m.layout.theta0)
    for f in _all_matrices(m):
        for theta, n in ((th0, 100), (th0 + 0.1, 60), (th0 - 0.05, 150)):
            assert_heads_match_entrywise(f, n, theta)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(0, 2), q=st.integers(0, 2), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_coefficient_tables_match_entrywise_path_for_random_varma(p, q, r, seed):
    rng = np.random.default_rng(seed)
    m = make_random_varma(rng, p, q, r)
    theta = np.array(m.layout.theta0) + rng.uniform(-0.05, 0.05, size=m.m)
    for f in _all_matrices(m):
        assert_heads_match_entrywise(f, int(rng.integers(1, 60)), theta)


def _lag_problem(rng, k, r, stack, n):
    # absolute row sums below 0.5 over all lags keep the recursion bounded
    c = rng.uniform(-0.5, 0.5, (k, n, r, r)) / max(k * r, 1)
    return c, rng.standard_normal(stack + (n, r))


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 3),
    r=st.integers(1, 3),
    stack=st.sampled_from([(0,), (), (5,), (2, 3)]),
    n=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 64, 65, 400]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lag_solve_matches_forward_substitution(k, r, stack, n, seed):
    # the solution the build returns for its stack of 0, 1, 5 or 6 columns, and the
    # sweeps of its levels for that stack and another one
    rng = np.random.default_rng(seed)
    c, z = _lag_problem(rng, k, r, stack, n)
    w = rng.standard_normal((2, n, r))
    z_before = z.copy()
    solver, y = _lag_solver(c, z)
    np.testing.assert_array_equal(z, z_before)
    for rhs, got in ((z, y), (z, solver(z)), (w, solver(w))):
        ref = lag_solve_loop(c, rhs)
        assert got.shape == rhs.shape
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("k, r, stack", [(1, 2, ()), (2, 3, (4,)), (3, 1, (2, 3))])
def test_lag_solve_is_prefix_invariant(k, r, stack):
    # each y_t goes through the same operations whatever the length of the solve,
    # in the build's own solution and in a sweep of its levels
    c, z = _lag_problem(np.random.default_rng(17), k, r, stack, 400)
    solver, y = _lag_solver(c, z)
    full = solver(z)
    for n0 in (3, 5, 6, 37, 100, 255, 257, 399):
        head, y0 = _lag_solver(c[:, :n0], z[..., :n0, :])
        np.testing.assert_array_equal(y0, y[..., :n0, :])
        np.testing.assert_array_equal(head(z[..., :n0, :]), full[..., :n0, :])


@pytest.mark.parametrize("k, r, stack, n", [
    (1, 2, (), 100), (1, 1, (), 2), (2, 3, (4,), 65), (3, 4, (2, 3), 400), (3, 1, (), 9),
])
def test_lag_solve_levels_do_not_see_the_right_hand_sides(k, r, stack, n):
    # the Phi levels of a build that carries z are those of a build with no columns,
    # bit for bit, so the sweeps and adjoints of the two solvers agree bit for bit too
    rng = np.random.default_rng(29)
    c, z = _lag_problem(rng, k, r, stack, n)
    carried, _ = _lag_solver(c, z)
    bare, _ = _lag_solver(c, np.zeros((0, n, r)))
    assert [d for d, _ in carried.levels] == [d for d, _ in bare.levels]
    for (_, got), (_, want) in zip(carried.levels, bare.levels):
        np.testing.assert_array_equal(got, want)
    x = rng.standard_normal((3, n, r))
    np.testing.assert_array_equal(carried(x), bare(x))
    np.testing.assert_array_equal(carried.adjoint(x), bare.adjoint(x))


@pytest.mark.parametrize("q", [1, 2])
def test_residual_solves_share_companion_products(q):
    # e is the solution of the build of B_op's levels and de one sweep of those
    # levels, each bit for bit, and both match the per-t forward substitution to rounding
    rng = np.random.default_rng(31 + q)
    m = make_random_varma(rng, 2, q, 3)
    series = simulate(SimPlan(m, m.layout.theta0, 70, 5))
    theta = np.array(m.layout.theta0) + rng.uniform(-0.05, 0.05, size=m.m)
    res = residuals(m, series, theta)
    x, (n, r) = series.values, series.values.shape
    b_all = m.b_values(range(1, n + 1), theta)
    # the AR side from the series' products with the coefficient tables, the MA side per theta
    rhs, de_rhs = x, np.zeros((m.m, n, r))
    for prod in m.ar_products(x):
        d = prod.derivs(theta, [()] + [(k,) for k in prod.slots])
        rhs = rhs - d.pop(())
        for (k,), dk in d.items():
            de_rhs[k] -= dk
    solver, e = _lag_solver(b_all, rhs)
    for lag, f in enumerate(m.b_funcs, 1):
        slots, d = f.head_grad(n, theta)
        de_rhs[list(slots)] -= (d @ _lagged(e, lag)[:, :, None])[..., 0]
    np.testing.assert_array_equal(res.e, e)
    np.testing.assert_array_equal(res.de, solver(de_rhs))
    for got, ref in ((res.e, lag_solve_loop(b_all, rhs)), (res.de, lag_solve_loop(b_all, de_rhs))):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_objective_builds_the_scale_once_per_evaluation(monkeypatch):
    m = examples.example2_model()
    calls = []
    deriv_map = m.g_func.deriv_map
    monkeypatch.setattr(m.g_func, "deriv_map", lambda *a: calls.append(a) or deriv_map(*a))
    series = simulate(SimPlan(m, m.layout.theta0, 60, 3))
    theta = np.array(m.layout.theta0) + 0.05
    objective(m, series, theta)
    assert len(calls) == 1


def _entrywise_objective(m, series, theta, estimate_sigma=False):
    """(q, alphas, score_rows, grad, info) one t at a time, from the entry-by-entry
    value and deriv of the coefficient functions and each Sigma_t and its inverse.
    The residuals run the recursion e_t = x_t - sum_i A_ti x_{t-i} - sum_j B_tj e_{t-j}
    and its derivative forward in t; with estimate_sigma, Sigma is first replaced by
    Sigma_hat = (1/n) sum_t z_t z_t', z_t = g_t^{-1} e_t."""
    x = series.values
    n, r = x.shape
    ts = np.arange(1, n + 1)
    a = [f.value(ts, theta) for f in m.a_funcs]
    b = [f.value(ts, theta) for f in m.b_funcs]
    da = [[f.deriv(ts, theta, (i,)) for i in range(m.m)] for f in m.a_funcs]
    db = [[f.deriv(ts, theta, (i,)) for i in range(m.m)] for f in m.b_funcs]
    g = m.g_func.value(ts, theta)
    dg = [m.g_func.deriv(ts, theta, (i,)) for i in range(m.m)]
    e, de = np.zeros((n, r)), np.zeros((n, m.m, r))
    for t in range(n):
        e[t] = x[t]
        for lag in range(1, t + 1):
            for i in range(m.m):
                if lag <= m.p:
                    de[t, i] -= da[lag - 1][i][t] @ x[t - lag]
                if lag <= m.q:
                    de[t, i] -= db[lag - 1][i][t] @ e[t - lag] + b[lag - 1][t] @ de[t - lag, i]
            if lag <= m.p:
                e[t] -= a[lag - 1][t] @ x[t - lag]
            if lag <= m.q:
                e[t] -= b[lag - 1][t] @ e[t - lag]
    sigma = m.sigma
    if estimate_sigma:
        z = [np.linalg.inv(g[t]) @ e[t] for t in range(n)]
        sigma = sum(np.outer(zt, zt) for zt in z) / n
    alphas, rows, info = np.zeros(n), np.zeros((n, m.m)), np.zeros((m.m, m.m))
    for t in range(n):
        sig = g[t] @ sigma @ g[t].T
        dsig = [d[t] @ sigma @ g[t].T + g[t] @ sigma @ d[t].T for d in dg]
        inv = np.linalg.inv(sig)
        w = inv @ e[t]
        alphas[t] = np.linalg.slogdet(sig)[1] + e[t] @ w
        for i in range(m.m):
            rows[t, i] = 2.0 * de[t, i] @ w + np.trace(inv @ dsig[i]) - w @ dsig[i] @ w
            for j in range(m.m):
                info[i, j] += de[t, i] @ inv @ de[t, j] + 0.5 * np.trace(inv @ dsig[i] @ inv @ dsig[j])
    q = 0.5 * alphas.sum() + 0.5 * r * n * math.log(2.0 * math.pi)
    return q, alphas, rows, 0.5 * rows.sum(axis=0), info


def _assert_rel(got, want, rtol=1e-12):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("which, estimate_sigma", [
    ("example1_sim", True), ("example2", True), ("varma11", False),
])
def test_objective_reductions_match_the_per_t_reference(which, estimate_sigma):
    # the whitened stack's flat reductions (alpha_t and the score rows along its last
    # axis, the information in one product) against Sigma_t and its inverse one t at a
    # time: the profile objective, example2's scale slots, and a q > 0 model
    m = make_sin_varma11(np.random.default_rng(909)) if which == "varma11" else examples.build(which)
    rng = np.random.default_rng(41)
    series = simulate(SimPlan(m, m.layout.theta0, 60, 19))
    for _ in range(3):
        theta = np.array(m.layout.theta0) + rng.uniform(-0.1, 0.1, m.m)
        rep = objective(m, series, theta, estimate_sigma=estimate_sigma)
        q, alphas, rows, grad, info = _entrywise_objective(m, series, theta, estimate_sigma)
        _assert_rel(rep.q, q)
        _assert_rel(rep.alphas, alphas)
        _assert_rel(rep.score_rows, rows)
        _assert_rel(rep.grad, grad)
        _assert_rel(rep.info, info)


def test_residual_stack_is_one_buffer_and_a_pure_ar_model_solves_nothing(monkeypatch):
    # e and de are views of one contiguous stack, with no concatenated copy, and
    # without an MA part no lag solve is set up, not even the identity
    models = [make_sin_varma11(np.random.default_rng(909)), examples.build("example1_sim"), examples.build("example2")]
    data = [(m, simulate(SimPlan(m, m.layout.theta0, 40, 3)), m.layout.theta0) for m in models]
    built = []
    solver = likelihood._lag_solver
    monkeypatch.setattr(likelihood, "_lag_solver", lambda *a: built.append(a) or solver(*a))
    for m, series, theta in data:
        res = residuals(m, series, theta)
        assert res.stack.flags.c_contiguous and res.stack.shape == (1 + m.m, 40, m.r)
        assert np.shares_memory(res.e, res.stack) and np.shares_memory(res.de, res.stack)
        objective(m, series, theta, estimate_sigma=True)
        objective_value(m, series, theta)
        assert len(built) == (3 if m.q else 0)  # one per evaluation with an MA part
        built.clear()


@pytest.mark.parametrize("n", [25, 50, 400])
def test_example2_tables_match_entrywise_reference(n):
    # objective and the order-3 covariance table read g_t's table; the reference
    # evaluates every coefficient entry by entry
    m = examples.example2_model()
    rng = np.random.default_rng(n)
    series = simulate(SimPlan(m, m.layout.theta0, n, 11))
    ts = np.arange(1, n + 1)
    slots = list(m.layout.scale_slots)
    for _ in range(5):
        theta = np.array(m.layout.theta0) + rng.uniform(-0.3, 0.3, m.m)
        rep = objective(m, series, theta)
        q, _, _, grad, info = _entrywise_objective(m, series, theta)
        _assert_rel(rep.q, q)
        _assert_rel(rep.grad, grad)
        _assert_rel(rep.info, info)
        taus = sorted_tuples(range(m.m), 3)
        sig, inv = m._sigma_t_table(ts, theta, taus, inverse=True)
        assert list(sig) == list(inv) == [tau for tau in taus if set(tau) <= set(slots)]
        g = {tau: m.g_func.deriv(ts, theta, tau) if tau else m.g_func.value(ts, theta) for tau in sig}
        for tau in sig:
            want = sum(g[a] @ m.sigma @ np.swapaxes(g[b], -1, -2) for a, b in index_splits(tau))
            _assert_rel(sig[tau], want)
            # d^tau (Sigma Sigma^-1) is the identity for tau = () and zero otherwise
            eye = np.broadcast_to(np.eye(m.r) * (not tau), (n, m.r, m.r))
            product = sum(sig[a] @ inv[b] for a, b in index_splits(tau))
            np.testing.assert_allclose(product, eye, rtol=0, atol=1e-12 * max(1.0, np.abs(inv[tau]).max()))


def test_objective_reads_coefficients_through_the_model(monkeypatch):
    # the AR side comes from the model's ar_products of the series and the MA stack
    # from its b_values, where a tracer or a subclass sees them, and nowhere else
    m = make_sin_varma11(np.random.default_rng(3))
    series = simulate(SimPlan(m, m.layout.theta0, 40, 9))
    want = objective(m, series, m.layout.theta0)
    calls = []
    ar_products, b_values = TdVarmaModel.ar_products, TdVarmaModel.b_values

    def ar_spy(self, x):
        calls.append(("ar_products", x.tobytes()))
        return ar_products(self, x)

    def b_spy(self, ts, theta):
        calls.append(("b_values", list(ts)))
        return b_values(self, ts, theta)

    monkeypatch.setattr(TdVarmaModel, "ar_products", ar_spy)
    monkeypatch.setattr(TdVarmaModel, "b_values", b_spy)
    got = objective(m, series, m.layout.theta0)
    assert sorted(calls) == [("ar_products", series.values.tobytes()), ("b_values", list(range(1, 41)))]
    assert got.q == want.q


@pytest.mark.parametrize("k, r, stack", [(0, 2, ()), (1, 2, ()), (2, 3, (4,)), (3, 1, (2, 3))])
def test_lag_solve_adjoint_is_the_transpose(k, r, stack):
    # <(I + C_op)^{-1} z, y> = <z, (I + C_op)^{-T} y> for every stack slice
    rng = np.random.default_rng(23)
    c, z = _lag_problem(rng, k, r, stack, 70)
    y = rng.standard_normal(z.shape)
    solver, _ = _lag_solver(c, z)
    lhs = np.sum(solver(z) * y, axis=(-2, -1))
    rhs = np.sum(z * solver.adjoint(y), axis=(-2, -1))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(lhs)))


def _score_jacobian(m, series, theta, estimate_sigma, h=1e-5):
    """Central differences of the analytic score, column j by theta_j."""
    cols = []
    for j in range(m.m):
        step = h * np.eye(m.m)[j]
        up, down = (objective(m, series, theta + s, estimate_sigma).grad for s in (step, -step))
        cols.append((up - down) / (2 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("which, estimate_sigma", [
    ("example1_sim", True), ("example2", False), ("example2", True), ("varma11", False),
    ("varma11", True), ("varma22", False), ("random_varma", True),
])
def test_hessian_matches_differences_of_the_score(which, estimate_sigma):
    # the exact Hessian against central differences of the analytic score: the profile
    # objective, example2's scale block, an MA part (its adjoint solve), varma22's
    # non-affine AR and MA matrices, and a VARMA(2, 1) with a scale block
    makers = {
        "varma11": lambda: make_sin_varma11(np.random.default_rng(909)),
        "varma22": lambda: make_random_varma22(np.random.default_rng(3)),
        "random_varma": lambda: make_random_varma(np.random.default_rng(5), 2, 1, 3),
    }
    m = makers[which]() if which in makers else examples.build(which)
    series = simulate(SimPlan(m, m.layout.theta0, 80, 12))
    theta = np.array(m.layout.theta0) + 0.05
    rep = objective(m, series, theta, estimate_sigma)
    hess, ref = rep.hessian(), _score_jacobian(m, series, theta, estimate_sigma)
    np.testing.assert_array_equal(hess, hess.T)
    assert np.max(np.abs(hess - ref)) <= 1e-6 * np.max(np.abs(ref))
    assert np.max(np.abs(rep.info - ref)) > 1e-3 * np.max(np.abs(ref))  # the information is not it
    assert rep.hessian() is hess  # formed once


def test_hessian_is_the_information_for_a_fixed_sigma_var():
    # q = 0, affine AR matrices, no scale slots and Sigma fixed: the residuals are affine in
    # theta, so the Hessian is the information to the bit
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 120, 11))
    rep = objective(m, series, np.array(m.layout.theta0) + 0.05)
    np.testing.assert_array_equal(rep.hessian(), rep.info)
