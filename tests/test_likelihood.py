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
from tdvarma import examples
from tdvarma.errors import ContractError, SingularCovarianceError
from tdvarma.estimate import _safe_objective, estimate_noise_cov
from tdvarma.likelihood import (
    _lag_solve,
    _lag_sum,
    _lagged,
    empirical_vw,
    objective,
    objective_value,
    residuals,
)
from tdvarma.model import ParamLayout, Series, TdVarmaModel
from tdvarma.representations import build_psi
from tdvarma.simulate import SimPlan, simulate
from tdvarma.timefn import Constant, MatrixTimeFunction, Param, Sine, index_splits, sorted_tuples


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
    return objective_value(m.with_sigma(estimate_noise_cov(m, series, th)), series, th)


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
    series, eps = simulate(SimPlan(m, m.layout.theta0, n, 11), return_innovations=True)
    x = series.values.ravel()
    scaled = np.einsum("trs,ts->tr", m.g_values(np.arange(1, n + 1), th0), eps).ravel()
    np.testing.assert_allclose(x, np.linalg.solve(dense_residual_operator(m, th0, n)[0], scaled), atol=1e-12)
    res = residuals(m, series, th, with_derivs=True)
    big_m, dms = dense_residual_operator(m, th, n)
    np.testing.assert_allclose(res.e.ravel(), big_m @ x, atol=1e-12)
    np.testing.assert_allclose(res.de.reshape(m.m, -1), np.stack([dm @ x for dm in dms]), atol=1e-12)


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
    series, eps = simulate(SimPlan(m, m.layout.theta0, n, 3), return_innovations=True)
    res = residuals(m, series, th0, with_derivs=True)
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
@pytest.mark.parametrize("with_derivs", [False, True])
def test_residuals_carry_the_inverse_and_log_determinant(which, with_derivs):
    # H_t inverts F_t = g_t L, H_t' H_t = Sigma_t^{-1}, and S_t + S_t' = H_t dSigma_t H_t'
    rng = np.random.default_rng(23)
    m = make_random_varma(rng, 1, 1, 3) if which == "random_varma" else examples.build(which)
    theta = np.array(m.layout.theta0) + 0.05
    n = 40
    ts = np.arange(1, n + 1)
    res = residuals(m, simulate(SimPlan(m, m.layout.theta0, n, 5)), theta, with_derivs=with_derivs)
    g = m.g_values(ts, theta)
    eye = np.broadcast_to(np.eye(m.r), g.shape)
    _assert_rel(res.h @ g @ m.sigma_chol, eye, rtol=1e-13)
    _assert_rel(m.scale_factor(n, theta)[0] @ g, eye, rtol=1e-13)
    _assert_rel(np.swapaxes(res.h, -1, -2) @ res.h, m.sigma_t_inv(ts, theta), rtol=1e-13)
    _assert_rel(res.logdet, np.linalg.slogdet(m.sigma_t_all(n, theta))[1], rtol=1e-13)
    if not with_derivs:
        assert res.s is None
        return
    assert res.s.shape == (m.layout.n_scale, n, m.r, m.r)
    for s, slot in zip(res.s, m.layout.scale_slots):
        want = res.h @ m.sigma_t_deriv(ts, theta, (slot,)) @ np.swapaxes(res.h, -1, -2)
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
    stack=st.sampled_from([(), (5,), (2, 3)]),
    n=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 64, 65, 400]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lag_solve_matches_forward_substitution(k, r, stack, n, seed):
    c, z = _lag_problem(np.random.default_rng(seed), k, r, stack, n)
    z_before = z.copy()
    ref = lag_solve_loop(c, z)
    y = _lag_solve(c, z)
    assert y.shape == z.shape
    np.testing.assert_array_equal(z, z_before)
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k, r, stack", [(1, 2, ()), (2, 3, (4,)), (3, 1, (2, 3))])
def test_lag_solve_is_prefix_invariant(k, r, stack):
    # each y_t goes through the same operations whatever the length of the solve
    c, z = _lag_problem(np.random.default_rng(17), k, r, stack, 400)
    full = _lag_solve(c, z)
    for n0 in (3, 5, 6, 37, 100, 255, 257, 399):
        np.testing.assert_array_equal(_lag_solve(c[:, :n0], z[..., :n0, :]), full[..., :n0, :])


@pytest.mark.parametrize("q", [1, 2])
def test_residual_solves_share_companion_products(q):
    # e and de come from one set of companion products; each equals its own
    # two-call solve bit for bit, and the per-t forward substitution to rounding
    rng = np.random.default_rng(31 + q)
    m = make_random_varma(rng, 2, q, 3)
    series = simulate(SimPlan(m, m.layout.theta0, 70, 5))
    theta = np.array(m.layout.theta0) + rng.uniform(-0.05, 0.05, size=m.m)
    res = residuals(m, series, theta, with_derivs=True)
    x, (n, r) = series.values, series.values.shape
    b_all = m.b_values(range(1, n + 1), theta)
    rhs = x - _lag_sum(m.a_values(range(1, n + 1), theta), x)
    e = _lag_solve(b_all, rhs)
    de_rhs = np.zeros((m.m, n, r))
    for funcs, y in ((m.a_funcs, x), (m.b_funcs, e)):
        for lag, f in enumerate(funcs, 1):
            slots, d = f.head_grad(n, theta)
            de_rhs[list(slots)] -= (d @ _lagged(y, lag)[:, :, None])[..., 0]
    np.testing.assert_array_equal(res.e, e)
    np.testing.assert_array_equal(res.de, _lag_solve(b_all, de_rhs))
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


def _entrywise_objective(m, series, theta):
    """(q, grad, info) of a VAR(1) model one t at a time, from the entry-by-entry
    value and deriv of its coefficient functions."""
    x = series.values
    n, r = x.shape
    ts = np.arange(1, n + 1)
    a, g = m.a_funcs[0].value(ts, theta), m.g_func.value(ts, theta)
    da = [m.a_funcs[0].deriv(ts, theta, (i,)) for i in range(m.m)]
    dg = [m.g_func.deriv(ts, theta, (i,)) for i in range(m.m)]
    q, grad, info = 0.5 * r * n * math.log(2.0 * math.pi), np.zeros(m.m), np.zeros((m.m, m.m))
    for t in range(n):
        prev = x[t - 1] if t else np.zeros(r)
        e = x[t] - a[t] @ prev
        de = [-d[t] @ prev for d in da]
        sig = g[t] @ m.sigma @ g[t].T
        dsig = [d[t] @ m.sigma @ g[t].T + g[t] @ m.sigma @ d[t].T for d in dg]
        inv = np.linalg.inv(sig)
        w = inv @ e
        q += 0.5 * (np.linalg.slogdet(sig)[1] + e @ w)
        for i in range(m.m):
            grad[i] += de[i] @ w + 0.5 * (np.trace(inv @ dsig[i]) - w @ dsig[i] @ w)
            for j in range(m.m):
                info[i, j] += de[i] @ inv @ de[j] + 0.5 * np.trace(inv @ dsig[i] @ inv @ dsig[j])
    return q, grad, info


def _assert_rel(got, want, rtol=1e-12):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


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
        q, grad, info = _entrywise_objective(m, series, theta)
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
    # the AR and MA stacks come from the model's a_values / b_values, where a
    # tracer or a subclass sees them, and nowhere else
    m = make_sin_varma11(np.random.default_rng(3))
    series = simulate(SimPlan(m, m.layout.theta0, 40, 9))
    want = objective(m, series, m.layout.theta0)
    calls = []

    def spy(name):
        original = getattr(TdVarmaModel, name)

        def read(self, ts, theta):
            calls.append((name, list(ts)))
            return original(self, ts, theta)

        return read

    for name in ("a_values", "b_values"):
        monkeypatch.setattr(TdVarmaModel, name, spy(name))
    got = objective(m, series, m.layout.theta0)
    assert sorted(calls) == [("a_values", list(range(1, 41))), ("b_values", list(range(1, 41)))]
    assert got.q == want.q
