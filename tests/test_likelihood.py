import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_heads_match_entrywise,
    dense_residual_operator,
    lag_solve_loop,
    make_random_varma22,
    make_scalar_arma11,
    make_sin_varma11,
)
from tdvarma import examples
from tdvarma.errors import ContractError, SingularCovarianceError
from tdvarma.likelihood import _lag_solve, _scale_derivs, empirical_vw, objective, objective_value, residuals
from tdvarma.model import ParamLayout, Series, TdVarmaModel
from tdvarma.representations import build_psi
from tdvarma.simulate import SimPlan, simulate
from tdvarma.timefn import Constant, ExpSine, MatrixTimeFunction, Param, Product, Sine


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


def _random_varma(rng, p, q, r):
    """VARMA(p, q) with Sine or Product(Sine, Param) entries and a diagonal ExpSine scale.

    Each nonempty lag block has two amplitude slots and one factor slot; the
    diagonal entries of the scale take min(r, 2) slots in turn.
    """
    slots = iter(range(100))

    def block(order):
        if not order:
            return [], ()
        amps, factor = (next(slots), next(slots)), next(slots)

        def entry():
            sine = Sine(amps[int(rng.integers(2))], rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi))
            return sine if rng.uniform() < 0.5 else Product(sine, Param(factor))

        mats = [MatrixTimeFunction([[entry() for _ in range(r)] for _ in range(r)]) for _ in range(order)]
        # absolute row sums total at most 0.4 over all lags: stable and invertible lag polynomials
        return mats, (*rng.uniform(-0.4, 0.4, 2) / (r * order), rng.uniform(0.5, 1.0))

    a_funcs, a_theta = block(p)
    b_funcs, b_theta = block(q)
    scale = [next(slots) for _ in range(min(r, 2))]
    g = MatrixTimeFunction(
        [
            [ExpSine(scale[i % len(scale)], rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi))
             if i == j else Constant(0.0) for j in range(r)]
            for i in range(r)
        ]
    )
    theta0 = (*a_theta, *b_theta, *rng.uniform(-0.5, 0.5, len(scale)))
    layout = ParamLayout(
        names=tuple(f"p{i}" for i in range(len(theta0))), n_ar=len(a_theta), n_ma=len(b_theta), theta0=theta0
    )
    return TdVarmaModel(r, a_funcs, b_funcs, g, np.eye(r), layout)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(0, 2), q=st.integers(0, 2), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_score_matches_fd_for_random_varma(p, q, r, seed):
    rng = np.random.default_rng(seed)
    m = _random_varma(rng, p, q, r)
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
        rows = psi.derivs[(i,)]
        for t in range(1, n + 1):
            acc = np.zeros(m.r)
            row = rows[t - 1]
            for k in range(1, row.shape[0]):
                acc += row[k] @ scaled[t - 1 - k]
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
    m = _random_varma(rng, p, q, r)
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


def test_objective_builds_the_scale_once_per_evaluation(monkeypatch):
    m = examples.example2_model()
    calls = []
    deriv_map = m.g_func.deriv_map
    monkeypatch.setattr(m.g_func, "deriv_map", lambda *a: calls.append(a) or deriv_map(*a))
    series = simulate(SimPlan(m, m.layout.theta0, 60, 3))
    theta = np.array(m.layout.theta0) + 0.05
    objective(m, series, theta)
    assert len(calls) == 1
    ts = np.arange(1, 61)
    per_slot = [m.sigma_t_deriv(ts, theta, (s,)) for s in m.layout.scale_slots]
    np.testing.assert_array_equal(_scale_derivs(m, 60, theta), np.stack(per_slot))
