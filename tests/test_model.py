import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scale_singular_at

from tdvarma.errors import ConfigError, SingularCovarianceError
from tdvarma.estimate import _safe_objective
from tdvarma.examples import FREQ_C, example1_sim_model, example2_model
from tdvarma.likelihood import objective, objective_value, residuals
from tdvarma.model import ParamLayout, Series, TdVarmaModel
from tdvarma.simulate import SimPlan, simulate
from tdvarma.timefn import Constant, ExpTrend, MatrixTimeFunction, Param, Sine, sorted_tuples


def fd_sigma(model, t, theta, idx, h):
    tp = theta.copy()
    tm = theta.copy()
    tp[idx] += h
    tm[idx] -= h
    return (model.sigma_t(t, tp) - model.sigma_t(t, tm)) / (2 * h)


def inverse_table(model, t, theta, order=3):
    """{tau: d^tau Sigma_t^{-1}} up to order from the model's covariance table."""
    return model._sigma_t_table(t, theta, sorted_tuples(range(model.m), order), inverse=True)[1]


def test_identity_scale_identity_noise():
    m = example1_sim_model()
    th = np.array(m.layout.theta0)
    for t in (1, 13, 250):
        np.testing.assert_array_equal(m.sigma_t(t, th), np.eye(2))


def test_example2_hand_product_at_zero_sine(example2):
    # at t = 25 the sine vanishes and the scale matrix is [[1,1],[-1,1]]
    th = np.array(example2.layout.theta0)
    got = example2.sigma_t(25, th)
    np.testing.assert_allclose(got, [[3.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_scale_derivative_zero_for_ar_slot(example2):
    th = np.array(example2.layout.theta0)
    np.testing.assert_array_equal(example2._sigma_t_deriv_any(9, th, (0,)), np.zeros((2, 2)))
    np.testing.assert_array_equal(example2._sigma_t_deriv_any(9, th, (0, 2)), np.zeros((2, 2)))


def test_constant_scale_derivative_zero(example1_sim):
    th = np.array(example1_sim.layout.theta0)
    for idx in ((0,), (1,), (2,)):
        np.testing.assert_array_equal(example1_sim._sigma_t_deriv_any(5, th, idx), np.zeros((2, 2)))


def test_scale_derivative_matches_fd(example2):
    th = np.array(example2.layout.theta0)
    for t in (3, 12, 37):
        for idx in (2, 3):
            exact = example2._sigma_t_deriv_any(t, th, (idx,))
            fd = fd_sigma(example2, t, th, idx, 1e-6)
            np.testing.assert_allclose(exact, fd, rtol=1e-7, atol=1e-10)


def test_second_scale_derivative_matches_fd(example2):
    th = np.array(example2.layout.theta0)

    def d1(theta, t, i):
        return example2._sigma_t_deriv_any(t, theta, (i,))

    for t in (5, 21):
        for i, j in ((2, 2), (2, 3), (3, 3)):
            exact = example2._sigma_t_deriv_any(t, th, (i, j))
            h = 1e-5
            tp = th.copy()
            tm = th.copy()
            tp[j] += h
            tm[j] -= h
            fd = (d1(tp, t, i) - d1(tm, t, i)) / (2 * h)
            np.testing.assert_allclose(exact, fd, rtol=1e-5, atol=1e-9)


def test_inverse_derivative_of_constant_is_zero(example1_sim):
    # every derivative tuple, (0,), (0, 1), (0, 1, 2) among them, is left out as identically zero
    th = np.array(example1_sim.layout.theta0)
    inv = inverse_table(example1_sim, 7, th)
    assert list(inv) == [()]


def test_inverse_derivative_identity(example2):
    # d(Sigma Sigma^-1) = dSigma Sigma^-1 + Sigma d(Sigma^-1) = 0
    th = np.array(example2.layout.theta0)
    for t in (4, 18):
        inv = inverse_table(example2, t, th, order=1)
        for i in (2, 3):
            lhs = example2._sigma_t_deriv_any(t, th, (i,)) @ inv[()]
            lhs += example2.sigma_t(t, th) @ inv[(i,)]
            np.testing.assert_allclose(lhs, np.zeros((2, 2)), atol=1e-12)


def test_inverse_third_derivative_matches_nested_fd(example2):
    th = np.array(example2.layout.theta0)
    t = 7
    i, j, l = 2, 2, 3
    exact = inverse_table(example2, t, th)[(i, j, l)]

    def d1(theta):
        return inverse_table(example2, t, theta, order=1)[(i,)]

    h = 1e-4
    grids = []
    for sj in (+1, -1):
        for sl in (+1, -1):
            tt = th.copy()
            tt[j] += sj * h
            tt[l] += sl * h
            grids.append((sj * sl, d1(tt)))
    fd = sum(s * v for s, v in grids) / (4 * h * h)
    np.testing.assert_allclose(exact, fd, rtol=1e-4, atol=1e-6)


def test_inverse_derivative_symmetric_in_index_order(example2):
    th = np.array(example2.layout.theta0)
    a = example2._sigma_t_deriv_any(11, th, (2, 3))
    b = example2._sigma_t_deriv_any(11, th, (3, 2))
    np.testing.assert_array_equal(a, b)
    # the table differentiates by 2, then 3; the product rule, symmetric in 2 and 3, agrees
    inv = inverse_table(example2, 11, th, order=2)
    d2, d3 = (example2._sigma_t_deriv_any(11, th, (i,)) for i in (2, 3))
    p = inv[()]
    want = -p @ a @ p + p @ d2 @ p @ d3 @ p + p @ d3 @ p @ d2 @ p
    np.testing.assert_allclose(inv[(2, 3)], want, rtol=1e-12, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(t=st.integers(1, 400), e1=st.floats(-1.5, 1.5), e2=st.floats(-1.5, 1.5))
def test_sigma_symmetric_positive_definite(t, e1, e2):
    m = example2_model()
    th = np.array([0.8, -0.9, e1, e2])
    st_ = m.sigma_t(t, th)
    assert np.max(np.abs(st_ - st_.T)) < 1e-14
    assert np.linalg.eigvalsh(st_)[0] > 0


def test_block_independence_validation():
    layout = ParamLayout(names=("a", "g"), n_ar=1, n_ma=0, theta0=(0.5, 1.0))
    a_bad = MatrixTimeFunction([[Param(1)]])  # references the scale block
    with pytest.raises(ConfigError):
        TdVarmaModel(1, [a_bad], [], None, [[1.0]], layout)


def test_sigma_must_be_positive_definite():
    layout = ParamLayout(names=("a",), n_ar=1, n_ma=0)
    a = MatrixTimeFunction([[Param(0)]])
    with pytest.raises(ConfigError):
        TdVarmaModel(1, [a], [], None, [[-1.0]], layout)


@pytest.mark.parametrize(
    "sigma,match",
    [
        (np.eye(3), "finite 2 x 2"),
        (np.ones(2), "finite 2 x 2"),
        ([[1.0, 0.0], [0.0, np.nan]], "finite 2 x 2"),
        ([[1.0, np.inf], [np.inf, 1.0]], "finite 2 x 2"),
        ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
    ],
)
def test_innovation_covariance_is_checked_once_on_every_path(example1_sim, sigma, match):
    layout = example1_sim.layout
    parts = (example1_sim.a_funcs, example1_sim.b_funcs, example1_sim.g_func)
    with pytest.raises(ConfigError, match=match):
        TdVarmaModel(2, *parts, sigma, layout)


def test_innovation_covariance_keeps_its_cholesky_factor(example2):
    parts = (example2.a_funcs, example2.b_funcs, example2.g_func)
    m = TdVarmaModel(2, *parts, [[2.0, 0.5], [0.5, 1.0]], example2.layout)
    for model in (example2, m):  # a model on the same functions has its own factor, and example2 keeps its one
        np.testing.assert_array_equal(model.sigma_chol, np.linalg.cholesky(model.sigma))
        assert not (model.sigma.flags.writeable or model.sigma_chol.flags.writeable)


@pytest.mark.parametrize(
    "path", ["sigma_t_inv", "sigma_t_inv_deriv", "scale_factor", "residuals", "objective_value", "objective"]
)
def test_singular_residual_covariance_names_its_first_time(path):
    m = make_scale_singular_at(3)
    theta = np.array([0.5, 1.0])
    series = simulate(SimPlan(m, m.layout.theta0, 10, 4))
    calls = {
        "sigma_t_inv": lambda: m._sigma_t_table(np.arange(1, 11), theta, [()], inverse=True),
        "sigma_t_inv_deriv": lambda: m._sigma_t_table(np.arange(1, 11), theta, [(), (1,), (1, 1)], inverse=True),
        "scale_factor": lambda: m.scale_factor(10, theta),
        "residuals": lambda: residuals(m, series, theta),
        "objective_value": lambda: objective_value(m, series, theta),
        "objective": lambda: objective(m, series, theta),
    }
    with pytest.raises(SingularCovarianceError) as err:
        calls[path]()
    assert err.value.t == 3 and err.value.theta == (0.5, 1.0)
    assert _safe_objective(m, series, theta) is None  # a rejected line-search trial
    with pytest.raises(SingularCovarianceError) as err:
        m._sigma_t_table(3, theta, [()], inverse=True)
    assert err.value.t == 3
    inv = m._sigma_t_table(np.arange(4, 8), theta, [()], inverse=True)[1][()]
    np.testing.assert_array_equal(inv, np.linalg.inv(m.sigma_t_all(7, theta)[3:]))


def test_singular_scale_detected_eagerly():
    layout = ParamLayout(names=("a", "g"), n_ar=1, n_ma=0, theta0=(0.5, 0.0))
    a = MatrixTimeFunction([[Param(0)]])
    g = MatrixTimeFunction([[Param(1)]])  # zero at theta0: singular for every t
    with pytest.raises(ConfigError, match="singular at t=1"):
        TdVarmaModel(1, [a], [], g, [[1.0]], layout)


def test_a_tiny_but_regular_scale_builds_and_evaluates():
    # g_t = 1e-7 I has det 1e-14, yet Sigma_t and its inverse are finite
    layout = ParamLayout(names=("a",), n_ar=1, n_ma=0, theta0=(0.5,))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Constant(0.3)]])
    g = MatrixTimeFunction([[Constant(1e-7), Constant(0.0)], [Constant(0.0), Constant(1e-7)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = TdVarmaModel(2, [a], [], g, np.eye(2), layout)
        series = simulate(SimPlan(m, layout.theta0, 50, 3))
        rep = objective(m, series, np.array([0.4]))
    assert np.isfinite(rep.q) and np.all(np.isfinite(rep.grad))


def test_an_overflowing_scale_is_rejected_at_its_first_t():
    # Sigma_t = exp(4 t) overflows at t = 178, inside the construction's horizon
    layout = ParamLayout(names=("a",), n_ar=1, n_ma=0, theta0=(0.5,))
    g = MatrixTimeFunction([[ExpTrend(2.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="singular at t=178"):
            TdVarmaModel(1, [MatrixTimeFunction([[Param(0)]])], [], g, [[1.0]], layout)


def test_series_validation():
    with pytest.raises(ConfigError):
        Series(values=np.array([[1.0, np.nan]]))
    with pytest.raises(ConfigError):
        Series(values=np.zeros((0, 2)))
    s = Series(values=np.zeros((5, 2)))
    assert (s.n, s.r) == (5, 2)


def test_layout_blocks():
    lay = ParamLayout(names=("a", "b", "c", "d"), n_ar=2, n_ma=0, theta0=(1, 2, 3, 4))
    assert list(lay.ar_slots) == [0, 1]
    assert list(lay.ma_slots) == []
    assert list(lay.scale_slots) == [2, 3]
    with pytest.raises(ConfigError):
        ParamLayout(names=("a",), n_ar=2, n_ma=0)


@pytest.mark.parametrize(
    "names, message",
    [
        ((), "at least one parameter name"),
        (("a", "b", "a"), "'a' appears more than once"),
        (("a", "b,c"), "'b,c' contains a comma"),
        (("a", "b\nc"), "line break"),
        (("a\r", "b"), "line break"),
    ],
)
def test_layout_rejects_names_the_outputs_cannot_hold(names, message):
    # an empty layout broke fit, mc, asymptotics and check; a repeated name or one
    # with a comma or line break wrote CSV rows a reader cannot tell apart
    with pytest.raises(ConfigError, match=message):
        ParamLayout(names=names, n_ar=0, n_ma=0)


def test_parameter_free_scale_is_built_once_and_read_by_prefix(example1_sim, example2):
    th = np.array(example1_sim.layout.theta0)
    parts = (example1_sim.a_funcs, example1_sim.b_funcs, example1_sim.g_func)
    m = TdVarmaModel(2, *parts, [[1.0, 0.5], [0.5, 2.0]], example1_sim.layout)
    factors = m.scale_factor(30, th)[:2]
    h, logdet = factors
    assert not any(a.flags.writeable for a in factors)
    np.testing.assert_array_equal(h, np.broadcast_to(np.linalg.inv(m.sigma_chol), (30, 2, 2)))
    np.testing.assert_allclose(logdet, np.linalg.slogdet(m.sigma)[1], rtol=0, atol=1e-13)
    again = m.scale_factor(30, th + 0.3)[:2]
    assert all(np.shares_memory(a, b) for a, b in zip(again, factors))
    short = m.scale_factor(12, th)[:2]
    assert all(np.shares_memory(a, b) for a, b in zip(short, factors))
    assert [a.shape for a in short] == [(12, 2, 2), (12,)]
    longer = m.scale_factor(45, th)[:2]
    for a, b in zip(longer, factors):
        np.testing.assert_array_equal(a[:30], b)
    np.testing.assert_array_equal(TdVarmaModel(2, *parts, 4.0 * m.sigma, m.layout).scale_factor(30, th)[0], 0.5 * h)
    # a scale with parameters is rebuilt at every theta
    th2 = np.array(example2.layout.theta0)
    h2 = example2.scale_factor(30, th2)[0]
    assert h2.flags.writeable
    assert not np.array_equal(h2, example2.scale_factor(30, th2 + 0.1)[0])
