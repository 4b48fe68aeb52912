import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdvarma.errors import ConfigError, ContractError
from tdvarma.examples import FREQ_C, example1_sim_model, example2_model
from tdvarma.model import ParamLayout, Series, TdVarmaModel
from tdvarma.timefn import Constant, MatrixTimeFunction, Param, Sine


def fd_sigma(model, t, theta, idx, h):
    tp = theta.copy()
    tm = theta.copy()
    tp[idx] += h
    tm[idx] -= h
    return (model.sigma_t(t, tp) - model.sigma_t(t, tm)) / (2 * h)


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
    np.testing.assert_array_equal(example2.sigma_t_deriv(9, th, (0,)), np.zeros((2, 2)))
    np.testing.assert_array_equal(example2.sigma_t_deriv(9, th, (0, 2)), np.zeros((2, 2)))


def test_constant_scale_derivative_zero(example1_sim):
    th = np.array(example1_sim.layout.theta0)
    for idx in ((0,), (1,), (2,)):
        np.testing.assert_array_equal(example1_sim.sigma_t_deriv(5, th, idx), np.zeros((2, 2)))


def test_scale_derivative_matches_fd(example2):
    th = np.array(example2.layout.theta0)
    for t in (3, 12, 37):
        for idx in (2, 3):
            exact = example2.sigma_t_deriv(t, th, (idx,))
            fd = fd_sigma(example2, t, th, idx, 1e-6)
            np.testing.assert_allclose(exact, fd, rtol=1e-7, atol=1e-10)


def test_second_scale_derivative_matches_fd(example2):
    th = np.array(example2.layout.theta0)

    def d1(theta, t, i):
        return example2.sigma_t_deriv(t, theta, (i,))

    for t in (5, 21):
        for i, j in ((2, 2), (2, 3), (3, 3)):
            exact = example2.sigma_t_deriv(t, th, (i, j))
            h = 1e-5
            tp = th.copy()
            tm = th.copy()
            tp[j] += h
            tm[j] -= h
            fd = (d1(tp, t, i) - d1(tm, t, i)) / (2 * h)
            np.testing.assert_allclose(exact, fd, rtol=1e-5, atol=1e-9)


def test_scale_derivative_order_three_rejected(example2):
    with pytest.raises(ContractError):
        example2.sigma_t_deriv(5, np.array(example2.layout.theta0), (2, 2, 2))


def test_inverse_derivative_of_constant_is_zero(example1_sim):
    th = np.array(example1_sim.layout.theta0)
    for idx in ((0,), (0, 1), (0, 1, 2)):
        np.testing.assert_allclose(
            example1_sim.sigma_t_inv_deriv(7, th, idx), np.zeros((2, 2)), atol=1e-15
        )


def test_inverse_derivative_identity(example2):
    # d(Sigma Sigma^-1) = dSigma Sigma^-1 + Sigma d(Sigma^-1) = 0
    th = np.array(example2.layout.theta0)
    for t in (4, 18):
        for i in (2, 3):
            lhs = example2.sigma_t_deriv(t, th, (i,)) @ example2.sigma_t_inv(t, th)
            lhs += example2.sigma_t(t, th) @ example2.sigma_t_inv_deriv(t, th, (i,))
            np.testing.assert_allclose(lhs, np.zeros((2, 2)), atol=1e-12)


def test_inverse_third_derivative_matches_nested_fd(example2):
    th = np.array(example2.layout.theta0)
    t = 7
    i, j, l = 2, 2, 3
    exact = example2.sigma_t_inv_deriv(t, th, (i, j, l))

    def d1(theta):
        return example2.sigma_t_inv_deriv(t, theta, (i,))

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
    a = example2.sigma_t_inv_deriv(11, th, (2, 3))
    b = example2.sigma_t_inv_deriv(11, th, (3, 2))
    np.testing.assert_array_equal(a, b)


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


def test_singular_scale_detected_eagerly():
    layout = ParamLayout(names=("a", "g"), n_ar=1, n_ma=0, theta0=(0.5, 0.0))
    a = MatrixTimeFunction([[Param(0)]])
    g = MatrixTimeFunction([[Param(1)]])  # zero at theta0: singular for every t
    with pytest.raises(ConfigError, match="singular at t=1"):
        TdVarmaModel(1, [a], [], g, [[1.0]], layout, check_horizon=10)


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
    assert lay.n_scale == 2
    with pytest.raises(ConfigError):
        ParamLayout(names=("a",), n_ar=2, n_ma=0)


def test_parameter_free_scale_is_built_once_and_read_by_prefix(example1_sim, example2):
    th = np.array(example1_sim.layout.theta0)
    m = example1_sim.with_sigma(example1_sim.sigma)
    sig, chol = m.sigma_chol_all(30, th)
    assert not (sig.flags.writeable or chol.flags.writeable)
    np.testing.assert_array_equal(sig, example1_sim.sigma_t_all(30, th))
    np.testing.assert_array_equal(chol, np.linalg.cholesky(sig))
    again = m.sigma_chol_all(30, th + 0.3)
    assert np.shares_memory(again[0], sig) and np.shares_memory(again[1], chol)
    short = m.sigma_chol_all(12, th)
    assert np.shares_memory(short[0], sig) and short[0].shape == (12, 2, 2)
    longer = m.sigma_chol_all(45, th)
    np.testing.assert_array_equal(longer[0][:30], sig)
    np.testing.assert_array_equal(m.with_sigma(2.0 * np.eye(2)).sigma_chol_all(30, th)[0], 2.0 * sig)
    # a scale with parameters is rebuilt at every theta
    th2 = np.array(example2.layout.theta0)
    sig2 = example2.sigma_chol_all(30, th2)[0]
    assert sig2.flags.writeable
    assert not np.array_equal(sig2, example2.sigma_chol_all(30, th2 + 0.1)[0])
