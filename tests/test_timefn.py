import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_heads_match_entrywise
from tdvarma.errors import ConfigError, ContractError
from tdvarma.timefn import (
    Constant,
    ExpSine,
    ExpTrend,
    LinearTrend,
    MatrixTimeFunction,
    Param,
    Product,
    Sine,
    Sum,
    scalar_from_config,
    sorted_tuples,
)

FREQ_A = 2.0 * math.pi / math.sqrt(2499.0)


def _nested(f, theta, idx, steps):
    """Central finite differences for an arbitrary-order mixed partial."""
    if not idx:
        return f(theta)
    h = steps[0]
    tp = theta.copy()
    tm = theta.copy()
    tp[idx[0]] += h
    tm[idx[0]] -= h
    return (_nested(f, tp, idx[1:], steps[1:]) - _nested(f, tm, idx[1:], steps[1:])) / (2 * h)


def test_constant_identity_any_t():
    m = MatrixTimeFunction.identity(2)
    for t in (1, 7, 1000):
        np.testing.assert_array_equal(m.value(t, np.zeros(3)), np.eye(2))


def test_example1_entry_value():
    # amplitude 0.8 at t=1 with the irrational base frequency
    f = Sine(0, FREQ_A)
    got = f.value(1, np.array([0.8]))
    assert got == pytest.approx(0.8 * math.sin(FREQ_A), abs=1e-15)


def test_exp_sine_full_period_is_one():
    f = ExpSine(0, 2.0 * math.pi / 25.0)
    assert f.value(25, np.array([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_sine_amplitude_derivative_exact():
    mat = MatrixTimeFunction([[Sine(0, FREQ_A), Constant(0.0)], [Constant(0.0), Constant(0.0)]])
    theta = np.array([0.8])
    for t in (1, 17, 900):
        d = mat.deriv(t, theta, (0,))
        np.testing.assert_allclose(d, [[math.sin(FREQ_A * t), 0.0], [0.0, 0.0]], atol=1e-16)
    # linear in the amplitude: second own-derivative vanishes identically
    np.testing.assert_array_equal(mat.deriv(5, theta, (0, 0)), np.zeros((2, 2)))


def test_exp_sine_derivative_against_fd():
    c = 2.0 * math.pi / 25.0
    f = ExpSine(0, c)
    theta = np.array([1.0])
    for t in (3, 12, 33):
        exact = f.deriv(t, theta, (0,))
        expected = -math.sin(c * t) * math.exp(-1.0 * math.sin(c * t))
        assert exact == pytest.approx(expected, rel=1e-14)
        fd = _nested(lambda th: f.value(t, th), theta, (0,), [1e-6])
        assert exact == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize(
    "fn,theta",
    [
        (Param(0), np.array([0.7])),
        (LinearTrend(0), np.array([0.3])),
        (Sine(0, 0.7, 0.2), np.array([0.5])),
        (ExpSine(0, 0.25), np.array([0.8])),
        (ExpSine(1, 0.25, phase=math.pi), np.array([0.0, -0.6])),
        (Sum(Sine(0, 0.3), Param(1)), np.array([0.4, 0.2])),
        (Product(Sine(0, 0.3), ExpSine(1, 0.5)), np.array([0.4, 0.9])),
        (Product(Param(0), Param(1)), np.array([1.3, -0.7])),
    ],
)
def test_all_orders_match_finite_differences(fn, theta):
    steps = {1: 1e-5, 2: 1e-4, 3: 1e-3}
    slots = sorted(fn.param_slots())
    for t in (1, 9, 250, 1000):
        for order in (1, 2, 3):
            for tau in sorted_tuples(slots, order):
                if len(tau) != order:
                    continue
                exact = float(fn.deriv(t, theta, tau))
                fd = float(
                    _nested(lambda th: fn.value(t, th), theta, tau, [steps[order]] * order)
                )
                if abs(exact) > 1e-8:
                    assert exact == pytest.approx(fd, rel=1e-5), (fn, t, tau)
                else:
                    # the analytic value is (near) zero; the FD is roundoff noise
                    assert abs(fd) < 1e-4, (fn, t, tau)


def test_derivatives_commute_exactly():
    fn = Product(Sine(0, 0.3), ExpSine(1, 0.5))
    theta = np.array([0.4, 0.9])
    a = fn.deriv(13, theta, (0, 1))
    b = fn.deriv(13, theta, (1, 0))
    np.testing.assert_array_equal(a, b)


def test_foreign_slot_derivative_is_exact_zero():
    fn = Sine(0, 0.4)
    assert float(fn.deriv(5, np.array([0.3, 0.8]), (1,))) == 0.0
    mat = MatrixTimeFunction([[fn]])
    np.testing.assert_array_equal(mat.deriv(5, np.array([0.3, 0.8]), (1, 1)), np.zeros((1, 1)))


def test_order_above_three_rejected():
    fn = ExpSine(0, 0.4)
    with pytest.raises(ContractError):
        fn.deriv(3, np.array([1.0]), (0, 0, 0, 0))


def test_out_of_range_slot_rejected():
    with pytest.raises(ConfigError):
        Sine(3, 0.4).value(2, np.array([1.0]))


def test_time_must_be_positive():
    with pytest.raises(ContractError):
        Sine(0, 0.4).value(0, np.array([1.0]))


def test_config_round_trip():
    fns = [
        Constant(2.5),
        Param(1),
        LinearTrend(0),
        Sine(2, 0.7, 0.1),
        ExpSine(0, 0.3),
        ExpSine(0, 0.3, phase=math.pi),
        ExpTrend(0.01),
        Sum(Param(0), Constant(1.0)),
        Product(Sine(0, 0.2), Param(1)),
    ]
    for fn in fns:
        clone = scalar_from_config(fn.to_config())
        assert clone == fn
        theta = np.arange(1.0, 4.0)
        np.testing.assert_array_equal(clone.value(7, theta), fn.value(7, theta))


@settings(max_examples=50, deadline=None)
@given(
    amp=st.floats(-2, 2, allow_nan=False),
    omega=st.floats(0.01, 3.0),
    t=st.integers(1, 1000),
)
def test_sine_amplitude_derivative_property(amp, omega, t):
    fn = Sine(0, omega)
    theta = np.array([amp])
    assert float(fn.deriv(t, theta, (0,))) == pytest.approx(math.sin(omega * t), abs=1e-15)


def test_vectorized_matches_scalar_eval():
    fn = ExpSine(0, 0.37)
    theta = np.array([0.5])
    ts = np.arange(1, 40)
    vec = fn.value(ts, theta)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(float(fn.value(int(t), theta)), abs=0)


def test_affine_table_matches_entrywise_path_and_grows():
    f = MatrixTimeFunction(
        [
            [Sine(0, 0.3, 0.1), Sum(Constant(0.25), Sum(Sine(1, 0.7), Param(2)))],
            [LinearTrend(1), Sum(Sine(2, 0.2), Sine(2, 1.1))],
        ]
    )
    theta = np.array([0.4, -0.03, 0.8])
    assert_heads_match_entrywise(f, 50, theta, rtol=1e-15)
    slots, c, big_f = f._table
    assert slots == (0, 1, 2) and c.shape == (50, 2, 2) and big_f.shape == (3, 50, 2, 2)
    assert_heads_match_entrywise(f, 80, theta, rtol=1e-15)
    assert f._table[1].shape[0] == 100  # rebuilt at twice the old length
    assert_heads_match_entrywise(f, 7, theta + 0.2, rtol=1e-15)
    assert f._table[1].shape[0] == 100  # a shorter n reads a prefix
    for order in (2, 3):  # affine in theta: higher derivatives vanish identically
        np.testing.assert_array_equal(f.deriv(np.arange(1, 9), theta, (2,) * order), np.zeros((8, 2, 2)))


@pytest.mark.parametrize(
    "entry",
    [ExpSine(0, 0.25, phase=math.pi), Product(Sine(0, 0.3), Param(1))],
    ids=["exp_sine", "product"],
)
def test_non_affine_matrices_take_the_generic_path(entry):
    assert entry.parts(np.arange(1.0, 5.0)) is None
    f = MatrixTimeFunction([[entry, Sine(1, 0.5)], [Constant(0.0), Param(1)]])
    theta = np.array([0.6, -0.4])
    assert_heads_match_entrywise(f, 40, theta)
    assert f._table is False


def test_slot_free_entry_is_constant_in_the_table():
    grow = ExpTrend(0.01)
    c, coefs = grow.parts(np.arange(1.0, 31.0))
    np.testing.assert_array_equal(c, np.exp(0.01 * np.arange(1.0, 31.0)))
    assert coefs == {}
    f = MatrixTimeFunction([[grow, Sine(0, 0.3)], [Product(Constant(2.0), ExpTrend(-0.1)), Constant(0.5)]])
    theta = np.array([0.7])
    assert_heads_match_entrywise(f, 30, theta)
    slots, tab_c, tab_f = f._table
    assert slots == (0,)
    np.testing.assert_array_equal(tab_c[:, 0, 0], c)
    np.testing.assert_array_equal(tab_f[0, :, 0, 0], np.zeros(30))


@pytest.mark.parametrize(
    "entry", [Sine(2, 0.3), ExpSine(2, 0.3)], ids=["table", "generic"]
)
def test_short_theta_raises_on_both_paths(entry):
    f = MatrixTimeFunction([[entry, Constant(0.0)], [Param(0), Constant(1.0)]])
    f.head(10, np.zeros(3))
    with pytest.raises(ConfigError):
        f.head(10, np.zeros(2))
    with pytest.raises(ConfigError):
        f.head_grad(10, np.zeros(2))


def test_table_is_read_only_and_values_are_fresh():
    f = MatrixTimeFunction([[Sine(0, 0.3), Param(1)], [Constant(0.0), Sine(1, 0.2)]])
    theta = np.array([0.5, -0.5])
    first = f.head(20, theta)
    first[:] = 99.0
    np.testing.assert_array_equal(f.head(20, theta), f.value(np.arange(1, 21), theta))
    _, grad = f.head_grad(20, theta)
    with pytest.raises(ValueError):
        grad[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize(
    "rec",
    [
        {"kind": "sine", "constants": {}, "param_slots": [0]},
        {"kind": "sine", "constants": {"omega": 0.3, "period": 7.0}, "param_slots": [0]},
        {"kind": "param", "constants": {}, "param_slots": []},
        {"kind": "param", "constants": {}, "param_slots": [0, 1]},
        {"kind": "const", "constants": {"rate": 1.0}, "param_slots": []},
        {"kind": "sum", "terms": [{"kind": "param", "param_slots": [0]}]},
        {"kind": "cosine", "constants": {"omega": 0.3}, "param_slots": [0]},
    ],
    ids=["missing_constant", "unknown_constant", "missing_slot", "extra_slot", "wrong_constant", "one_term", "unknown_kind"],
)
def test_malformed_records_rejected(rec):
    with pytest.raises(ConfigError):
        scalar_from_config(rec)
