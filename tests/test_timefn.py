import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_heads_match_entrywise, entrywise, kind_oracle
from tdvarma import examples
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
    _Form,
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
    tab = f._table
    assert tab.slopes is not None and tab.slots == (0, 1, 2)
    [(poly, expo)] = tab.terms
    assert expo == {} and list(poly) == [(), (0,), (1,), (2,)]
    assert all(coef.shape == (50, 2, 2) for coef in poly.values()) and tab.slopes.shape == (3, 50, 2, 2)
    assert_heads_match_entrywise(f, 80, theta, rtol=1e-15)
    assert f._table.shape[0] == 100  # rebuilt at twice the old length
    assert_heads_match_entrywise(f, 7, theta + 0.2, rtol=1e-15)
    assert f._table.shape[0] == 100  # a shorter n reads a prefix
    for order in (2, 3):  # affine in theta: higher derivatives vanish identically
        np.testing.assert_array_equal(f.deriv(np.arange(1, 9), theta, (2,) * order), np.zeros((8, 2, 2)))


_T = np.arange(1.0, 81.0)
NON_AFFINE = {
    "exp_sine": ExpSine(2, 2.0 * math.pi / 25.0, phase=math.pi),
    "product": Product(Sine(0, 0.3, 0.2), Param(1)),
    "sine_exp_sine": Product(Sine(0, 0.7), ExpSine(2, 0.25)),
    # constant, linear and quadratic monomials in one term, and an exponent term
    "mixed_product": Product(Sum(Constant(0.3), Param(0)), Sum(Param(1), ExpSine(2, 0.4))),
}
NON_AFFINE["sum"] = Sum(NON_AFFINE["sine_exp_sine"], Sum(NON_AFFINE["exp_sine"], NON_AFFINE["product"]))


@pytest.mark.parametrize("name", list(NON_AFFINE))
def test_non_affine_matrices_are_tabled(name):
    entry = NON_AFFINE[name]
    f = MatrixTimeFunction([[entry, Sine(1, 0.5)], [Constant(-1.0), Product(entry, entry)]])
    theta = np.array([0.6, -0.4, 0.9])
    for n in (50, 80, 7):  # 80 rebuilds the table at 100; 7 reads a prefix of it
        assert_heads_match_entrywise(f, n, theta)
        assert f._table.shape[0] == (50 if n == 50 else 100) and f._table.slopes is None
        theta = theta - 0.3
    for tau in sorted_tuples(sorted(entry.param_slots()), 3):  # the entry against per-kind formulas
        want = kind_oracle(entry, _T, theta, tau)
        got = entry.deriv(_T, theta, tau) if tau else entry.value(_T, theta)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_exp_sine_derivatives_are_powers_of_minus_sine():
    c = 2.0 * math.pi / 25.0
    f = MatrixTimeFunction([[ExpSine(0, c, phase=math.pi), Constant(1.0)], [Constant(-1.0), ExpSine(1, c)]])
    theta = np.array([1.0, -1.0])
    u = np.sin(c * _T[:30] + math.pi)
    got = f.deriv_map(_T[:30], theta, [(), (0,), (0, 0), (0, 0, 0), (0, 1)])
    for tau, d in got.items():
        np.testing.assert_allclose(d[:, 0, 0], (-u) ** len(tau) * np.exp(-u) if 1 not in tau else 0.0, rtol=1e-15)
    np.testing.assert_array_equal(got[()][:, 0, 1], np.ones(30))
    np.testing.assert_array_equal(got[(0,)][:, 0, 1], np.zeros(30))


_LEAVES = st.one_of(
    st.builds(Constant, st.floats(-2, 2)),
    st.builds(ExpTrend, st.floats(-0.05, 0.05)),
    st.builds(Param, st.integers(0, 2)),
    st.builds(LinearTrend, st.integers(0, 2)),
    st.builds(Sine, st.integers(0, 2), st.floats(0.05, 2.0), st.floats(0.0, 6.3)),
    st.builds(ExpSine, st.integers(0, 2), st.floats(0.05, 2.0), st.floats(0.0, 6.3)),
)
_DEPTH1 = st.one_of(_LEAVES, st.builds(Sum, _LEAVES, _LEAVES), st.builds(Product, _LEAVES, _LEAVES))
_DEPTH2 = st.one_of(_DEPTH1, st.builds(Sum, _DEPTH1, _DEPTH1), st.builds(Product, _DEPTH1, _DEPTH1))


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(_DEPTH2, min_size=4, max_size=4),
    theta=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_random_compositions_table_matches_entrywise_and_kind_formulas(entries, theta):
    f = MatrixTimeFunction([entries[:2], entries[2:]])
    theta = np.array(theta)
    for n in (50, 80, 7):
        assert_heads_match_entrywise(f, n, theta)
    for entry in entries:
        for tau in sorted_tuples(sorted(entry.param_slots()), 3):
            want = kind_oracle(entry, _T, theta, tau)
            got = entry.deriv(_T, theta, tau) if tau else entry.value(_T, theta)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-12 * (1.0 + np.abs(want).max()))


_SLOT = st.integers(0, 2)
_OMEGA, _PHASE = st.floats(0.05, 2.0), st.floats(0.0, 6.3)
_EXP_SINE = st.builds(ExpSine, _SLOT, _OMEGA, _PHASE)
_WITH_EXPONENT = st.one_of(
    _EXP_SINE,
    st.builds(Product, _EXP_SINE, st.builds(Sine, _SLOT, _OMEGA, _PHASE)),
    st.builds(Sum, st.builds(Param, _SLOT), _EXP_SINE),
)


@settings(max_examples=60, deadline=None)
@given(
    r=st.sampled_from([1, 2, 3]),
    data=st.data(),
    lag=st.integers(1, 3),
    n=st.sampled_from([2, 7, 50]),
    theta=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_applied_form_matches_deriv_map_rows_times_the_stack(r, data, lag, n, theta, seed):
    # every kind, exponent terms among them, applied to a lagged stack y: the form's
    # value and derivatives up to order 3 against deriv_map's rows times y_t
    entries = data.draw(st.lists(st.one_of(_DEPTH2, _WITH_EXPONENT), min_size=r * r, max_size=r * r))
    f = MatrixTimeFunction([entries[i * r:(i + 1) * r] for i in range(r)])
    theta = np.array(theta)
    x = np.random.default_rng(seed).standard_normal((n, r))
    y = np.zeros_like(x)
    y[lag:] = x[:n - lag]
    applied = f.applied_to(y)
    taus = sorted_tuples(sorted(f.param_slots()), 3)
    want = f.deriv_map(range(1, n + 1), theta, taus)
    got = applied.derivs(theta, taus)
    assert list(got) == taus
    for tau in taus:
        ref = (want[tau] @ y[:, :, None])[..., 0]
        assert got[tau].shape == (n, r) and got[tau].flags.writeable
        # relative to the largest entry; below the smallest normal float, to that
        scale = max(np.max(np.abs(ref)), np.finfo(float).tiny)
        assert np.max(np.abs(got[tau] - ref)) <= 1e-13 * scale, tau


def test_slot_free_entry_is_constant_in_the_table():
    grow = ExpTrend(0.01)
    assert grow.terms(_T[:30])[0][1] == {}  # no exponent in theta
    np.testing.assert_array_equal(grow.terms(_T[:30])[0][0][()], np.exp(0.01 * _T[:30]))
    f = MatrixTimeFunction([[grow, Sine(0, 0.3)], [Product(Constant(2.0), ExpTrend(-0.1)), Constant(0.5)]])
    theta = np.array([0.7])
    assert_heads_match_entrywise(f, 30, theta)
    tab = f._table
    assert tab.slopes is not None and tab.slots == (0,)
    poly = tab.terms[0][0]
    np.testing.assert_array_equal(poly[()][:, 0, 0], np.exp(0.01 * _T[:30]))
    np.testing.assert_array_equal(poly[(0,)][:, 0, 0], np.zeros(30))


_AT_ANY_TIMES = {
    "example2_g": (examples.example2_model().g_func, (0.8, -0.9, 1.0, -1.0)),
    "example1_sim_a": (examples.example1_sim_model().a_funcs[0], (0.8, 0.5, -0.9)),
    "product_sum_exp_trend": (
        MatrixTimeFunction(
            [
                [Product(Sine(0, 0.3, 0.2), Param(1)), Sum(ExpTrend(0.01), LinearTrend(2))],
                [Sum(ExpSine(1, 0.2), Sine(2, 0.7, 0.3)), Product(ExpSine(0, 0.5), ExpSine(2, 0.1))],
            ]
        ),
        (0.7, -0.4, 0.9),
    ),
}


@pytest.mark.parametrize("name", list(_AT_ANY_TIMES))
@pytest.mark.parametrize("t", [7, 3.5, np.array([2.0, 5.0, 11.0]), np.arange(2.0, 300.0)], ids=["int", "float", "array", "long"])
def test_matrix_at_any_times_matches_its_entries(name, t):
    # value, deriv and deriv_map gather rows of the table at integer times, past
    # its end too; each entry of the result equals the entry's own scalar
    # evaluation.  A time that is not an integer is refused.
    f, theta = _AT_ANY_TIMES[name]
    theta = np.array(theta)
    taus = sorted_tuples(range(theta.size), 3)
    if np.any(np.asarray(t) % 1):
        for call in (f.value, lambda t, th: f.deriv(t, th, taus[1]), lambda t, th: f.deriv_map(t, th, taus)):
            with pytest.raises(ContractError, match="integer"):
                call(t, theta)
        return
    got = f.deriv_map(t, theta, taus)
    assert list(got) == [tau for tau in taus if set(tau) <= f.param_slots()]
    for tau in taus:
        want = entrywise(f, t, theta, tau)
        np.testing.assert_array_equal(f.deriv(t, theta, tau) if tau else f.value(t, theta), want, err_msg=str(tau))
        if tau in got:
            np.testing.assert_array_equal(got[tau], want, err_msg=str(tau))
    with pytest.raises(ContractError):
        f.value(np.asarray(t) - 10.0, theta)
    last = (max(f.param_slots()),)
    for call in (f.value, lambda t, th: f.deriv(t, th, last), lambda t, th: f.deriv_map(t, th, [(), last])):
        with pytest.raises(ConfigError):
            call(t, theta[: last[0]])


@pytest.mark.parametrize("path", ["table", "generic"])
def test_short_theta_raises_on_both_paths(path):
    # the table read as a slice at t = 1..n, and as a gather at other times
    f = MatrixTimeFunction([[ExpSine(2, 0.3), Sine(2, 0.3)], [Param(0), Constant(1.0)]])
    ts = range(1, 11) if path == "table" else np.arange(3, 13)
    f.deriv_map(ts, np.zeros(3), [(), (2,)])
    with pytest.raises(ConfigError):
        f.deriv_map(ts, np.zeros(2), [(), (2,)])
    if path == "table":
        for call in (lambda n, th: f.value(range(1, n + 1), th), f.head_grad):
            with pytest.raises(ConfigError):
                call(10, np.zeros(2))
    else:
        with pytest.raises(ConfigError):
            f.value(ts, np.zeros(2))
    # a tuple of slots the matrix or entry does not use still checks theta
    for call in (lambda: f.deriv(ts, np.zeros(2), (1,)), lambda: f.entries[0][0].deriv(ts, np.zeros(2), (0,))):
        with pytest.raises(ConfigError):
            call()


def test_every_evaluation_reads_rows_of_the_one_table(monkeypatch):
    # once the table covers t = 1..50, value, deriv and deriv_map at integer times
    # within it (a range, a scalar or an array) pack nothing; a later time packs once
    entry = Product(Sine(0, 0.3, 0.2), Param(1))
    f = MatrixTimeFunction([[entry, ExpSine(1, 0.2)], [Constant(1.0), LinearTrend(2)]])
    theta = np.array([0.7, -0.4, 0.9])
    f.head_grad(50, theta)
    entry.value(range(1, 51), theta)
    packs = []
    pack = _Form.pack.__func__
    monkeypatch.setattr(_Form, "pack", classmethod(lambda cls, *args: packs.append(args) or pack(cls, *args)))
    for t in (7, range(1, 51), range(3, 40, 4), np.array([50, 2, 2, 9]), [1.0, 50.0]):
        f.value(t, theta)
        f.deriv(t, theta, (0, 1))
        f.deriv_map(t, theta, sorted_tuples(range(3), 3))
        f.head_grad(30, theta)
        entry.value(t, theta)
        entry.deriv(t, theta, (0, 1))
    assert packs == []
    f.deriv_map(np.array([3, 51]), theta, [()])
    assert len(packs) == 1 and f._table.shape[0] == 100
    entry.deriv(120, theta, (1,))
    assert len(packs) == 2


def test_table_is_read_only_and_values_are_fresh():
    f = MatrixTimeFunction([[Sine(0, 0.3), Param(1)], [Constant(0.0), Sine(1, 0.2)]])
    theta = np.array([0.5, -0.5])
    first = f.value(range(1, 21), theta)
    first[:] = 99.0
    np.testing.assert_array_equal(f.value(range(1, 21), theta), f.value(np.arange(1, 21), theta))
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


def test_joint_keeps_the_tuples_one_entry_uses():
    # a mixed derivative over slots that no one entry uses together vanishes
    m = MatrixTimeFunction([[ExpSine(2, 0.3), Constant(1.0)], [Product(Param(0), Sine(1, 0.2)), ExpSine(3, 0.3)]])
    pairs = sorted_tuples(range(4), 2)[5:]
    assert m.joint(pairs) == [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3)]
    assert m.joint([(), (0, 1, 1), (0, 2, 3)]) == [(), (0, 1, 1)]
    theta = np.array([0.4, -0.3, 0.7, 0.2])
    found = m.deriv_map(range(1, 9), theta, pairs)
    assert found[(0, 1)].any() and found[(2, 2)].any()
    for tau, d in found.items():
        assert tau in m.joint(pairs) or not d.any(), tau
