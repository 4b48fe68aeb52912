import importlib
import itertools
import warnings

import numpy as np
import pytest

from conftest import lag_solve_loop, make_sin_varma11
from tdvarma import examples
from tdvarma.errors import ConfigError, ContractError
from tdvarma.likelihood import residuals
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.simulate import SimPlan, innovation_correlation, make_rng, simulate
from tdvarma.timefn import Constant, MatrixTimeFunction, Param

simulate_module = importlib.import_module("tdvarma.simulate")  # the package's `simulate` is the function


def _zero_model():
    layout = ParamLayout(names=("s",), n_ar=0, n_ma=0, theta0=(1.0,))
    g = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    return TdVarmaModel(2, [], [], g, np.eye(2), layout)


def test_zero_model_returns_raw_draws():
    m = _zero_model()
    series = simulate(SimPlan(m, (1.0,), 50, 77))
    # identical to drawing from the keyed generator directly
    direct = make_rng(77, 0).standard_normal((50, 2)) @ np.linalg.cholesky(np.eye(2)).T
    np.testing.assert_array_equal(series.values, direct)


def test_bit_for_bit_determinism():
    m = examples.example1_sim_model()
    s1 = simulate(SimPlan(m, m.layout.theta0, 64, 123, 5))
    s2 = simulate(SimPlan(m, m.layout.theta0, 64, 123, 5))
    np.testing.assert_array_equal(s1.values, s2.values)
    s3 = simulate(SimPlan(m, m.layout.theta0, 64, 124, 5))
    assert s3.values[0, 0] != s1.values[0, 0]


def test_prefix_invariance_under_longer_horizon():
    m = examples.example1_sim_model()
    s1 = simulate(SimPlan(m, m.layout.theta0, 40, 9))
    s2 = simulate(SimPlan(m, m.layout.theta0, 50, 9))
    np.testing.assert_array_equal(s2.values[:40], s1.values)
    # and again from the memo, warm at each length in turn
    for n in (50, 40):
        np.testing.assert_array_equal(simulate(SimPlan(m, m.layout.theta0, n, 9)).values[:40], s1.values)


def test_no_explosion_long_horizon():
    m = examples.example1_sim_model()
    series = simulate(SimPlan(m, m.layout.theta0, 100_000, 31))
    var1 = float(np.var(series.values[:, 0]))
    assert np.all(np.isfinite(series.values))
    # squared amplitudes bounded by 0.81 < 1: variance stays of modest size
    assert 0.1 < var1 < 50.0


def test_residuals_at_truth_recover_scaled_innovations(rng):
    m = make_sin_varma11(rng)
    th0 = np.array(m.layout.theta0)
    series = simulate(SimPlan(m, m.layout.theta0, 80, 4))
    eps = make_rng(4, 0).standard_normal((80, m.r)) @ m.sigma_chol.T
    res = residuals(m, series, th0)
    g_all = m.g_values(np.arange(1, 81), th0)
    scaled = np.einsum("trs,ts->tr", g_all, eps)
    np.testing.assert_allclose(res.e, scaled, atol=1e-10)


def test_innovation_correlation_sweep(example2):
    th0 = np.array(example2.layout.theta0)
    vals = [innovation_correlation(example2, th0, t) for t in range(1, 201)]
    assert max(vals) == pytest.approx(0.8, abs=0.02)
    assert min(vals) == pytest.approx(-0.8, abs=0.02)


def test_innovation_correlation_trivials():
    m = _zero_model()
    assert innovation_correlation(m, (1.0,), 7) == 0.0
    layout = ParamLayout(names=("s",), n_ar=0, n_ma=0, theta0=(1.0,))
    g = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m2 = TdVarmaModel(2, [], [], g, [[1.0, 0.5], [0.5, 1.0]], layout)
    assert innovation_correlation(m2, (1.0,), 3) == pytest.approx(0.5, abs=1e-15)
    lay1 = ParamLayout(names=("a",), n_ar=1, n_ma=0, theta0=(0.2,))
    m1 = TdVarmaModel(1, [MatrixTimeFunction([[Param(0)]])], [], None, [[1.0]], lay1)
    with pytest.raises(ContractError):
        innovation_correlation(m1, (0.2,), 1)


def test_descaled_residual_covariance_matches_noise_cov(example2):
    th0 = np.array(example2.layout.theta0)
    n = 100_000
    series = simulate(SimPlan(example2, example2.layout.theta0, n, 17))
    res = residuals(example2, series, th0)
    g_all = example2.g_values(np.arange(1, n + 1), th0)
    z = np.linalg.solve(g_all, res.e[..., None])[..., 0]
    emp = z.T @ z / n
    # entries are averages of products with O(1) variance: 3 mc standard errors
    se = 3.0 / np.sqrt(n)
    assert np.max(np.abs(emp - example2.sigma)) < 3 * se * 2.0


def test_plan_without_true_value_rejected():
    with pytest.raises(ConfigError, match="theta0"):
        SimPlan(examples.example1_sim_model(), None, 10, 1)


@pytest.mark.parametrize("key", ["seed", "stream"])
def test_seeds_and_streams_outside_64_bits_rejected(key):
    # masked to 64 bits, -1, 2**64 - 1 and 2**65 - 1 once drew the same series
    m = examples.example1_sim_model()
    plan = dict(seed=5, stream=0)
    for bad in (-1, 1 << 64):
        with pytest.raises(ConfigError, match=f"{key} {bad} "):
            SimPlan(m, m.layout.theta0, 3, **{**plan, key: bad})
    low, high = (simulate(SimPlan(m, m.layout.theta0, 3, **{**plan, key: v})).values for v in (0, (1 << 64) - 1))
    assert not np.array_equal(low, high)


# -- the memo of the last (model, theta0, n) simulated -------------------------


def _cold(plan):
    """The plan's series with the memo emptied first, so its operator is built anew."""
    simulate_module._memo[:] = [None] * 3
    return simulate(plan).values


@pytest.mark.parametrize("build", [
    examples.example1_sim_model, examples.example1_theory_model, examples.example2_model,
    lambda: make_sin_varma11(np.random.default_rng(909)),
], ids=["example1_sim", "example1_theory", "example2", "sin_varma11"])
def test_warm_memo_gives_the_cold_series(build):
    m = build()
    plans = [SimPlan(m, m.layout.theta0, 60, 5, stream) for stream in range(4)]
    cold = [_cold(plan) for plan in plans]
    simulate(plans[0])
    operator = simulate_module._memo[2]
    for plan, ref in zip(plans, cold):
        np.testing.assert_array_equal(simulate(plan).values, ref)
    assert simulate_module._memo[2] is operator  # one build served every stream


def test_interleaved_plans_each_get_their_own_operator():
    # a stale operator, keyed on too little, would hand one plan another's g_t or A_t:
    # every plan is simulated right after every other, so each pair differs in one part
    # of the key at least, and some in only one
    plans = [
        SimPlan(m, theta0, n, 3, 1)
        for m in (examples.example1_sim_model(), examples.example1_sim_model(freq_a=0.3))
        for theta0 in (m.layout.theta0, np.array(m.layout.theta0) * 0.5)
        for n in (30, 45)
    ]
    cold = [_cold(plan) for plan in plans]
    assert len({ref.tobytes() for ref in cold}) == len(plans)
    for i, j in itertools.permutations(range(len(plans)), 2):
        simulate(plans[i])
        np.testing.assert_array_equal(simulate(plans[j]).values, cold[j])


def test_with_sigma_copy_after_its_parent_matches_a_fresh_model():
    sigma = ((2.0, -0.3), (-0.3, 0.5))
    parent = examples.example2_model()
    simulate(SimPlan(parent, parent.layout.theta0, 50, 8))
    # a model at another Sigma on the same coefficient functions, which keep their tables
    copy = TdVarmaModel(parent.r, parent.a_funcs, parent.b_funcs, parent.g_func, sigma, parent.layout)
    got = simulate(SimPlan(copy, copy.layout.theta0, 50, 8)).values
    fresh = examples.example2_model(sigma=sigma)
    np.testing.assert_array_equal(got, _cold(SimPlan(fresh, fresh.layout.theta0, 50, 8)))


def test_overflowing_series_raises_one_config_error_naming_its_first_t():
    m = examples.example1_sim_model()
    theta0, n = np.array([3.0, 0.5, -3.0]), 3000
    eps = make_rng(1, 0).standard_normal((n, 2)) @ m.sigma_chol.T
    ts = range(1, n + 1)
    with np.errstate(all="ignore"):
        ref = lag_solve_loop(-m.a_values(ts, theta0), np.einsum("trs,ts->tr", m.g_values(ts, theta0), eps))
    first = int(np.argmin(np.isfinite(ref).all(axis=1))) + 1
    assert 1 < first < n
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning escapes the solve
        with pytest.raises(ConfigError, match=rf"not finite at t = {first}$"):
            simulate(SimPlan(m, theta0, n, 1))
