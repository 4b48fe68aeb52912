import importlib.util
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import make_random_varma22, make_sin_varma11
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import norm_table, second_family_inner

from tdvarma import assumptions, examples
from tdvarma.assumptions import (
    _tail_sums,
    check_cross_sums,
    check_information,
    check_moment_bounds,
    check_psi_decay,
    check_sigma_bounds,
    commutation_matrix,
    fourth_cumulant_residual,
    gaussian_kappa,
    gaussian_quad_norm_moment,
    run_all,
    vec,
)
from tdvarma.asymptotics import _block_steps, _information_pass, _state_system, theoretical_v
from tdvarma.errors import ContractError
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.representations import _resid_rows
from tdvarma.simulate import make_rng
from tdvarma.timefn import Constant, ExpSine, ExpTrend, MatrixTimeFunction, Param, Sine


def _explosive_model(rho=1.5):
    layout = ParamLayout(names=("a1", "a2"), n_ar=2, n_ma=0, theta0=(rho, rho))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(1)]])
    return TdVarmaModel(2, [a], [], None, np.eye(2), layout)


def _ar1(a, g=None):
    """Univariate x_t = a x_{t-1} + g_t eps_t with the coefficient a free."""
    layout = ParamLayout(names=("a",), n_ar=1, n_ma=0, theta0=(a,))
    return TdVarmaModel(1, [MatrixTimeFunction([[Param(0)]])], [], g, [[1.0]], layout)


# -- moment utilities ----------------------------------------------------------


def test_commutation_matrix_2x2_explicit():
    k = commutation_matrix(2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1.0
    expected[1, 2] = expected[2, 1] = 1.0
    np.testing.assert_array_equal(k, expected)


def test_commutation_transposes_vec(rng):
    for r in (2, 3, 4):
        k = commutation_matrix(r)
        a = rng.standard_normal((r, r))
        np.testing.assert_allclose(k @ vec(a.T), vec(a), atol=1e-15)


def test_gaussian_quadratic_moment_identity():
    # for standard bivariate noise E[(e'e)^2] = r^2 + 2r = 8
    assert gaussian_quad_norm_moment(np.eye(2), power=2) == pytest.approx(8.0)


def test_gaussian_eighth_moment_against_monte_carlo():
    sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
    rng = make_rng(2024, 99)
    draws = rng.standard_normal((1_000_000, 2)) @ np.linalg.cholesky(sigma).T
    q = np.einsum("ij,ij->i", draws, draws)
    for power in (1, 2, 3, 4):
        assert gaussian_quad_norm_moment(sigma, power) == pytest.approx(float(np.mean(q**power)), rel=0.02)
    for power in (0, 5):
        with pytest.raises(ContractError, match="between 1 and 4"):
            gaussian_quad_norm_moment(sigma, power)


@settings(max_examples=25, deadline=None)
@given(
    r=st.sampled_from([2, 3]),
    seed=st.integers(0, 10_000),
)
def test_fourth_cumulant_residual_vanishes_for_gaussian(r, seed):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((r, r))
    sigma = root @ root.T + 0.5 * np.eye(r)
    xi = fourth_cumulant_residual(sigma)
    assert np.max(np.abs(xi)) < 1e-12 * max(1.0, np.max(np.abs(gaussian_kappa(sigma))))


def test_moment_bounds_check_passes_for_gaussian(example2):
    res = check_moment_bounds(example2.sigma)
    assert res.verdict == "pass"
    assert res.constants["moment_3rd_norm"] == 0.0
    assert res.constants["fourth_cumulant_residual_norm"] < 1e-12
    assert math.isfinite(res.constants["moment_8th"])


# -- decay audit ----------------------------------------------------------------


def test_decay_passes_for_example1_with_amplitude_bound(example1_sim):
    res = check_psi_decay(example1_sim, np.array(example1_sim.layout.theta0), n_probe=250)
    assert res.verdict == "pass"
    assert res.constants["decay_base"] <= 0.81 + 0.02


def test_decay_fails_for_explosive_model():
    res = check_psi_decay(_explosive_model(), (1.5, 1.5), n_probe=80)
    assert res.verdict == "fail"


def test_decay_of_an_overflowing_model_fails_without_a_decay_base():
    # every tail sum overflows; a decay_base of 0.0 would read as "decays at once"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = check_psi_decay(_ar1(1e10), (1e10,), n_probe=80)
    assert res.verdict == "fail" and res.details["unbounded_sq_(0,)"]
    assert "decay_base" not in res.constants


def test_cross_sums_of_an_overflowing_model_fail():
    # n * value is not finite in both families; the ratios keep it, not 0.0
    m = _ar1(1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = check_cross_sums(m, (1e10,))
        shared = run_all(m, n_probe=80).checks["cross_sums"]
    for res in (alone, shared):
        assert res.verdict == "fail"
        ratios = res.details["ratios"]
        assert math.isnan(ratios["first_n50"]) and math.isinf(ratios["second_n300"])


def test_decay_of_weights_that_vanish_after_one_lag():
    # at a = 0 the only weight is at lag 1, so fewer than two tail sums are positive
    res = check_psi_decay(_ar1(0.0), (0.0,), n_probe=80)
    assert res.verdict == "pass" and res.constants["decay_base"] == 0.0
    assert res.details["k_cutoff"] == 1


def test_decay_is_inconclusive_without_weights():
    # p = q = 0: the residuals depend on no AR or MA slot, so there is no weight to fit
    layout = ParamLayout(names=("s",), n_ar=0, n_ma=0, theta0=(0.5,))
    m = TdVarmaModel(1, [], [], MatrixTimeFunction([[ExpSine(0, 0.3)]]), [[1.0]], layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = check_psi_decay(m, (0.5,), n_probe=50)
    assert res.verdict == "inconclusive" and res.details["max_k_nonzero"] == 0
    assert "decay_base" not in res.constants


def test_integer_period_weights_vanish_beyond_cutoff():
    m = examples.example1_sim_model(freq_a=2 * math.pi / 25, freq_b=2 * math.pi / 25)
    th0 = np.array(m.layout.theta0)
    _, norms = norm_table(m, th0, 200, 1)
    assert float(norms[:, :, 52:].max()) < 1e-14  # zero-padded past each row's last lag
    res = check_psi_decay(m, th0, n_probe=200)
    assert res.verdict == "pass"
    assert res.details["k_cutoff"] <= 51


# -- boundedness audit -----------------------------------------------------------


def test_sigma_bounds_example2(example2):
    res = check_sigma_bounds(example2, np.array(example2.layout.theta0), n_probe=300)
    assert res.verdict == "pass"
    # scale norm: 2 + e^{2 eta1 u} + e^{2 eta2 u} <= 2 + 2 e^2
    assert res.constants["scale_norm_bound"] <= 2.0 + 2.0 * math.e**2 + 1e-9


def test_sigma_bounds_example1_all_derivatives_zero(example1_sim):
    res = check_sigma_bounds(example1_sim, np.array(example1_sim.layout.theta0), n_probe=100)
    assert res.verdict == "pass"
    for key in ("cov_d1_bound", "cov_d2_bound", "covinv_d1_bound", "covinv_d2_bound", "covinv_d3_bound"):
        assert res.constants[key] == 0.0


def test_sigma_bounds_fail_for_growing_scale():
    layout = ParamLayout(names=("a",), n_ar=1, n_ma=0, theta0=(0.5,))
    g = MatrixTimeFunction([[ExpTrend(0.01), Constant(0.0)], [Constant(0.0), Constant(1.0)]])
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Constant(0.3)]])
    m = TdVarmaModel(2, [a], [], g, np.eye(2), layout)
    res = check_sigma_bounds(m, np.array([0.5]), n_probe=300)
    assert res.verdict == "fail"


def test_audits_record_a_covariance_that_overflows_past_the_probe():
    # Sigma_t = exp(t) is finite up to n_probe = 500 but overflows at t = 710, inside
    # the cross sums' horizon of 1200
    m = _ar1(0.5, MatrixTimeFunction([[ExpTrend(0.5)]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_all(m)
    bounds, cross = rep.checks["covariance_bounds"], rep.checks["cross_sums"]
    assert bounds.verdict == "fail" and bounds.details["growing_scale_norm_bound"]
    assert cross.verdict == "fail" and cross.details["singular_t"] == 710


def test_sigma_bounds_record_a_covariance_that_overflows_inside_the_probe():
    # Sigma_t = exp(4 t) overflows at t = 178; with no true value the model builds
    layout = ParamLayout(names=("a",), n_ar=1, n_ma=0)
    g = MatrixTimeFunction([[ExpTrend(2.0)]])
    m = TdVarmaModel(1, [MatrixTimeFunction([[Param(0)]])], [], g, [[1.0]], layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = check_sigma_bounds(m, (0.5,))
    assert res.verdict == "fail" and res.details["singular_t"] == 178


# -- information and cross sums ---------------------------------------------------


def test_information_audit_examples():
    for which in ("example1_sim", "example1_theory", "example2"):
        m = examples.build(which)
        res = check_information(m, np.array(m.layout.theta0), n_grid=(25, 50, 100))
        assert res.verdict == "pass"
        assert res.constants["min_eigenvalue"] > 0


@pytest.mark.parametrize("which", ["example1_sim", "example1_theory", "example2", "varma11"])
def test_information_audit_matches_per_n_reports(which):
    # one pass over the largest n gives each grid n exactly what its own call gives, at
    # block edges of the state covariance recursion too
    m = make_sin_varma11(np.random.default_rng(909)) if which == "varma11" else examples.build(which)
    th = np.array(m.layout.theta0)
    b = _block_steps(_state_system(m, th, 1)[0].shape[-1])
    grid = tuple(dict.fromkeys((50, 3, 25, 1, 2, b, b + 1, 2 * b, 2 * b + 1, 49)))
    res = check_information(m, th, n_grid=grid)
    assert list(res.details["min_eigs"]) == list(grid)
    reports = _information_pass(m, th, grid)
    for n in grid:
        own = theoretical_v(m, th, n)
        assert res.details["min_eigs"][n] == own.min_eigenvalue
        assert np.array_equal(reports[n].v, own.v), n


def test_cross_sums_bounded_for_example1(example1_sim):
    res = check_cross_sums(
        example1_sim,
        np.array(example1_sim.layout.theta0),
        n_grid=(50, 100, 200, 400),
        m_term_grid=(50, 100),
    )
    assert res.verdict == "pass"
    ratios = res.details["ratios"]
    firsts = [ratios[f"first_n{n}"] for n in (50, 100, 200, 400)]
    assert max(firsts) <= 1.2 * min(firsts)
    # the raw sums scale like 1/n: halving from n=100 to n=200
    v100 = ratios["first_n100"] / 100
    v200 = ratios["first_n200"] / 200
    assert v100 / v200 == pytest.approx(2.0, rel=0.15)


def test_cross_sums_second_family_scales(example1_sim):
    res = check_cross_sums(
        example1_sim,
        np.array(example1_sim.layout.theta0),
        n_grid=(50, 100),
        m_term_grid=(100, 200),
    )
    assert res.details["gaussian_fourth_cumulant_term_skipped"]
    v100 = res.details["ratios"]["second_n100"] / 100
    v200 = res.details["ratios"]["second_n200"] / 200
    assert v100 / v200 == pytest.approx(2.0, rel=0.2)


def test_cross_sums_zero_model_exactly_zero():
    layout = ParamLayout(names=("s",), n_ar=0, n_ma=0, theta0=(1.0,))
    g = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [], [], g, np.eye(2), layout)
    res = check_cross_sums(m, np.array([1.0]), n_grid=(20, 40), m_term_grid=(20,))
    assert res.verdict == "pass"
    assert all(v == 0.0 for v in res.details["ratios"].values())


@pytest.mark.parametrize("n_grid, m_term_grid", [((), (20,)), ((), ()), ((0, 20), ()), ((20,), (-5, 20))])
def test_cross_sums_reject_empty_or_nonpositive_lengths(example1_sim, n_grid, m_term_grid):
    with pytest.raises(ContractError, match="integers >= 1"):
        check_cross_sums(example1_sim, np.array(example1_sim.layout.theta0), n_grid, m_term_grid)


def test_cross_sums_without_second_family(example1_sim):
    res = check_cross_sums(example1_sim, np.array(example1_sim.layout.theta0), n_grid=(20, 40), m_term_grid=())
    assert set(res.details["ratios"]) == {"first_n20", "first_n40"}
    assert "second_curve_max" not in res.details


def test_run_all_examples_pass():
    for which in ("example1_sim", "example2"):
        m = examples.build(which)
        rep = run_all(
            m,
            n_probe=250,
            cross_grid=(50, 100, 200),
            cross_m_grid=(50, 100),
            info_grid=(25, 50, 100),
        )
        assert rep.all_pass(), (which, rep.verdicts)
        assert 0 < rep.phi < 1


def test_run_all_records_wall_time_per_check(example2):
    start = time.perf_counter()
    rep = run_all(example2, n_probe=100, cross_grid=(50, 100), cross_m_grid=(50,), info_grid=(25,))
    wall = time.perf_counter() - start
    for res in rep.checks.values():
        assert isinstance(res.details["wall_s"], float) and res.details["wall_s"] >= 0.0
    assert "wall_s" not in rep.bound_constants
    # the shared weight pass is timed once, outside the checks, and the parts add up
    assert isinstance(rep.weight_pass_s, float) and rep.weight_pass_s > 0.0
    assert rep.weight_pass_s + sum(res.details["wall_s"] for res in rep.checks.values()) <= wall


# -- run_all's shared weight pass -------------------------------------------------

CRIT9 = dict(n_probe=250, cross_grid=(50, 100, 200), cross_m_grid=(50, 100), info_grid=(25, 50, 100))


def _alone(model, theta0, n_probe, cross_grid, cross_m_grid, info_grid):
    """The five checks called one by one, as run_all called them before it shared a pass."""
    return [
        check_psi_decay(model, theta0, n_probe=n_probe),
        check_sigma_bounds(model, theta0, n_probe=n_probe),
        check_moment_bounds(model.sigma),
        check_information(model, theta0, n_grid=info_grid),
        check_cross_sums(model, theta0, n_grid=cross_grid, m_term_grid=cross_m_grid),
    ]


def _same_results(got, want):
    """Verdicts, constants and details (apart from wall_s) equal, bit for bit."""
    assert [res.name for res in got] == [res.name for res in want]
    for a, b in zip(got, want):
        assert a.verdict == b.verdict, a.name
        assert repr(a.constants) == repr(b.constants), a.name
        strip = lambda d: repr({k: v for k, v in d.items() if k != "wall_s"})
        assert strip(a.details) == strip(b.details), a.name


def _shared_pass_cases():
    yield "example2_crit9", lambda: examples.build("example2"), CRIT9, None
    yield "example1_sim_crit9", lambda: examples.build("example1_sim"), CRIT9, None
    # the cross-sum horizon (300) exceeds n_probe, and lags are capped at 120 from t = 122
    tail = dict(n_probe=100, cross_grid=(50, 100), cross_m_grid=(150, 300), info_grid=(25,))
    yield "example2_tail", lambda: examples.build("example2"), tail, None
    # q > 0 on a short grid; D_CAP 10 caps the tail's lags at 20
    short = dict(n_probe=30, cross_grid=(10, 20, 40), cross_m_grid=(5, 20, 40), info_grid=(10, 25))
    yield "varma11_short", lambda: make_sin_varma11(np.random.default_rng(7)), short, 10


@pytest.mark.parametrize("case", list(_shared_pass_cases()), ids=lambda c: c[0])
def test_run_all_matches_the_checks_called_alone(case, monkeypatch):
    # run_all's one pass gives each check exactly what its own pass gives it, and
    # past n_probe the pass stacks only the order-1 tuples up to the cross-sum lag cap
    _, build, grid, d_cap = case
    if d_cap is not None:
        monkeypatch.setattr(assumptions, "D_CAP", d_cap)
    model = build()
    theta0 = model.layout.theta0_array()
    taus, shapes, resid_rows = [], [], assumptions._resid_rows

    def recorded(*args, **kwargs):
        got, blocks = resid_rows(*args, **kwargs)
        taus.extend(got)
        return got, (shapes.append(block.shape) or block for block in blocks)

    monkeypatch.setattr(assumptions, "_resid_rows", recorded)
    rep = run_all(model, theta0, **grid)
    monkeypatch.setattr(assumptions, "_resid_rows", resid_rows)
    _same_results(list(rep.checks.values()), _alone(model, theta0, **grid))

    n_probe, horizon = grid["n_probe"], max(*grid["cross_grid"], *grid["cross_m_grid"])
    kcap = min(horizon - 1, 2 * assumptions.D_CAP)
    low = sum(len(tau) <= 1 for tau in taus)  # higher orders are non-zero only through B_t
    assert (len(taus) > low) == (model.q > 0) and sum(shape[0] for shape in shapes) == max(n_probe, horizon)
    t0 = 1
    for shape in shapes:  # a block's rows lie on one side of n_probe; it is as long as its last row
        t1 = t0 + shape[0] - 1
        assert t1 <= n_probe or t0 > n_probe, (t0, t1)
        want = (len(taus), t1) if t1 <= n_probe else (low, min(t1 - 1, kcap) + 1)
        assert shape == (shape[0], want[0], model.r, want[1], model.r), (t0, t1)
        t0 = t1 + 1


def test_run_all_makes_one_weight_pass(example2, monkeypatch):
    # the decay and cross-sum audits share one _resid_rows pass (they made two), and
    # tail = (step, order, cap) is the only lag cap a pass is asked for
    calls, resid_rows = [], assumptions._resid_rows

    def spy(model, theta, theta0, n, max_order, tail=None):
        calls.append((n, max_order, tail))
        return resid_rows(model, theta, theta0, n, max_order, tail)

    monkeypatch.setattr(assumptions, "_resid_rows", spy)
    theta0 = example2.layout.theta0_array()
    run_all(example2, **CRIT9)
    assert calls.pop() == (250, 3, None)  # the horizon, 200, is within n_probe: no tail
    run_all(example2, theta0, n_probe=100, cross_grid=(50, 100), cross_m_grid=(150,), info_grid=(25,))
    assert calls.pop() == (150, 3, (100, 1, 2 * assumptions.D_CAP))  # stepped down past n_probe
    check_psi_decay(example2, theta0, n_probe=50)
    assert calls.pop() == (50, 3, None)  # every lag
    check_cross_sums(example2, theta0, n_grid=(50, 100), m_term_grid=(30,))
    assert calls.pop() == (100, 1, (0, 1, 99))  # capped from row 1 on
    assert not calls


def test_identically_zero_slot_leaves_the_audits_unchanged():
    # the recurrence alone leaves out an AR slot whose entry sin(0 t) is zero for every t
    base = examples.example1_sim_model()
    a = MatrixTimeFunction([[Sine(0, examples.FREQ_A), Param(1)], [Sine(3, 0.0), Sine(2, examples.FREQ_B)]])
    names = (*base.layout.names, "dead")
    layout = ParamLayout(names=names, n_ar=4, n_ma=0, theta0=(*base.layout.theta0, 0.3))
    dead = TdVarmaModel(r=2, a_funcs=[a], b_funcs=[], g_func=None, sigma=np.eye(2), layout=layout)
    theta0 = dead.layout.theta0_array()
    assert all(3 not in tau for tau in _resid_rows(dead, theta0, theta0, 5, 3)[0])
    for check, kwargs in (
        (check_cross_sums, dict(n_grid=(50, 100), m_term_grid=(50, 100))),
        (check_psi_decay, dict(n_probe=100)),
    ):
        with_dead, without = (check(m, m.layout.theta0_array(), **kwargs) for m in (dead, base))
        _same_results([with_dead], [without])


@pytest.mark.parametrize("d_cap", [5, 120])
def test_run_all_reads_d_cap_when_called(example2, monkeypatch, d_cap):
    # VALIDATION.md's recipe: set tdvarma.assumptions.D_CAP before run_all
    grid = dict(n_probe=100, cross_grid=(50, 100), cross_m_grid=(150,), info_grid=(25,))
    theta0 = example2.layout.theta0_array()
    default = run_all(example2, theta0, **grid).h37_ratios
    monkeypatch.setattr(assumptions, "D_CAP", d_cap)
    got = run_all(example2, theta0, **grid).h37_ratios
    alone = check_cross_sums(example2, theta0, n_grid=grid["cross_grid"], m_term_grid=grid["cross_m_grid"])
    assert repr(got) == repr(alone.details["ratios"])
    if d_cap == 5:  # lags stop at 10, so the ratios move
        assert got != default


# -- oracles: the per-(t, k) and per-(t, d) loops the array kernels replaced -------


def _ref_tail_stats(rows, nu_grid, power):
    tails = []
    for nu in nu_grid:
        best = 0.0
        for arr in rows:
            if arr.shape[0] - 1 >= nu:
                best = max(best, float(np.sum(arr[nu:] ** power)))
        tails.append(best)
    return np.array(tails)


def _ref_decay_maxima(model, theta0, n_probe):
    """What check_psi_decay reduces its rows to, from the whole (tuples, n_probe, n_probe)
    norm table at once: per order-1/2 tuple the worst tail sums (powers 2, 4), per
    order-3 tuple the worst total of squares, and the last non-zero lag of order <= 2."""
    taus, norms = norm_table(model, theta0, n_probe, 3)
    norms[~(norms > 1e-14)] = 0.0
    nu_grid = [v for v in assumptions.NU_GRID if v <= n_probe - 1]
    low = [tab for tau, tab in zip(taus, norms) if len(tau) <= 2]
    tails = [[_tail_sums(tab, nu_grid, power) for tab in low] for power in (2, 4)]
    sum_sq = [np.max(np.sum(tab**2, axis=1)) for tau, tab in zip(taus, norms) if len(tau) == 3]
    lags = [np.nonzero(np.any(tab > 0, axis=0))[0] for tab in low]
    return tails, sum_sq, max([-1] + [int(nz[-1]) for nz in lags if nz.size])


@pytest.mark.parametrize(
    "which, n_probe",
    [("example1_sim", 250), ("example2", 64), ("example2", 65), ("varma11", 70), ("varma22", 60)],
)
def test_decay_blocks_match_the_whole_table(which, n_probe):
    # the reducer folds ROWS rows at a time (the last block may hold one row) into
    # maxima over t; the table the blocks replaced gives the same bits
    models = {
        "varma22": lambda: make_random_varma22(np.random.default_rng(3)),
        "varma11": lambda: make_sin_varma11(np.random.default_rng(7)),
    }
    model = models[which]() if which in models else examples.build(which)
    theta0 = model.layout.theta0_array()
    decay = assumptions._DecayTails(n_probe)
    assumptions._reduce_rows(_resid_rows(model, theta0, theta0, n_probe, 3, None), [decay])
    tails, sum_sq, k_last = _ref_decay_maxima(model, theta0, n_probe)
    np.testing.assert_array_equal(decay.tails, np.array(tails).reshape(decay.tails.shape))
    np.testing.assert_array_equal(decay.sum_sq, sum_sq)
    assert decay.k_nonzero == k_last >= 0
    assert (len(sum_sq) > 0) == (model.q > 0)


def _ref_cross_sums(model, theta0, n_grid, m_term_grid):
    """(ratios, per-t second-family summands) of check_cross_sums, looped and
    whitened by the symmetric Sigma_t^{-1/2}."""
    d_cap = assumptions.D_CAP
    n_grid = sorted(n_grid)
    m_term_grid = sorted(m_term_grid)
    n_max = max(n_grid)
    horizon = max([n_max, *m_term_grid])
    kcap = min(horizon - 1, 2 * d_cap)
    taus, table = norm_table(model, theta0, n_max, 1, kcap)
    slots = [tau[0] for tau in taus]  # the recurrence leaves out the identically zero ones
    g_all = model.g_values(np.arange(1, horizon + 1), theta0)
    g2 = np.einsum("trs,trs->t", g_all, g_all)
    ratios = {}
    for n in n_grid:
        best = 0.0
        for tab in table:
            total = 0.0
            for s in range(1, n):
                v = np.array([tab[s + k - 1, k] if k < tab.shape[1] else 0.0 for k in range(1, n - s + 1)])
                total += g2[s - 1] * 0.5 * (v.sum() ** 2 - float(v @ v))
            best = max(best, total / (n * n))
        ratios[f"first_n{n}"] = n * best
    if not m_term_grid:
        return ratios, None
    n2_max = max(m_term_grid)
    inner = np.zeros(n2_max + 1)
    if slots:
        evals, evecs = np.linalg.eigh(model.sigma_t_all(n2_max, theta0))
        inv_sqrt = np.einsum("tab,tb,tcb->tac", evecs, 1.0 / np.sqrt(evals), evecs)
        urows = []
        taus, blocks = _resid_rows(model, theta0, theta0, n2_max, 1, (0, 1, kcap))
        keep = [taus.index((i,)) for i in slots]
        for t, row in enumerate((row for block in blocks for row in block), 1):
            rows = row[keep, :, 1 : min(t - 1, kcap) + 1]  # rows[i, :, k-1] for k = 1..min(t-1, kcap)
            gseg = g_all[t - 2 :: -1][: rows.shape[2]] if t >= 2 else g_all[:0]
            urows.append(np.einsum("ab,ibkc,kcd->ikad", inv_sqrt[t - 1], rows, gseg))
        for t in range(2, n2_max + 1):
            ut = urows[t - 1]
            tot = 0.0
            for d in range(1, min(d_cap, n2_max - t) + 1):
                utd = urows[t + d - 1]
                L = min(ut.shape[1], utd.shape[1] - d)
                if L <= 0:
                    continue
                s_all = np.einsum("ikab,bc,jkdc->ijad", ut[:, :L], model.sigma, utd[:, d : d + L])
                d_self = np.einsum("iiab->iab", s_all)
                term2 = np.einsum("jab,iab->ij", d_self, d_self)
                term3 = np.einsum("jiab,ijab->ij", s_all, s_all)
                tot += float(np.max(np.abs(term2 + term3)))
            inner[t] = tot
    csum = np.cumsum(inner)
    for n in m_term_grid:
        ratios[f"second_n{n}"] = csum[n] / n
    return ratios, inner


def _oracle_cases():
    crit9 = dict(n_grid=(50, 100, 200), m_term_grid=(50, 100))
    short = dict(n_grid=(10, 20, 40), m_term_grid=(5, 20, 40))  # max(m) < D_CAP
    yield "example1_sim", examples.build("example1_sim"), crit9, 60
    yield "example2", examples.build("example2"), crit9, 60
    yield "example2_short", examples.build("example2"), short, 60
    yield "example2_tiny", examples.build("example2"), dict(n_grid=(2, 3), m_term_grid=(1, 2, 3)), 60
    # q > 0; rows are shorter than the lag cap up to t = 2 D_CAP
    yield "varma22", make_random_varma22(np.random.default_rng(3)), dict(n_grid=(30, 60), m_term_grid=(40, 80)), 25
    yield "varma11_short", make_sin_varma11(np.random.default_rng(7)), short, 60


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_cross_sum_kernels_match_looped_oracle(case, monkeypatch):
    _, model, grid, d_cap = case
    monkeypatch.setattr(assumptions, "D_CAP", d_cap)
    theta0 = model.layout.theta0_array()
    res = check_cross_sums(model, theta0, **grid)
    ref, inner = _ref_cross_sums(model, theta0, **grid)
    got = res.details["ratios"]
    assert set(got) == set(ref)
    for key, val in ref.items():
        assert abs(got[key] - val) <= 1e-12 * abs(val), (key, got[key], val)
    curve = np.cumsum(inner)[1:] / np.arange(1, len(inner))
    assert res.details["second_curve_argmax_n"] == int(np.argmax(curve)) + 1
    assert res.details["second_curve_max"] == pytest.approx(float(curve.max()), rel=1e-12, abs=0.0)


def _whitened(which: str, n2: int, d_cap: int) -> np.ndarray:
    """The second family's whitened weights of a model's cross-sum pass up to n2."""
    models = {
        "example2": lambda: examples.build("example2"),
        "varma11": lambda: make_sin_varma11(np.random.default_rng(909)),
        "varma22": lambda: make_random_varma22(np.random.default_rng(3)),
    }
    model = models[which]()
    theta0 = model.layout.theta0_array()
    cross = assumptions._CrossSums(model, theta0, (n2,), (n2,))
    assumptions._reduce_rows(_resid_rows(model, theta0, theta0, cross.horizon, 1, (0, 1, 2 * d_cap)), [cross])
    return cross.whitened


@pytest.mark.parametrize(
    "which, n2, d_cap, entries",
    [
        ("example2", 100, 60, 1 << 19),  # example2's criterion-9 grid: one group
        ("example2", 100, 60, 5000),  # a multi-group grid, a shift at a time
        ("example2", 1, 60, 1 << 19),  # T = 1: no shift
        ("example2", 40, 60, 1 << 19),  # T <= D_CAP
        ("varma11", 90, 20, 1 << 14),
        ("varma22", 70, 25, 1 << 16),
    ],
)
def test_grouped_second_family_matches_the_per_shift_kernel(which, n2, d_cap, entries, monkeypatch):
    monkeypatch.setattr(assumptions, "D_CAP", d_cap)
    monkeypatch.setattr(assumptions, "GROUP_ENTRIES", entries)
    whitened = _whitened(which, n2, d_cap)
    want = second_family_inner(whitened, d_cap)
    got = assumptions._second_family_inner(whitened)
    assert got.shape == want.shape and want[1 : n2 - 1].all()  # row 1 has no lags, row T no shift
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # without slots both are zero
    empty = whitened[:, :0]
    np.testing.assert_array_equal(assumptions._second_family_inner(empty), second_family_inner(empty, d_cap))
    assert not assumptions._second_family_inner(empty).any()


@pytest.mark.parametrize(
    "which, n_probe, nu_grid",
    [("example1_sim", 250, (1, 5, 10, 20, 40)), ("example2", 250, (1, 5, 10, 20, 40)),
     ("varma22", 60, (1, 5, 10, 20, 40)), ("varma11", 50, (0, 3, 49))],
)
def test_tail_sums_match_looped_oracle(which, n_probe, nu_grid):
    models = {
        "varma22": lambda: make_random_varma22(np.random.default_rng(3)),
        "varma11": lambda: make_sin_varma11(np.random.default_rng(7)),
    }
    model = models[which]() if which in models else examples.build(which)
    theta0 = model.layout.theta0_array()
    _, table = norm_table(model, theta0, n_probe, 3)
    table[~(table > 1e-14)] = 0.0
    checked = 0
    for tab in table:
        rows = [tab[t, : t + 1] for t in range(n_probe)]  # row t + 1 holds lags 0..t
        for power in (2, 4):
            ref = _ref_tail_stats(rows, nu_grid, power)
            got = _tail_sums(tab, list(nu_grid), power)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
            checked += int(np.count_nonzero(ref))
    assert checked > 0


def test_verify_assumptions_script_reports_every_example(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_assumptions.py"
    spec = importlib.util.spec_from_file_location("verify_assumptions", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    timings = captured.err.splitlines()
    assert len(timings) == 3 * 2
    for block, which in enumerate(("example1_sim", "example1_theory", "example2")):
        assert re.fullmatch(rf"{which}: run_all \d+\.\d{{3}} s, weight pass \d+\.\d{{3}} s", timings[2 * block])
        assert re.fullmatch(rf"{which}: theoretical_v n=400 \d+\.\d{{2}} ms", timings[2 * block + 1])
    checks = ["psi_decay", "covariance_bounds", "moment_bounds", "information_pd", "cross_sums"]
    assert len(lines) == 3 * 9 + 1
    for block, which in enumerate(("example1_sim", "example1_theory", "example2")):
        head, verdicts, ses = lines[9 * block], lines[9 * block + 1 : 9 * block + 6], lines[9 * block + 6 : 9 * block + 9]
        assert head.startswith(f"{which}: decay base = ")
        assert [line.split()[0] for line in verdicts] == checks
        assert all(line.split()[1:] in (["pass"], ["fail"], ["inconclusive"]) for line in verdicts)
        assert [line.split(":")[0] for line in ses] == [f"  theoretical se (n={n:3d})" for n in (25, 50, 100)]
    assert lines[-1] == "explosive control: psi_decay fail (expected fail)"
