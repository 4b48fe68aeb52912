import numpy as np
import pytest

from tdvarma import examples
from tdvarma.errors import ConfigError
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.timefn import Constant, MatrixTimeFunction, Param
from tdvarma.mc import (
    McPlan,
    McSummary,
    estimates_to_csv,
    run_mc,
    summary_from_csv,
    summary_to_csv,
)


def _small_plan(**kw):
    m = examples.example1_sim_model()
    defaults = dict(
        model=m,
        theta0=m.layout.theta0,
        n_list=(25,),
        replications=10,
        seed=555,
        theta_init=(0.1, 0.1, 0.1),
    )
    defaults.update(kw)
    return McPlan(**defaults)


def test_smoke_bookkeeping():
    summary = run_mc(_small_plan())
    cell = summary.cell(25)
    assert cell.n_total == 10
    assert 0 <= cell.n_converged <= 10
    assert cell.mean_estimate.shape == (3,)
    assert np.all(cell.reject_pct >= 0) and np.all(cell.reject_pct <= 100)


def test_identical_plans_reproduce_bitwise():
    s1 = run_mc(_small_plan())
    s2 = run_mc(_small_plan())
    assert summary_to_csv(s1) == summary_to_csv(s2)


def test_worker_pool_matches_serial():
    s1 = run_mc(_small_plan(replications=12))
    s2 = run_mc(_small_plan(replications=12), threads=3)
    assert summary_to_csv(s1) == summary_to_csv(s2)


def test_adding_lengths_does_not_perturb_existing_cells():
    s1 = run_mc(_small_plan(n_list=(25,)))
    s2 = run_mc(_small_plan(n_list=(25, 50)))
    c1, c2 = s1.cell(25), s2.cell(25)
    np.testing.assert_array_equal(c1.mean_estimate, c2.mean_estimate)
    np.testing.assert_array_equal(c1.reject_pct, c2.reject_pct)


def test_csv_round_trip_is_stable():
    summary = run_mc(_small_plan())
    text = summary_to_csv(summary)
    parsed = summary_from_csv(text, replications=summary.replications)
    assert summary_to_csv(parsed) == text
    cell = parsed.cell(25)
    np.testing.assert_array_equal(cell.mean_estimate, summary.cell(25).mean_estimate)


def test_csv_excluded_count_beyond_replications_rejected():
    text = "n,param,line,value\n25,a,a,0.5\n25,all,excluded,3\n"
    with pytest.raises(ConfigError):
        summary_from_csv(text)
    assert summary_from_csv(text, replications=3).cell(25).n_converged == 0


def test_empty_summary_emits_header_only():
    empty = McSummary(param_names=("a",), replications=0)
    assert summary_to_csv(empty) == "n,param,line,value\n"


def test_single_cell_row_count():
    summary = run_mc(_small_plan())
    lines = summary_to_csv(summary).strip().splitlines()
    # header + 3 params x 4 lines + 1 exclusion row
    assert len(lines) == 1 + 3 * 4 + 1


def test_estimates_csv_shape():
    summary, rows = run_mc(_small_plan(), collect_estimates=True)
    text = estimates_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,rep,param,estimate,se,converged"
    assert len(lines) == 1 + 10 * 3


def test_nonconvergence_excluded_and_flagged():
    # example2's exp-sine scale block keeps the objective non-quadratic, so one
    # iteration cannot reach the minimum
    m = examples.example2_model()
    plan = _small_plan(
        model=m,
        theta0=m.layout.theta0,
        theta_init=tuple(v + 0.1 for v in m.layout.theta0),
        max_iters=1,
    )
    summary = run_mc(plan)
    cell = summary.cell(25)
    assert cell.n_converged == 0
    assert summary.flagged


def test_failed_fit_counts_as_excluded():
    # Sigma_t = g_t g_t' vanishes at theta = 0, so every fit raises at its start point
    layout = ParamLayout(names=("s",), n_ar=0, n_ma=0, theta0=(1.0,))
    g = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Param(0)]])
    m = TdVarmaModel(2, [], [], g, np.eye(2), layout)
    summary = run_mc(_small_plan(model=m, theta0=(1.0,), theta_init=(0.0,)))
    cell = summary.cell(25)
    assert cell.n_converged == 0 and cell.n_total == 10
    assert summary.flagged


def test_dispersion_shrinks_with_n():
    plan = _small_plan(n_list=(25, 100, 400), replications=60, seed=2)
    summary = run_mc(plan, threads=2)
    stds = {n: summary.cell(n).std_estimate for n in (25, 100, 400)}
    for i in range(3):
        seq = [stds[25][i], stds[100][i], stds[400][i]]
        inversions = sum(1 for a, b in zip(seq, seq[1:]) if not b < a)
        assert inversions <= 1, (i, seq)


def test_coverage_calibration_at_moderate_lengths():
    # nominal 5% two-sided tests should reject within a loose band
    m1 = examples.example1_sim_model()
    plan1 = McPlan(
        model=m1, theta0=m1.layout.theta0, n_list=(100,), replications=400,
        seed=31, theta_init=(0.1, 0.1, 0.1), estimate_sigma=True,
    )
    d1 = run_mc(plan1, threads=2).cell(100).reject_pct
    assert np.all(d1 >= 2.5) and np.all(d1 <= 8.5), d1

    m2 = examples.example2_model()
    plan2 = McPlan(
        model=m2, theta0=m2.layout.theta0, n_list=(200,), replications=400,
        seed=31, theta_init=tuple(v + 0.1 for v in m2.layout.theta0),
    )
    d2 = run_mc(plan2, threads=2).cell(200).reject_pct
    assert np.all(d2 >= 2.5) and np.all(d2 <= 8.5), d2


def test_plan_validation():
    m = examples.example1_sim_model()
    with pytest.raises(ConfigError):
        McPlan(model=m, theta0=m.layout.theta0, n_list=(2,), replications=10)
    with pytest.raises(ConfigError):
        McPlan(model=m, theta0=m.layout.theta0, replications=0)


@pytest.mark.parametrize(
    "name, value",
    [("theta0", (0.1, 0.1)), ("theta_init", (0.1, 0.1)), ("theta_init", (0.1,) * 5), ("h0", (0.0,))],
)
def test_plan_rejects_wrong_length_vectors(name, value):
    # each would otherwise fail every replication or raise in the middle of the run
    with pytest.raises(ConfigError, match=name):
        _small_plan(**{name: value})
