import dataclasses

import numpy as np
import pytest
from conftest import make_sin_varma11

from tdvarma import estimate, examples, mc
from tdvarma.config import RunConfig
from tdvarma.errors import ConfigError
from tdvarma.estimate import NORMAL_CRIT_5PCT
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.timefn import Constant, MatrixTimeFunction, Param
from tdvarma.mc import (
    McCell,
    McPlan,
    McSummary,
    estimates_to_csv,
    run_mc,
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


def test_one_pool_serves_every_length(monkeypatch):
    pools = []

    class CountingPool(mc.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", CountingPool)
    plan = _small_plan(n_list=(25, 50), replications=6)
    texts = [summary_to_csv(run_mc(plan, threads=threads)) for threads in (1, 2, 3)]
    assert pools == [2, 3]
    assert texts[0] == texts[1] == texts[2]


def test_adding_lengths_does_not_perturb_existing_cells():
    s1 = run_mc(_small_plan(n_list=(25,)))
    s2 = run_mc(_small_plan(n_list=(25, 50)))
    c1, c2 = s1.cell(25), s2.cell(25)
    np.testing.assert_array_equal(c1.mean_estimate, c2.mean_estimate)
    np.testing.assert_array_equal(c1.reject_pct, c2.reject_pct)


def test_empty_summary_emits_header_only():
    empty = McSummary(param_names=("a",))
    assert summary_to_csv(empty) == "n,param,line,value\n"


def test_single_cell_row_count():
    summary = run_mc(_small_plan())
    lines = summary_to_csv(summary).strip().splitlines()
    # header + 3 params x 4 lines + 1 exclusion row
    assert len(lines) == 1 + 3 * 4 + 1


def test_estimates_csv_shape():
    text = estimates_to_csv(run_mc(_small_plan()))
    lines = text.strip().splitlines()
    assert lines[0] == "n,rep,param,estimate,se,converged"
    assert len(lines) == 1 + 10 * 3


def test_cell_keeps_its_replications():
    plan = _small_plan(n_list=(25, 50), replications=6)
    summary = run_mc(plan)
    for n in plan.n_list:
        cell = summary.cell(n)
        assert cell.estimates.shape == cell.ses.shape == (6, 3) and cell.converged.shape == (6,)
        assert cell.n_converged > 1
        kept, ses = cell.estimates[cell.converged], cell.ses[cell.converged]
        np.testing.assert_array_equal(cell.mean_estimate, kept.mean(axis=0))
        np.testing.assert_array_equal(cell.mean_se, ses.mean(axis=0))
        np.testing.assert_array_equal(cell.std_estimate, kept.std(axis=0, ddof=1))
        # line (d): the share of replications whose Wald test of theta0 rejects
        rejects = [[abs((float(est[i]) - plan.theta0[i]) / se[i]) > NORMAL_CRIT_5PCT for i in range(3)]
                   for est, se in zip(kept, ses)]
        np.testing.assert_array_equal(cell.reject_pct, 100.0 * np.mean(rejects, axis=0))
        assert np.all(np.isnan(cell.ses[~cell.converged]))
    rows = [row.split(",") for row in estimates_to_csv(summary).strip().splitlines()[1:]]
    assert [(int(n), int(rep), p) for n, rep, p, *_ in rows] == [
        (n, rep, p) for n in plan.n_list for rep in range(6) for p in summary.param_names
    ]
    estimates = np.array([float(row[3]) for row in rows]).reshape(2, 6, 3)
    np.testing.assert_array_equal(estimates, [summary.cell(n).estimates for n in plan.n_list])


def _cell_of(estimates, ses, converged, theta0=(0.0, 1.0)):
    return McCell(25, np.array(theta0), np.array(estimates, dtype=float), np.array(ses, dtype=float),
                  np.array(converged))


def test_cell_lines_without_a_converged_replication_are_nan():
    cell = _cell_of([[0.5, 1.5], [np.nan, np.nan]], [[np.nan, np.nan]] * 2, [False, False])
    for line in (cell.mean_estimate, cell.mean_se, cell.std_estimate, cell.reject_pct):
        assert line.shape == (2,) and np.all(np.isnan(line))
    summary = McSummary(param_names=("a", "b"), cells={25: cell})
    assert summary.flagged
    assert summary_to_csv(summary).splitlines()[1:3] == ["25,a,a,nan", "25,a,b,nan"]


def test_cell_lines_of_a_single_converged_replication():
    # its one estimate is the mean, and the dispersion of one value is 0
    cell = _cell_of([[0.5, 1.25], [9.0, 9.0]], [[0.1, 0.25], [np.nan, np.nan]], [True, False])
    np.testing.assert_array_equal(cell.mean_estimate, [0.5, 1.25])
    np.testing.assert_array_equal(cell.mean_se, [0.1, 0.25])
    np.testing.assert_array_equal(cell.std_estimate, [0.0, 0.0])
    np.testing.assert_array_equal(cell.reject_pct, [100.0, 0.0])  # statistics 5 and 1


def test_summary_csv_is_rebuilt_from_estimates_csv():
    # estimates.csv and theta0 hold all a summary is: its lines are readings of them
    plan = _small_plan(n_list=(25, 50), replications=6)
    summary = run_mc(plan)
    rows = [row.split(",") for row in estimates_to_csv(summary).splitlines()[1:]]
    m = len(summary.param_names)
    cells = {}
    for n in plan.n_list:
        mine = [row for row in rows if int(row[0]) == n]
        est, ses = (np.array([float(row[k]) for row in mine]).reshape(-1, m) for k in (3, 4))
        converged = np.array([row[5] == "1" for row in mine[::m]])
        cells[n] = McCell(n, np.array(plan.theta0), est, ses, converged)
    rebuilt = McSummary(param_names=summary.param_names, cells=cells)
    assert summary_to_csv(rebuilt) == summary_to_csv(summary)


def test_nonconvergence_excluded_and_flagged(monkeypatch):
    # example2's exp-sine scale block keeps the objective non-quadratic, so one
    # iteration cannot reach the minimum
    m = examples.example2_model()
    monkeypatch.setattr(estimate, "MAX_ITERS", 1)
    plan = _small_plan(
        model=m,
        theta0=m.layout.theta0,
        theta_init=tuple(v + 0.1 for v in m.layout.theta0),
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
    with pytest.raises(ConfigError, match="at least one series length"):
        McPlan(model=m, theta0=m.layout.theta0, n_list=())


def test_plan_rejects_repeated_lengths():
    # the repeat was fitted twice and wrote its estimates.csv rows twice under one summary cell
    with pytest.raises(ConfigError, match="series length 25 appears more than once"):
        _small_plan(n_list=(25, 50, 25))


@pytest.mark.parametrize(
    "name, value",
    [("theta0", (0.1, 0.1)), ("theta_init", (0.1, 0.1)), ("theta_init", (0.1,) * 5)],
)
def test_plan_rejects_wrong_length_vectors(name, value):
    # each would otherwise fail every replication or raise in the middle of the run
    with pytest.raises(ConfigError, match=name):
        _small_plan(**{name: value})


def test_plan_without_true_value_rejected():
    with pytest.raises(ConfigError, match="theta0"):
        _small_plan(theta0=None)


def test_plan_rejects_seeds_outside_64_bits():
    for bad in (-1, 1 << 64):
        with pytest.raises(ConfigError, match=f"seed {bad} "):
            _small_plan(seed=bad)
    for good in (0, (1 << 64) - 1):
        assert _small_plan(seed=good).seed == good


class _Captured(Exception):
    pass


def _capture_plan(monkeypatch, namespace) -> list:
    """Replace run_mc in namespace by a stub that records its plan and stops the run."""
    plans = []

    def stub(plan, **kw):
        plans.append(plan)
        raise _Captured

    monkeypatch.setattr(namespace, "run_mc", stub)
    return plans


# every run key except n, which sets the length of a single simulate or fit
_RUN_BLOCK = dict(seed=11, replications=3, n_list=(30, 40), theta_init=(0.2, 0.3, -0.4), estimate_sigma=True)


def _assert_run_reaches_plan(plan, run, **overrides):
    # a key left at its default could not tell a dropped value from a copied one
    assert {f.name for f in dataclasses.fields(RunConfig)} - set(_RUN_BLOCK) == {"n"}
    for key in _RUN_BLOCK:
        assert getattr(run, key) != getattr(RunConfig(), key), key
        assert getattr(plan, key) == overrides.get(key, getattr(run, key)), key


@pytest.mark.parametrize("overrides", [{}, dict(seed=99, replications=2, n_list=(35,))])
def test_every_run_key_reaches_the_plan_from_the_cli(monkeypatch, tmp_path, overrides):
    from tdvarma import cli, config

    model = examples.example1_sim_model()
    run = RunConfig(**_RUN_BLOCK)
    path = tmp_path / "cfg.json"
    config.dump(model, run, str(path))
    plans = _capture_plan(monkeypatch, cli)
    argv = ["mc", "--config", str(path), "--out", str(tmp_path / "out.csv")]
    if overrides:
        argv += ["--seed", "99", "--replications", "2", "--n-list", "35"]
    with pytest.raises(_Captured):
        cli.main(argv)
    _assert_run_reaches_plan(plans[0], run, **overrides)
    assert plans[0] == McPlan.from_run(model, run, **overrides)


# summary_to_csv of the table-2 cells below, written by the Newton run on the exact
# Hessian (the full information step after a failed full Newton step)
TABLE2_REFERENCE_CELLS = """n,param,line,value
25,a11_amp,a,0.7617714897454801
25,a11_amp,b,0.12688333002371702
25,a11_amp,c,0.14248636275096221
25,a11_amp,d,0.0
25,a22_amp,a,-0.8269042827023257
25,a22_amp,b,0.1521574241685275
25,a22_amp,c,0.13862030431226097
25,a22_amp,d,10.0
25,eta11,a,1.1095716935617024
25,eta11,b,0.19418368063556518
25,eta11,c,0.27966779770465494
25,eta11,d,35.0
25,eta22,a,-0.9814164568047392
25,eta22,b,0.13851907380274334
25,eta22,c,0.20485114470486754
25,eta22,d,25.0
25,all,excluded,0
50,a11_amp,a,0.7614398810264651
50,a11_amp,b,0.09153359562478228
50,a11_amp,c,0.09879469809410152
50,a11_amp,d,15.0
50,a22_amp,a,-0.8612135847815932
50,a22_amp,b,0.12244731122886945
50,a22_amp,c,0.17538403492572444
50,a22_amp,d,5.0
50,eta11,a,0.9741658235272761
50,eta11,b,0.16006340618074846
50,eta11,c,0.24818507615895505
50,eta11,d,25.0
50,eta22,a,-1.0286048150563867
50,eta22,b,0.1309349472868877
50,eta22,c,0.12421922049304766
50,eta22,d,10.0
50,all,excluded,0
"""


def _summary_rows(text: str) -> dict:
    """{(n, param, line): value} of a summary CSV."""
    lines = text.strip().splitlines()
    assert lines[0] == "n,param,line,value"
    return {tuple(row.split(",")[:3]): float(row.split(",")[3]) for row in lines[1:]}


def _assert_cells_match(plan, reference_csv):
    """Lines a-c within 1e-12 relative of the reference, line d and the excluded count exact."""
    got = _summary_rows(mc.summary_to_csv(mc.run_mc(plan, threads=1)))
    want = _summary_rows(reference_csv)
    assert got.keys() == want.keys()
    for key, ref in want.items():
        if key[2] in ("a", "b", "c"):
            np.testing.assert_allclose(got[key], ref, rtol=1e-12, atol=0, err_msg=str(key))
        else:
            np.testing.assert_array_equal(got[key], ref, err_msg=str(key))


def test_table2_reference_cells_are_unchanged():
    m = examples.example2_model()
    plan = mc.McPlan.from_run(m, examples.paper_run("example2"), n_list=(25, 50), replications=20)
    _assert_cells_match(plan, TABLE2_REFERENCE_CELLS)


# summary_to_csv of table 1's design (sigma estimated: one run on the profile
# objective) and of the sinusoidal VARMA(1,1), written by the same search
TABLE1_REFERENCE_CELLS = """n,param,line,value
25,a11_amp,a,0.7874043441623986
25,a11_amp,b,0.1865446642705086
25,a11_amp,c,0.19162130046998307
25,a11_amp,d,0.0
25,a12,a,0.47901928422632095
25,a12,b,0.15270934359794106
25,a12,c,0.18393373363445567
25,a12,d,10.0
25,a22_amp,a,-0.8173991319755242
25,a22_amp,b,0.1848422335445234
25,a22_amp,c,0.2118473419798725
25,a22_amp,d,5.0
25,all,excluded,0
50,a11_amp,a,0.7545399468920031
50,a11_amp,b,0.1304917647061519
50,a11_amp,c,0.13881208111421117
50,a11_amp,d,10.0
50,a12,a,0.46227544642130225
50,a12,b,0.10128191348106323
50,a12,c,0.10220614591926454
50,a12,d,0.0
50,a22_amp,a,-0.859859319251394
50,a22_amp,b,0.12306302822334739
50,a22_amp,c,0.18570583482444072
50,a22_amp,d,10.0
50,all,excluded,0
"""

VARMA11_REFERENCE_CELLS = """n,param,line,value
100,p0,a,0.19515664716453474
100,p0,b,0.11622646913963261
100,p0,c,0.0786255518026358
100,p0,d,0.0
100,p1,a,0.14283290881383498
100,p1,b,0.1105394568990836
100,p1,c,0.07445074490283415
100,p1,d,0.0
100,p2,a,-0.23027478897482362
100,p2,b,0.1266752178029404
100,p2,c,0.143432724494037
100,p2,d,10.0
100,p3,a,-0.4375013806104541
100,p3,b,0.1230821395488692
100,p3,c,0.08188236984908977
100,p3,d,0.0
100,p4,a,-0.47197048164544836
100,p4,b,0.11935170655587587
100,p4,c,0.12199509809656944
100,p4,d,10.0
100,p5,a,-0.1432243676387494
100,p5,b,0.12075380454489326
100,p5,c,0.14685129795421212
100,p5,d,20.0
100,p6,a,0.5433844093592082
100,p6,b,0.14585663424999656
100,p6,c,0.10091851627748069
100,p6,d,0.0
100,p7,a,-0.3949338415636027
100,p7,b,0.14151902619378387
100,p7,c,0.14498147940419584
100,p7,d,10.0
100,all,excluded,0
"""


def test_table1_reference_cells_are_unchanged():
    m = examples.example1_sim_model()
    plan = mc.McPlan.from_run(m, examples.paper_run("example1_sim"), n_list=(25, 50), replications=20)
    _assert_cells_match(plan, TABLE1_REFERENCE_CELLS)


def test_varma11_reference_cell_is_unchanged():
    m = make_sin_varma11(np.random.default_rng(909))
    start = tuple(v + 0.1 for v in m.layout.theta0)
    plan = mc.McPlan(
        model=m, theta0=m.layout.theta0, n_list=(100,), replications=10, seed=4242, theta_init=start
    )
    _assert_cells_match(plan, VARMA11_REFERENCE_CELLS)