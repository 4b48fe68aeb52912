import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from tdvarma.examples import PAPER_TABLES

CLI = [sys.executable, "-m", "tdvarma.cli"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHECKS = {"psi_decay", "covariance_bounds", "moment_bounds", "information_pd", "cross_sums"}


def run_cli(*args):
    env = os.environ.copy()
    # the child interpreter imports the package from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("configs")
    res = run_cli("examples", "--which", "all", "--out", str(out))
    assert res.returncode == 0, res.stderr
    return out


def test_examples_materializes_configs(cfg_dir):
    names = {p for p in os.listdir(cfg_dir)}
    assert {"example1_sim.json", "example1_theory.json", "example2.json"} <= names
    doc = json.loads((cfg_dir / "example1_sim.json").read_text())
    assert doc["model"]["layout"]["theta0"] == [0.8, 0.5, -0.9]
    assert doc["run"]["theta_init"] == [0.1, 0.1, 0.1]


def test_shipped_configs_are_the_examples_output(cfg_dir):
    # configs/ is what `tdvarma examples --which all` writes, byte for byte
    shipped = os.path.join(ROOT, "configs")
    assert sorted(os.listdir(shipped)) == sorted(os.listdir(cfg_dir))
    for name in os.listdir(shipped):
        with open(os.path.join(shipped, name), "rb") as fh:
            assert fh.read() == (cfg_dir / name).read_bytes(), name


def test_examples_round_trip_model(cfg_dir):
    from tdvarma import config, examples

    model, run = config.load(str(cfg_dir / "example2.json"))
    assert model == examples.example2_model()
    assert run.estimate_sigma is False


def test_asymptotics_emits_information_report(cfg_dir):
    res = run_cli("asymptotics", "--config", str(cfg_dir / "example1_theory.json"), "--n", "25")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["n"] == 25
    assert doc["positive_definite"] is True
    assert abs(doc["v"][0][1]) < 1e-10
    np.testing.assert_allclose(doc["v"][0][0], 1.1824379477553513, rtol=1e-12)


def test_simulate_writes_csv_and_is_deterministic(cfg_dir, tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    for out in (out1, out2):
        res = run_cli(
            "simulate", "--config", str(cfg_dir / "example1_sim.json"),
            "--n", "30", "--seed", "9", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,x1,x2"
    assert len(out1.read_text().strip().splitlines()) == 31


def test_seed_flag_overrides_config_seed(cfg_dir, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    # config seed (default) vs explicit --seed: different draws
    res = run_cli("simulate", "--config", str(cfg_dir / "example1_sim.json"), "--n", "10", "--out", str(a))
    assert res.returncode == 0
    res = run_cli(
        "simulate", "--config", str(cfg_dir / "example1_sim.json"),
        "--n", "10", "--seed", "1", "--out", str(b),
    )
    assert res.returncode == 0
    assert a.read_text() != b.read_text()


def test_fit_round_trip(cfg_dir, tmp_path):
    series = tmp_path / "series.csv"
    res = run_cli(
        "simulate", "--config", str(cfg_dir / "example1_sim.json"),
        "--n", "300", "--seed", "21", "--out", str(series),
    )
    assert res.returncode == 0
    res = run_cli("fit", "--config", str(cfg_dir / "example1_sim.json"), "--series", str(series))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["converged"] is True
    np.testing.assert_allclose(doc["theta"], [0.8, 0.5, -0.9], atol=0.2)
    assert doc["metadata"]["sigma_estimated"] is True
    assert doc["termination"] == "gradient" and doc["n_evals"] >= doc["iters"] >= 1
    assert "rounds" not in doc["metadata"]
    assert len(doc["sigma_hat"]) == 2 and doc["sigma_hat"][0][1] == doc["sigma_hat"][1][0]
    assert len(doc["se_info"]) == 3 and all(v > 0 for v in doc["se_info"])


def test_fit_writes_a_step_termination(cfg_dir, tmp_path, monkeypatch):
    # converged is a JSON bool on every exit, a step or line-search end included
    from tdvarma import cli, estimate

    monkeypatch.setattr(estimate, "STEP_TOL", 1.0)  # the first accepted step ends the run
    cfg, series, out = str(cfg_dir / "example1_sim.json"), str(tmp_path / "x.csv"), tmp_path / "fit.json"
    assert cli.main(["simulate", "--config", cfg, "--n", "100", "--out", series]) == 0
    assert cli.main(["fit", "--config", cfg, "--series", series, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["termination"] == "step" and isinstance(doc["converged"], bool)


def test_fit_reports_the_projected_gradient_over_n(cfg_dir, tmp_path):
    # example1_sim with sigma fixed rests on the bound a11_amp = 0.75, where the gradient
    # points out of the box: max |g| / n is far above GRAD_TOL, and the field reports
    # the projected gradient over n that the convergence rule tests
    from tdvarma import cli, config, estimate

    doc = json.loads((cfg_dir / "example1_sim.json").read_text())
    doc["model"]["layout"]["bounds"] = [[0.0, 0.75], None, [-0.75, 0.0]]
    doc["run"]["estimate_sigma"] = False
    cfg, series, out = tmp_path / "bounded.json", str(tmp_path / "x.csv"), tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(cfg), "--n", "100", "--seed", "5", "--out", series]) == 0
    assert cli.main(["fit", "--config", str(cfg), "--series", series, "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["termination"] == "gradient" and got["converged"] is True and got["theta"][0] == 0.75
    assert "grad_max" not in got
    model, run = config.load(str(cfg))
    res = estimate.fit(model, cli._series_from_csv(series), run.theta_init, run.estimate_sigma)
    assert np.max(np.abs(res.grad)) / 100 > 1e-2
    assert got["projected_grad_max_over_n"] == np.max(np.abs(res.grad[1:])) / 100 <= estimate.GRAD_TOL
    assert got["search"] == res.search and sum(res.search[k] for k in estimate.DIRECTIONS) >= 1


@pytest.mark.parametrize("which", ["example1_sim", "example2"])
def test_fit_writes_the_fit_record_as_it_is(cfg_dir, tmp_path, which):
    # the JSON is the names plus every FitResult field under its own name, each
    # written as the fit of the same series holds it, floats in shortest repr
    from tdvarma import cli, config, estimate

    cfg, series, out = str(cfg_dir / f"{which}.json"), str(tmp_path / "x.csv"), tmp_path / "fit.json"
    assert cli.main(["simulate", "--config", cfg, "--n", "100", "--out", series]) == 0
    assert cli.main(["fit", "--config", cfg, "--series", series, "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    fields = {f.name for f in dataclasses.fields(estimate.FitResult)}
    assert set(got) == {"names"} | fields
    model, run = config.load(cfg)
    assert got["names"] == list(model.layout.names)
    res = estimate.fit(model, cli._series_from_csv(series), run.theta_init, run.estimate_sigma)
    for name in fields:
        want = json.dumps(getattr(res, name), sort_keys=True, default=lambda a: a.tolist())
        assert json.dumps(got[name], sort_keys=True) == want, name


def test_singular_noise_covariance_estimate_exits_two(cfg_dir, tmp_path):
    # at sigma_hat's singularity `fit` once reported a usage error and exited 1
    series = tmp_path / "series.csv"
    rows = "".join(f"{t},{0.5 * math.sin(t)},0.0\n" for t in range(1, 61))
    series.write_text("t,x1,x2\n" + rows)
    res = run_cli("fit", "--config", str(cfg_dir / "example1_sim.json"), "--series", str(series))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("numerical failure:") and "Traceback" not in res.stderr, res.stderr


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_mc_rejects_fewer_than_one_thread(cfg_dir, tmp_path, threads):
    # both once ran serially and exited 0
    out = tmp_path / "s.csv"
    res = run_cli("mc", "--config", str(cfg_dir / "example1_sim.json"), "--replications", "2",
                  "--n-list", "25", "--threads", threads, "--out", str(out))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error:") and "worker count" in res.stderr, res.stderr
    assert not out.exists()


def test_mc_smoke_and_determinism(cfg_dir, tmp_path):
    s1 = tmp_path / "m1.csv"
    s2 = tmp_path / "m2.csv"
    est = tmp_path / "est.csv"
    for out in (s1, s2):
        res = run_cli(
            "mc", "--config", str(cfg_dir / "example1_sim.json"),
            "--replications", "10", "--n-list", "25", "--out", str(out),
            "--estimates", str(est), "--threads", "2",
        )
        assert res.returncode == 0, res.stderr
    assert s1.read_bytes() == s2.read_bytes()
    lines = s1.read_text().strip().splitlines()
    assert lines[0] == "n,param,line,value"
    assert len(lines) == 1 + 12 + 1
    est_lines = est.read_text().strip().splitlines()
    assert len(est_lines) == 1 + 10 * 3


def test_check_reports_verdicts(cfg_dir):
    res = run_cli(
        "check", "--config", str(cfg_dir / "example1_sim.json"),
        "--n-probe", "150", "--cross-grid", "50,100", "--cross-m-grid", "50",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["all_pass"] is True
    assert set(doc["verdicts"]) == CHECKS
    assert doc["probe"] == {"n_probe": 150, "cross_grid": [50, 100], "cross_m_grid": [50]}
    _assert_check_details(doc)
    assert {"max_k_nonzero", "k_cutoff", "nu_grid"} <= set(doc["details"]["psi_decay"])


def test_check_default_grids_on_shipped_config():
    # the array kernels make the default probe grids affordable; no verdict is asserted
    config = os.path.join(ROOT, "configs", "example2.json")
    res = run_cli("check", "--config", config)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert set(doc["verdicts"]) == CHECKS
    assert doc["probe"] == {"n_probe": 500, "cross_grid": [50, 100, 200, 400], "cross_m_grid": [300, 600, 900, 1200]}
    _assert_check_details(doc)
    assert "second_trend" in doc["details"]["cross_sums"]


def _assert_check_details(doc):
    assert set(doc["details"]) == CHECKS
    for details in doc["details"].values():
        assert details["wall_s"] >= 0.0
    assert doc["weight_pass_s"] > 0.0  # run_all's shared weight pass, outside every check
    cross = doc["details"]["cross_sums"]
    assert {"first_trend", "second_curve_max", "second_curve_argmax_n", "ratios"} <= set(cross)
    assert 1 <= cross["second_curve_argmax_n"] <= max(doc["probe"]["cross_m_grid"])
    assert cross["ratios"] == doc["ratios"]


def test_usage_errors_exit_one(cfg_dir, tmp_path):
    res = run_cli("simulate", "--config", str(cfg_dir / "example1_sim.json"), "--n", "0")
    assert res.returncode == 1
    assert "at least 1" in res.stderr
    res = run_cli("nonsense")
    assert res.returncode == 1
    res = run_cli("simulate")  # missing required --config
    assert res.returncode == 1
    for command, flag, value in (
        ("mc", "--n-list", "25,x"),
        ("mc", "--n-list", ""),
        ("check", "--cross-grid", "25,x"),
        ("check", "--cross-grid", ""),
        ("check", "--cross-grid", "0,5"),
        ("check", "--cross-m-grid", "0,5"),
        ("simulate", "--seed", "-1"),  # -1 and 2**64 once aliased seeds and streams 2**64 - 1 and 0
        ("simulate", "--stream", str(1 << 64)),
    ):
        res = run_cli(command, "--config", str(cfg_dir / "example1_sim.json"), flag, value)
        assert res.returncode == 1 and "Traceback" not in res.stderr, (flag, value, res.stderr)
    # an empty n_list in the run block is no study either, not a header-only summary
    cfg = _edited_config(cfg_dir, tmp_path, lambda doc: doc["run"].update(n_list=[]))
    res = run_cli("mc", "--config", cfg, "--replications", "2", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 1 and "series length" in res.stderr, res.stderr
    assert not (tmp_path / "s.csv").exists()


def _edited_config(cfg_dir, tmp_path, edit):
    doc = json.loads((cfg_dir / "example1_sim.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_mc_honours_run_block_tolerances(cfg_dir, tmp_path, monkeypatch):
    # the optimizer's tolerances are constants of estimate; what a run block sets
    # of a fit, theta_init and estimate_sigma, each off its default, reaches fit
    # through both `tdvarma fit` and `tdvarma mc`
    from tdvarma import cli, mc
    from tdvarma.config import RunConfig
    from tdvarma.estimate import fit

    assert RunConfig.estimate_sigma is False
    cfg = _edited_config(
        cfg_dir, tmp_path, lambda doc: doc["run"].update(theta_init=[0.2, 0.3, -0.4], estimate_sigma=True)
    )
    seen = []

    def spy(model, series, theta_init, estimate_sigma=False):
        seen.append((tuple(theta_init), estimate_sigma))
        return fit(model, series, theta_init, estimate_sigma)

    monkeypatch.setattr(cli, "fit", spy)
    monkeypatch.setattr(mc, "fit", spy)
    series, out = str(tmp_path / "x.csv"), str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--n", "40", "--out", series]) == 0
    assert cli.main(["fit", "--config", cfg, "--series", series, "--out", out]) == 0
    argv = ["mc", "--config", cfg, "--n-list", "25", "--replications", "2", "--threads", "1", "--out", out]
    assert cli.main(argv) == 0
    assert seen == [((0.2, 0.3, -0.4), True)] * 3


def test_mc_warns_when_most_replications_fail(cfg_dir, tmp_path, monkeypatch, capsys):
    # a replication whose fit raises counts as not converged; past 5% of a cell the
    # CLI warns on stderr, and still writes the summary and exits 0
    from tdvarma import cli, mc
    from tdvarma.errors import NumericalError
    from tdvarma.estimate import fit

    cfg = str(cfg_dir / "example1_sim.json")
    argv = ["mc", "--config", cfg, "--n-list", "40", "--replications", "4", "--threads", "1"]
    out = tmp_path / "clean.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert "failed to converge" not in capsys.readouterr().err and out.exists()
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise NumericalError("fit broke down")
        return fit(*args, **kwargs)

    monkeypatch.setattr(mc, "fit", failing)
    out = tmp_path / "failing.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert "warning: more than 5% of replications failed to converge" in capsys.readouterr().err
    assert len(calls) == 4 and out.read_text().startswith("n,")


def test_non_finite_config_numbers_rejected(cfg_dir, tmp_path):
    # JSON's NaN and Infinity load as floats; each of these once reached the numerics
    from tdvarma import config
    from tdvarma.errors import ConfigError

    def layout(**keys):
        return lambda doc: doc["model"]["layout"].update(keys)

    def constant(value):
        return lambda doc: doc["model"]["a_funcs"][0][0][0]["constants"].update(omega=value)

    for edit, key in (
        (lambda doc: doc["run"].update(theta_init=[math.nan, 0.1, 0.1]), "run key 'theta_init'"),
        (layout(theta0=[math.inf, 0.5, -0.9]), "model.layout key 'theta0'"),
        (constant(-math.inf), r"a_funcs\[0\]\[0\]\[0\] key 'omega'"),
        (layout(bounds=[[math.nan, 1.0], None, None]), "model.layout key 'bounds'"),
    ):
        with pytest.raises(ConfigError, match=key):
            config.load(_edited_config(cfg_dir, tmp_path, edit))
    # an infinite end of a bound is no bound on that side
    unbounded = _edited_config(cfg_dir, tmp_path, layout(bounds=[[-math.inf, 1.0], None, None]))
    assert config.load(unbounded)[0].layout.bounds[0] == (-math.inf, 1.0)
    cfg = _edited_config(cfg_dir, tmp_path, layout(theta0=[math.inf, 0.5, -0.9]))
    res = run_cli("asymptotics", "--config", cfg, "--n", "50")
    assert res.returncode == 1 and res.stderr.startswith("error:") and "Traceback" not in res.stderr, res.stderr


@pytest.mark.parametrize("edit, key", [
    (lambda doc, big: doc["model"].update(sigma=[[big, 0], [0, 1]]), "model key 'sigma'"),
    (lambda doc, big: doc["model"]["layout"].update(theta0=[big, 0.5, -0.9]), "model.layout key 'theta0'"),
    (lambda doc, big: doc["model"]["layout"].update(bounds=[[-big, 1.0], None, None]), "model.layout key 'bounds'"),
    (lambda doc, big: doc["model"]["a_funcs"][0][0][0]["constants"].update(omega=big), "key 'omega'"),
    (lambda doc, big: doc["run"].update(theta_init=[0.1, big, 0.1]), "run key 'theta_init'"),
], ids=["sigma", "theta0", "bounds", "constant", "theta_init"])
def test_config_integers_beyond_float_range_rejected(edit, key, cfg_dir, tmp_path, capsys):
    # each once ended in an OverflowError traceback
    from tdvarma import cli

    cfg = _edited_config(cfg_dir, tmp_path, lambda doc: edit(doc, 10 ** 400))
    assert cli.main(["check", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "float range" in err, err


def test_config_integer_past_the_digit_limit_rejected(tmp_path, capsys):
    # json reads no integer literal of more than 4300 digits, and once raised a ValueError
    from tdvarma import cli

    path = tmp_path / "huge.json"
    path.write_text('{"model": {"r": ' + "9" * 5000 + "}}")
    assert cli.main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: unreadable number in {path}")


def test_config_without_true_value_is_a_usage_error(cfg_dir, tmp_path):
    def no_start(doc):
        doc["model"]["layout"].update(theta0=None)
        doc["run"].update(theta_init=None)

    cfg = _edited_config(cfg_dir, tmp_path, no_start)
    series = tmp_path / "x.csv"
    series.write_text("t,x1,x2\n" + "".join(f"{t},0.{t},-0.{t}\n" for t in range(1, 11)))
    for args in (("simulate", "--n", "10"), ("mc", "--n-list", "25", "--replications", "2"),
                 ("fit", "--series", str(series))):
        res = run_cli(*args, "--config", cfg)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


@pytest.mark.parametrize("table", [1, 2])
def test_mc_reports_the_cells_of_a_paper_table(table, tmp_path):
    # the shipped config of a table is its design: past the overrides, stderr shows
    # each cell against the printed values, with the labels and decimals of the paper
    cfg = os.path.join(ROOT, "configs", f"{PAPER_TABLES[table].which}.json")
    summary = tmp_path / "s.csv"
    res = run_cli("mc", "--config", cfg, "--n-list", "25,50", "--replications", "2", "--threads", "1",
                  "--out", str(summary))
    assert res.returncode == 0 and res.stdout == "", res.stderr
    values = {}
    for row in summary.read_text().splitlines()[1:]:
        n, _, line, value = row.split(",")
        values.setdefault((int(n), line), []).append(float(value))
    labels = {"a": ("mean estimate", 4), "b": ("mean est. se", 4), "c": ("sample std", 4), "d": ("rejection %", 1)}
    expected = []
    for n in (25, 50):
        expected.append(f"n={n} (converged {2 - int(values[n, 'excluded'][0])}/2)")
        for line in "abcd" if table == 1 else "acd":
            label, decimals = labels[line]
            # every printed value is shown, table 2's line (c) at n = 50 too
            pub = PAPER_TABLES[table].printed[n].get(line)
            expected.append(f"  ({line}) {label:<14}: {np.round(values[n, line], decimals).tolist()}"
                            + (f"  published {pub}" if pub else ""))
    assert res.stderr.splitlines() == expected


def test_mc_reports_no_cells_off_a_paper_table_design(cfg_dir, tmp_path):
    edits = (lambda doc: doc["run"].update(theta_init=[0.2, 0.1, 0.1]),
             lambda doc: doc["model"].update(sigma=[[2.0, 0.0], [0.0, 1.0]]))
    for cfg in [str(cfg_dir / "example1_theory.json")] + [_edited_config(cfg_dir, tmp_path, e) for e in edits]:
        res = run_cli("mc", "--config", cfg, "--n-list", "25", "--replications", "2", "--out", str(tmp_path / "s.csv"))
        assert res.returncode == 0 and res.stderr == "", res.stderr


def test_malformed_config_names_offending_key(tmp_path):
    bad = tmp_path / "bad.json"
    doc = {
        "model": {
            "r": 2, "p": 0, "q": 0, "a_funcs": [], "b_funcs": [],
            "g_func": None, "sigma": [[1, 0], [0, 1]],
            "layout": {"names": ["s"], "n_ar": 0, "n_ma": 0},
            "bogus_key": 1,
        }
    }
    bad.write_text(json.dumps(doc))
    res = run_cli("check", "--config", str(bad))
    assert res.returncode == 1
    assert "bogus_key" in res.stderr


def test_dimension_limits_enforced_at_parse(tmp_path):
    bad = tmp_path / "big.json"
    doc = {
        "model": {
            "r": 9, "p": 0, "q": 0, "a_funcs": [], "b_funcs": [],
            "g_func": None, "sigma": np.eye(9).tolist(),
            "layout": {"names": [], "n_ar": 0, "n_ma": 0},
        }
    }
    bad.write_text(json.dumps(doc))
    res = run_cli("check", "--config", str(bad))
    assert res.returncode == 1
    assert "r=9" in res.stderr


def test_version_prints_rng_identifier():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "philox" in res.stdout.lower()


def test_mc_output_does_not_depend_on_threads(cfg_dir, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        summary, estimates = tmp_path / f"summary{threads}.csv", tmp_path / f"estimates{threads}.csv"
        res = run_cli("mc", "--config", str(cfg_dir / "example1_sim.json"), "--replications", "6",
                      "--n-list", "25,30", "--threads", threads, "--out", str(summary), "--estimates", str(estimates))
        assert res.returncode == 0, res.stderr
        outputs.append((summary.read_bytes(), estimates.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) == 1 + 2 * 6 * 3


@pytest.mark.parametrize("names", [[], ["a", "a", "b"], ["a", "b,c", "d"], ["a", "b\nc", "d"]])
def test_unusable_parameter_names_are_a_usage_error(cfg_dir, tmp_path, names):
    # each once wrote CSVs a reader cannot split, or ended in a traceback
    doc = json.loads((cfg_dir / "example1_sim.json").read_text())
    doc["model"]["layout"]["names"] = names
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("mc", "--config", str(bad), "--replications", "2", "--n-list", "25")
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error:") and "parameter name" in res.stderr, res.stderr


def _series_file(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "case",
    ["missing_config", "missing_series", "out_dir_missing", "examples_out_is_file", "non_numeric_cell", "ragged_row",
     "config_not_utf8", "series_not_utf8"],
)
def test_input_and_output_errors_exit_one(case, cfg_dir, tmp_path):
    # each once ended in a FileNotFoundError, FileExistsError, ValueError or UnicodeDecodeError traceback
    cfg = str(cfg_dir / "example1_sim.json")
    good = _series_file(tmp_path, "t,x1,x2\n1,0.5,0.25\n2,0.1,-0.3\n")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("t,x1,x2\n1,0.5,0.25\n# \u00e9t\u00e9\n".encode("latin-1"))
    args = {
        "missing_config": ("simulate", "--config", str(tmp_path / "absent.json")),
        "missing_series": ("fit", "--config", cfg, "--series", str(tmp_path / "absent.csv")),
        "out_dir_missing": ("simulate", "--config", cfg, "--n", "5", "--out", str(tmp_path / "no" / "s.csv")),
        "examples_out_is_file": ("examples", "--which", "2", "--out", good),
        "non_numeric_cell": ("fit", "--config", cfg, "--series", _series_file(tmp_path, "t,x1,x2\n1,0.5,abc\n")),
        "ragged_row": ("fit", "--config", cfg, "--series", _series_file(tmp_path, "t,x1,x2\n1,0.5,0.2\n2,0.1\n")),
        "config_not_utf8": ("check", "--config", str(latin1)),
        "series_not_utf8": ("fit", "--config", cfg, "--series", str(latin1)),
    }[case]
    res = run_cli(*args)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr, res.stderr
    if case.endswith("utf8"):
        assert res.stderr == f"error: {latin1} is not UTF-8 text\n", res.stderr


def test_readme_commands_parse_and_name_existing_scripts(capsys):
    # the README's commands are what a reader runs first; each tdvarma line must parse
    from tdvarma import cli

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("tdvarma ")]
    # a command reproduces each paper table from its shipped config
    mc_configs = {argv[argv.index("--config") + 1] for argv in commands if argv[1] == "mc"}
    assert {f"configs/{t.which}.json" for t in PAPER_TABLES.values()} <= mc_configs, mc_configs
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit as exc:
            assert exc.code == 0 and argv == ["tdvarma", "--version"], (argv, capsys.readouterr().err)
    scripts = set(re.findall(r"scripts/[\w/.-]+?\.py", readme))
    assert scripts and all(os.path.isfile(os.path.join(ROOT, path)) for path in scripts), scripts
