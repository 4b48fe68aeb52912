import json
import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "tdvarma.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHECKS = {"psi_decay", "covariance_bounds", "moment_bounds", "information_pd", "cross_sums"}


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    # the child interpreter imports the package from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
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
    doc = json.load(open(cfg_dir / "example1_sim.json"))
    assert doc["model"]["layout"]["theta0"] == [0.8, 0.5, -0.9]
    assert doc["run"]["theta_init"] == [0.1, 0.1, 0.1]


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
    rounds = doc["metadata"]["rounds"]
    assert len(rounds) >= 1 and rounds[-1][2] == doc["termination"]
    assert sum(r[1] for r in rounds) == doc["n_evals"]
    assert len(doc["se_info"]) == 3 and all(v > 0 for v in doc["se_info"])


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
    config = os.path.join(os.path.dirname(SRC), "configs", "example2.json")
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
    cross = doc["details"]["cross_sums"]
    assert {"first_trend", "second_curve_max", "second_curve_argmax_n", "ratios"} <= set(cross)
    assert 1 <= cross["second_curve_argmax_n"] <= max(doc["probe"]["cross_m_grid"])
    assert cross["ratios"] == doc["ratios"]


def test_usage_errors_exit_one(cfg_dir):
    res = run_cli("simulate", "--config", str(cfg_dir / "example1_sim.json"), "--n", "0")
    assert res.returncode == 1
    assert "at least 1" in res.stderr
    res = run_cli("nonsense")
    assert res.returncode == 1
    res = run_cli("simulate")  # missing required --config
    assert res.returncode == 1


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


def test_thread_env_var_and_flag_precedence(cfg_dir, tmp_path):
    # results are identical regardless of the worker count; the env var sets
    # the default and --threads overrides it
    base = tmp_path / "base.csv"
    env = tmp_path / "env.csv"
    flag = tmp_path / "flag.csv"
    common = ["mc", "--config", str(cfg_dir / "example1_sim.json"),
              "--replications", "6", "--n-list", "25"]
    assert run_cli(*common, "--out", str(base)).returncode == 0
    assert run_cli(*common, "--out", str(env), env_extra={"TDVARMA_THREADS": "3"}).returncode == 0
    assert run_cli(*common, "--threads", "2", "--out", str(flag),
                   env_extra={"TDVARMA_THREADS": "bogus"}).returncode == 0
    assert base.read_bytes() == env.read_bytes() == flag.read_bytes()
    # a bogus env var without the overriding flag is a usage error
    res = run_cli(*common, "--out", str(tmp_path / "x.csv"), env_extra={"TDVARMA_THREADS": "bogus"})
    assert res.returncode == 1
