import json
import re
from pathlib import Path

import numpy as np
import pytest

from tdvarma import config, examples
from tdvarma.config import RunConfig
from tdvarma.errors import ConfigError
from tdvarma.simulate import innovation_correlation


def test_example1_sim_layout():
    m = examples.build("example1_sim")
    assert m.m == 3
    assert (m.layout.n_ar, m.layout.n_ma, len(m.layout.scale_slots)) == (3, 0, 0)
    assert m.layout.theta0 == (0.8, 0.5, -0.9)
    np.testing.assert_array_equal(m.sigma, np.eye(2))


def test_example2_layout():
    m = examples.build("example2")
    assert m.m == 4
    assert (m.layout.n_ar, m.layout.n_ma, len(m.layout.scale_slots)) == (2, 0, 2)
    assert m.layout.theta0 == (0.8, -0.9, 1.0, -1.0)
    np.testing.assert_array_equal(m.sigma, [[1.0, 0.5], [0.5, 1.0]])


def test_example1_theory_residual_cov_is_identity():
    m = examples.build("example1_theory")
    assert m.m == 2
    th = np.array(m.layout.theta0)
    for t in (1, 100, 400):
        np.testing.assert_array_equal(m.sigma_t(t, th), np.eye(2))


def test_builders_pass_construction_invariants():
    # construction is eager: positive definite noise and invertible scale to t=400
    for which in examples.EXAMPLE_IDS:
        examples.build(which)


@pytest.mark.parametrize("which", examples.EXAMPLE_IDS)
def test_shipped_config_matches_model_and_paper_run(which):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{which}.json"
    doc = json.loads(path.read_text())
    assert doc["model"] == json.loads(json.dumps(config.model_to_config(examples.build(which))))
    assert config.load(str(path))[1] == examples.paper_run(which)


def test_paper_run_takes_its_table_design():
    for table in examples.PAPER_TABLES.values():
        run = examples.paper_run(table.which)
        assert (run.seed, run.n_list, run.replications) == (table.seed, table.n_list, table.replications)
        assert all(set(cells) <= set(table.shown) for cells in table.printed.values())
    # in no table: the default design
    run = examples.paper_run("example1_theory")
    assert (run.seed, run.n_list, run.replications) == (RunConfig.seed, RunConfig.n_list, RunConfig.replications)


def test_no_printed_value_outside_the_record():
    # the record in examples is the only copy of the paper's printed (a)-(c) and
    # theoretical values, bar round ones (at most two decimals) that ordinary
    # constants share, and of the tables' seeds of four digits or more
    values = [v for table in examples.PAPER_TABLES.values() for cells in table.printed.values()
              for line, row in cells.items() if line in "abc" for v in row]
    values += [v for by_n in examples.PRINTED_THEORY_SE.values() for row in by_n.values() for v in row]
    wanted = {abs(v) for v in values if not f"{v:.4f}".endswith("00")}
    wanted |= {t.seed for t in examples.PAPER_TABLES.values() if t.seed >= 1000}
    root = Path(__file__).resolve().parents[1]
    record = root / "src" / "tdvarma" / "examples.py"
    sources = [*root.glob("scripts/*.py"), *root.glob("tests/*.py"), *root.glob("src/tdvarma/*.py")]
    found = []
    for path in sorted(set(sources) - {record}):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for tok in re.findall(r"(?<![\w.])\d+(?:\.\d+)?(?![\w.])", line):
                if float(tok) in wanted:
                    found.append(f"{path.relative_to(root)}:{lineno}: {tok}")
    assert not found, "\n".join(found)


def test_example2_correlation_range():
    m = examples.build("example2")
    th = np.array(m.layout.theta0)
    vals = [innovation_correlation(m, th, t) for t in range(1, 201)]
    assert max(vals) == pytest.approx(0.8, abs=0.02)
    assert min(vals) == pytest.approx(-0.8, abs=0.02)


def test_unknown_example_id_rejected():
    with pytest.raises(ConfigError):
        examples.build("example3")


@pytest.mark.parametrize(
    "key, value",
    [
        ("estimate_sigma", "false"),
        ("estimate_sigma", 0),
        ("n", 2.5),
        ("seed", True),
        ("replications", True),
        ("seed", "12"),
        ("n", None),
        ("n_list", [25, 50.5]),
        ("n_list", [25, False]),
        ("n_list", 25),
        ("replications", 2.5),
        ("theta_init", [0.1, True, 0.1]),
        ("theta_init", [0.1, "0.1", 0.1]),
    ],
)
def test_malformed_run_value_rejected(key, value):
    # each was once cast to the type of its default ("false" loaded as True)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config.run_from_config({key: value})


@pytest.mark.parametrize("key", ["max_iters", "grad_tol", "step_tol", "sigma_iters"])
def test_removed_fit_setting_rejected(key, tmp_path):
    # the optimizer's settings are constants of estimate; a config naming one,
    # even at its old default, names an unknown key
    old_default = {"max_iters": 200, "grad_tol": 1e-6, "step_tol": 1e-10, "sigma_iters": 3}[key]
    path = tmp_path / "cfg.json"
    model = config.model_to_config(examples.build("example1_sim"))
    path.write_text(json.dumps({"model": model, "run": {key: old_default}}))
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in run"):
        config.load(str(path))


def test_integral_run_values_accepted():
    run = config.run_from_config({"seed": 12.0, "replications": 3.0, "n_list": [25, 50.0], "theta_init": [1, 0.5]})
    assert (run.seed, run.replications, run.n_list, run.theta_init) == (12, 3, (25, 50), (1.0, 0.5))
    assert type(run.seed) is int and type(run.replications) is int and type(run.n_list[1]) is int
    assert all(type(v) is float for v in run.theta_init)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("r",), 2.7, "r"),
        (("r",), "2", "r"),
        (("q",), True, "q"),
        (("layout", "n_ar"), 3.9, "n_ar"),
        (("layout", "n_ma"), "0", "n_ma"),
        (("layout", "names"), ["a11_amp", 2, "eta11", "eta22"], "names"),
        (("layout", "theta0", 1), "-0.9", "theta0"),
        (("layout", "bounds"), [None, ["0", 1], None, None], "bounds"),
        (("layout", "bounds"), [None, [0, 1, 2], None, None], "pair"),
        (("layout", "bounds"), "none", "bounds"),
        (("sigma", 0, 1), "0.5", "sigma"),
        (("sigma",), [[1.0, 0.5], [0.5]], "sigma"),
        (("layout",), "x", "layout"),
        (("g_func", 0, 0, "constants", "omega"), "0.1", "omega"),
        (("g_func", 0, 0, "constants"), [0.1], "constants"),
        (("a_funcs", 0, 0, 0, "param_slots"), [0.5], "param_slots"),
        (("a_funcs", 0, 0, 0, "param_slots"), ["0"], "param_slots"),
        (("a_funcs", 0, 0, 0, "param_slots"), 0, "param_slots"),
        # blocks of the wrong JSON type once ended in a TypeError ("b_funcs": {} was accepted)
        (("a_funcs",), [5], "a_funcs"),
        (("a_funcs",), 5, "a_funcs"),
        (("b_funcs",), {}, "b_funcs"),
        (("a_funcs", 0, 0), 7, "a_funcs"),
        (("g_func",), 3, "g_func"),
        (("g_func", 0, 0), {"kind": "prod", "terms": 3}, "terms"),
    ],
)
def test_malformed_model_value_rejected(path, value, key):
    # each was once cast or truncated ("r": 2.7 loaded as 2, "omega": "0.1" as 0.1)
    doc = config.model_to_config(examples.build("example2"))
    _set(doc, path, value)
    with pytest.raises(ConfigError, match=key):
        config.model_from_config(doc)


def test_integral_model_values_accepted():
    doc = config.model_to_config(examples.build("example2"))
    for path, value in (("r",), 2.0), (("layout", "n_ar"), 2.0), (("sigma", 0, 0), 1), (("layout", "theta0", 2), 1):
        _set(doc, path, value)
    assert config.model_from_config(doc) == examples.build("example2")
