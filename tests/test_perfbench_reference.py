"""The benchmark's output checks, run in the suite: every Monte Carlo workload's
reference cell and every theory call against perfbench/reference.json.  A change
that moves an estimate past the benchmark's tolerance fails here first."""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    # executed from its source text so that nothing is written next to it; its
    # dataclasses look their module up in sys.modules
    module = sys.modules.setdefault("perfbench_workloads", types.ModuleType("perfbench_workloads"))
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), vars(module))
    return vars(module)


WL = _workloads()
REFERENCE = WL["load_reference"]()
THEORY_CALLS = dict(WL["theory_calls"](WL["theory_models"]()))


@pytest.mark.parametrize("name", sorted(WL["MC_WORKLOADS"]))
def test_reference_cell(name):
    spec, ref = WL["MC_WORKLOADS"][name], REFERENCE["mc"][name]
    model = spec.build_model()
    mc = WL["mc"]
    summary = mc.run_mc(spec.plan(model, ref["seed"], ref["replications"]), threads=1)
    ok, detail = WL["compare_cells"](mc.summary_to_csv(summary), ref["summary_csv"], ref["replications"])
    assert ok, detail


@pytest.mark.parametrize("name", sorted(THEORY_CALLS))
def test_theory_output(name):
    ok, detail = WL["compare_theory"](name, THEORY_CALLS[name](), REFERENCE["theory"][name])
    assert ok, detail
