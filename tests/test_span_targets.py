"""The benchmark's traced runs wrap package names listed in perfbench/tracer.py;
a refactor that removes one of them would break those runs."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _span_targets():
    # executed from its source text so that nothing is written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["SPAN_TARGETS"]


@pytest.mark.parametrize("module_name,cls_name,attr,span", _span_targets(), ids=lambda v: str(v))
def test_span_target_resolves(module_name, cls_name, attr, span):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    # the tracer wraps only attributes the owner defines itself
    assert attr in vars(owner), f"{span}: {module_name}.{cls_name or ''} defines no {attr}"
    assert callable(vars(owner)[attr])
