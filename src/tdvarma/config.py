"""Strict JSON configuration for models and runs.

A configuration document has two blocks::

    {
      "model": {
        "r": 2, "p": 1, "q": 0,
        "a_funcs": [ [[entry, entry], [entry, entry]] ],   # p matrices
        "b_funcs": [],                                     # q matrices
        "g_func": [[entry, entry], [entry, entry]] | null, # null = identity
        "sigma": [[1.0, 0.0], [0.0, 1.0]],
        "layout": {"names": [...], "n_ar": 3, "n_ma": 0,
                   "theta0": [...] | null, "bounds": [[lo, hi] | null, ...] | null}
      },
      "run": {"seed": int, "n": int, "replications": int, "n_list": [int, ...],
              "theta_init": [float, ...] | null, "estimate_sigma": bool,
              "sigma_iters": int, "max_iters": int, "grad_tol": float, "step_tol": float}
    }

where each coefficient entry is a {kind, constants, param_slots} record.
Unknown keys anywhere are rejected, and so are run values of another JSON type;
every run key is optional, with RunConfig's defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError
from .estimate import FitOptions
from .model import ParamLayout, TdVarmaModel
from .timefn import MatrixTimeFunction

MAX_DIM = 8
MAX_ORDER = 4

_MODEL_KEYS = {"r", "p", "q", "a_funcs", "b_funcs", "g_func", "sigma", "layout"}
_LAYOUT_KEYS = {"names", "n_ar", "n_ma", "theta0", "bounds"}
_ENTRY_KEYS = {"kind", "constants", "param_slots", "terms"}


@dataclass
class RunConfig:
    """A configuration's run block; its fit settings default to FitOptions'."""

    seed: int = 20240501
    n: int = 100
    replications: int = 1000
    n_list: tuple = (25, 50, 100, 200, 400)
    theta_init: Optional[tuple] = None
    estimate_sigma: bool = FitOptions.estimate_sigma
    sigma_iters: int = FitOptions.sigma_iters
    max_iters: int = FitOptions.max_iters
    grad_tol: float = FitOptions.grad_tol
    step_tol: float = FitOptions.step_tol


_RUN_KEYS = {f.name for f in fields(RunConfig)}


def _reject_unknown(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in {where}")


def _check_entries(rows, where: str):
    for i, row in enumerate(rows):
        for j, rec in enumerate(row):
            if not isinstance(rec, dict):
                raise ConfigError(f"{where}[{i}][{j}] must be an object")
            _reject_unknown(rec, _ENTRY_KEYS, f"{where}[{i}][{j}]")
            if "terms" in rec:
                _check_entries([rec["terms"]], f"{where}[{i}][{j}].terms")


def model_from_config(block: dict) -> TdVarmaModel:
    if not isinstance(block, dict):
        raise ConfigError("'model' must be an object")
    _reject_unknown(block, _MODEL_KEYS, "model")
    try:
        r = int(block["r"])
        p = int(block["p"])
        q = int(block["q"])
        sigma = np.asarray(block["sigma"], dtype=float)
        layout_block = block["layout"]
    except KeyError as exc:
        raise ConfigError(f"missing model key {exc}") from exc
    if not 1 <= r <= MAX_DIM:
        raise ConfigError(f"dimension r={r} outside 1..{MAX_DIM}")
    if not 0 <= p <= MAX_ORDER or not 0 <= q <= MAX_ORDER:
        raise ConfigError(f"orders (p={p}, q={q}) outside 0..{MAX_ORDER}")
    _reject_unknown(layout_block, _LAYOUT_KEYS, "model.layout")
    try:
        layout = ParamLayout(
            names=tuple(str(n) for n in layout_block["names"]),
            n_ar=int(layout_block["n_ar"]),
            n_ma=int(layout_block["n_ma"]),
            theta0=tuple(layout_block["theta0"]) if layout_block.get("theta0") is not None else None,
            bounds=tuple(tuple(b) if b is not None else None for b in layout_block["bounds"])
            if layout_block.get("bounds") is not None
            else None,
        )
    except KeyError as exc:
        raise ConfigError(f"missing layout key {exc}") from exc

    a_rows = block.get("a_funcs", [])
    b_rows = block.get("b_funcs", [])
    if len(a_rows) != p or len(b_rows) != q:
        raise ConfigError("a_funcs/b_funcs length must equal the declared orders")
    for mats, where in ((a_rows, "a_funcs"), (b_rows, "b_funcs")):
        for mat in mats:
            _check_entries(mat, where)
    a_funcs = [MatrixTimeFunction.from_config(mat) for mat in a_rows]
    b_funcs = [MatrixTimeFunction.from_config(mat) for mat in b_rows]
    g_block = block.get("g_func")
    if g_block is not None:
        _check_entries(g_block, "g_func")
    g_func = MatrixTimeFunction.from_config(g_block) if g_block is not None else None
    return TdVarmaModel(r=r, a_funcs=a_funcs, b_funcs=b_funcs, g_func=g_func, sigma=sigma, layout=layout)


def _run_value(key: str, value, kind: type):
    """value as a run setting of kind bool, int or float; any other JSON type is a
    ConfigError, and so is a boolean or a non-integral number for an int."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    integral = number and (isinstance(value, int) or value.is_integer())
    if not {bool: isinstance(value, bool), int: integral, float: number}[kind]:
        expected = {bool: "a boolean", int: "an integer", float: "a number"}[kind]
        raise ConfigError(f"run key '{key}' must be {expected}, got {value!r}")
    return kind(value)


def _run_list(key: str, value, kind: type) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"run key '{key}' must be a list, got {value!r}")
    return tuple(_run_value(key, v, kind) for v in value)


def run_from_config(block: Optional[dict]) -> RunConfig:
    if block is None:
        return RunConfig()
    if not isinstance(block, dict):
        raise ConfigError("'run' must be an object")
    _reject_unknown(block, _RUN_KEYS, "run")
    cfg = RunConfig()
    for key, value in block.items():
        if key == "n_list":
            value = _run_list(key, value, int)
        elif key == "theta_init":
            value = None if value is None else _run_list(key, value, float)
        else:
            value = _run_value(key, value, type(getattr(cfg, key)))
        setattr(cfg, key, value)
    return cfg


def load(path: str) -> tuple[TdVarmaModel, RunConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    _reject_unknown(doc, {"model", "run"}, "configuration root")
    if "model" not in doc:
        raise ConfigError("missing 'model' block")
    model = model_from_config(doc["model"])
    run = run_from_config(doc.get("run"))
    return model, run


def model_to_config(model: TdVarmaModel) -> dict:
    lay = model.layout
    return {
        "r": model.r,
        "p": model.p,
        "q": model.q,
        "a_funcs": [f.to_config() for f in model.a_funcs],
        "b_funcs": [f.to_config() for f in model.b_funcs],
        "g_func": model.g_func.to_config(),
        "sigma": model.sigma.tolist(),
        "layout": {
            "names": list(lay.names),
            "n_ar": lay.n_ar,
            "n_ma": lay.n_ma,
            "theta0": list(lay.theta0) if lay.theta0 is not None else None,
            "bounds": [list(b) if b is not None else None for b in lay.bounds]
            if lay.bounds is not None
            else None,
        },
    }


def dump(model: TdVarmaModel, run: Optional[RunConfig], path: str):
    doc: dict = {"model": model_to_config(model)}
    if run is not None:
        doc["run"] = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(run).items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
