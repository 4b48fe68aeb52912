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
              "theta_init": [float, ...] | null, "estimate_sigma": bool}
    }

where each coefficient entry is a {kind, constants, param_slots} record.
Unknown keys anywhere are rejected, and so are values of another JSON type: a
string number, a boolean or a non-integral number where an integer belongs.
NaN is rejected everywhere, and +-Infinity everywhere but at an end of a
layout bound.  Every run key is optional, with RunConfig's defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

from .errors import ConfigError
from .model import ParamLayout, TdVarmaModel
from .timefn import MatrixTimeFunction

MAX_DIM = 8
MAX_ORDER = 4

_MODEL_KEYS = {"r", "p", "q", "a_funcs", "b_funcs", "g_func", "sigma", "layout"}
_LAYOUT_KEYS = {"names", "n_ar", "n_ma", "theta0", "bounds"}
_ENTRY_KEYS = {"kind", "constants", "param_slots", "terms"}


@dataclass
class RunConfig:
    """A configuration's run block: the simulation and Monte Carlo design, and
    the start and noise-covariance treatment of each fit."""

    seed: int = 20240501
    n: int = 100
    replications: int = 1000
    n_list: tuple = (25, 50, 100, 200, 400)
    theta_init: Optional[tuple] = None
    estimate_sigma: bool = False


_RUN_KEYS = {f.name for f in fields(RunConfig)}


def _reject_unknown(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in {where}")


def _check_entries(rows, where: str):
    """rows as a list of rows, each a list of entry records, at the model key where."""
    for i, row in enumerate(_checked("model", where, rows, list)):
        for j, rec in enumerate(_checked("model", f"{where}[{i}]", row, list)):
            at = f"{where}[{i}][{j}]"
            if not isinstance(rec, dict):
                raise ConfigError(f"{at} must be an object")
            _reject_unknown(rec, _ENTRY_KEYS, at)
            for name, value in _checked(at, "constants", rec.get("constants", {}), dict).items():
                _checked(at, name, value, float)
            _checked_list(at, "param_slots", rec.get("param_slots", []), int)
            if "terms" in rec:
                _check_entries([_checked(at, "terms", rec["terms"], list)], f"{at}.terms")


def model_from_config(block: dict) -> TdVarmaModel:
    if not isinstance(block, dict):
        raise ConfigError("'model' must be an object")
    _reject_unknown(block, _MODEL_KEYS, "model")
    try:
        r, p, q = (_checked("model", key, block[key], int) for key in ("r", "p", "q"))
        sigma = [_checked_list("model", "sigma", row, float) for row in _checked("model", "sigma", block["sigma"], list)]
        layout_block = _checked("model", "layout", block["layout"], dict)
    except KeyError as exc:
        raise ConfigError(f"missing model key {exc}") from exc
    if not 1 <= r <= MAX_DIM:
        raise ConfigError(f"dimension r={r} outside 1..{MAX_DIM}")
    if not 0 <= p <= MAX_ORDER or not 0 <= q <= MAX_ORDER:
        raise ConfigError(f"orders (p={p}, q={q}) outside 0..{MAX_ORDER}")
    if len(sigma) != r or any(len(row) != r for row in sigma):
        raise ConfigError(f"model key 'sigma' must be an r x r matrix (r={r})")
    _reject_unknown(layout_block, _LAYOUT_KEYS, "model.layout")
    at = "model.layout"
    theta0, bounds = layout_block.get("theta0"), layout_block.get("bounds")
    try:
        layout = ParamLayout(
            names=_checked_list(at, "names", layout_block["names"], str),
            n_ar=_checked(at, "n_ar", layout_block["n_ar"], int),
            n_ma=_checked(at, "n_ma", layout_block["n_ma"], int),
            theta0=None if theta0 is None else _checked_list(at, "theta0", theta0, float),
            bounds=None if bounds is None else tuple(
                b if b is None else _checked_list(at, "bounds", b, float, infinite_ok=True)
                for b in _checked(at, "bounds", bounds, list)
            ),
        )
    except KeyError as exc:
        raise ConfigError(f"missing layout key {exc}") from exc

    a_rows, b_rows = (_checked("model", key, block.get(key, []), list) for key in ("a_funcs", "b_funcs"))
    if len(a_rows) != p or len(b_rows) != q:
        raise ConfigError("a_funcs/b_funcs length must equal the declared orders")
    for mats, where in ((a_rows, "a_funcs"), (b_rows, "b_funcs")):
        for k, mat in enumerate(mats):
            _check_entries(mat, f"{where}[{k}]")
    a_funcs = [MatrixTimeFunction.from_config(mat) for mat in a_rows]
    b_funcs = [MatrixTimeFunction.from_config(mat) for mat in b_rows]
    g_block = block.get("g_func")
    if g_block is not None:
        _check_entries(g_block, "g_func")
    g_func = MatrixTimeFunction.from_config(g_block) if g_block is not None else None
    return TdVarmaModel(r=r, a_funcs=a_funcs, b_funcs=b_funcs, g_func=g_func, sigma=sigma, layout=layout)


_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _checked(where: str, key: str, value, kind: type, infinite_ok: bool = False):
    """value as a config value of kind bool, int, float, str, list or dict; any other
    JSON type is a ConfigError naming where and key, and so is a boolean or a
    non-integral number for an int, NaN, an integer beyond the float range for a
    float, and an infinite float unless infinite_ok (an end of a layout bound).
    Numbers are converted to kind."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = {bool: isinstance(value, bool), int: number and (isinstance(value, int) or value.is_integer()), float: number}
    if not ok.get(kind, isinstance(value, kind)):
        raise ConfigError(f"{where} key '{key}' must be {_EXPECTED[kind]}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise ConfigError(f"{where} key '{key}' must be a number within the float range") from None
        if not (math.isfinite(value) or infinite_ok and not math.isnan(value)):
            wanted = "a number" if infinite_ok else "finite"
            raise ConfigError(f"{where} key '{key}' must be {wanted}, got {value!r}")
    return kind(value) if kind in ok else value


def _checked_list(where: str, key: str, value, kind: type, infinite_ok: bool = False) -> tuple:
    return tuple(_checked(where, key, v, kind, infinite_ok) for v in _checked(where, key, value, list))


def run_from_config(block: Optional[dict]) -> RunConfig:
    if block is None:
        return RunConfig()
    if not isinstance(block, dict):
        raise ConfigError("'run' must be an object")
    _reject_unknown(block, _RUN_KEYS, "run")
    cfg = RunConfig()
    for key, value in block.items():
        if key == "n_list":
            value = _checked_list("run", key, value, int)
        elif key == "theta_init":
            value = None if value is None else _checked_list("run", key, value, float)
        else:
            value = _checked("run", key, value, type(getattr(cfg, key)))
        setattr(cfg, key, value)
    return cfg


def read_text(path: str) -> str:
    """The text of the file at path; bytes that are not UTF-8 are a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None


def load(path: str) -> tuple[TdVarmaModel, RunConfig]:
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigError(f"unreadable number in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    _reject_unknown(doc, {"model", "run"}, "configuration root")
    if "model" not in doc:
        raise ConfigError("missing 'model' block")
    model = model_from_config(doc["model"])
    run = run_from_config(doc.get("run"))
    return model, run


def model_to_config(model: TdVarmaModel) -> dict:
    """The model block as `load` reads it back from the file `dump` writes."""
    block = {
        "r": model.r,
        "p": model.p,
        "q": model.q,
        "a_funcs": [f.to_config() for f in model.a_funcs],
        "b_funcs": [f.to_config() for f in model.b_funcs],
        "g_func": model.g_func.to_config(),
        "sigma": model.sigma.tolist(),
        "layout": asdict(model.layout),
    }
    return json.loads(json.dumps(block))


def dump(model: TdVarmaModel, run: Optional[RunConfig], path: str):
    doc: dict = {"model": model_to_config(model)}
    if run is not None:
        doc["run"] = asdict(run)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
