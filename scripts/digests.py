#!/usr/bin/env python3
"""Named digests of the theory path's outputs, to show that a change keeps them or
how far it moves them.

    python scripts/digests.py --out old.json                 # in the old checkout
    python scripts/digests.py --out new.json --against old.json
    python scripts/digests.py --out d.json --small           # a reduced size

Each name holds one output: a run_all report less its wall times, on the shipped
examples, the benchmark's VARMA(1,1) and two random VARMA(2,2) draws, at the
criterion-9 grid and a grid whose cross-sum horizon passes n_probe; the entries of
build_psi and build_pi tables; and theoretical_v(., 400).v.  A name's sha256
covers its floats bit for bit and everything around them (verdicts, detail keys,
integers), and its floats go, as float64 arrays, to the .npz beside the JSON.
--against prints, for each name, "identical" or the largest difference relative to
the largest entry of its array, and where it is.  The bits depend on the BLAS and
the machine, so compare runs made on one machine.  The package is read from this
checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import make_random_varma22, make_sin_varma11  # noqa: E402
from tdvarma import examples  # noqa: E402
from tdvarma.assumptions import run_all  # noqa: E402
from tdvarma.asymptotics import theoretical_v  # noqa: E402
from tdvarma.representations import build_pi, build_psi  # noqa: E402

CRIT9 = dict(n_probe=250, cross_grid=(50, 100, 200), cross_m_grid=(50, 100), info_grid=(25, 50, 100))
TAIL = dict(n_probe=100, cross_grid=(50, 100), cross_m_grid=(150, 300), info_grid=(25,))
SMALL = dict(n_probe=30, cross_grid=(10, 20), cross_m_grid=(20, 40), info_grid=(10,))  # its horizon passes n_probe


def models() -> dict:
    return {
        "example1_sim": examples.build("example1_sim"),
        "example1_theory": examples.build("example1_theory"),
        "example2": examples.build("example2"),
        "varma11": make_sin_varma11(np.random.default_rng(909)),  # the benchmark's
        "varma22_a": make_random_varma22(np.random.default_rng(3)),
        "varma22_b": make_random_varma22(np.random.default_rng(11)),
    }


def outputs(small: bool) -> dict:
    """{name: output} over every model; small shrinks every size."""
    grids = {"small": SMALL} if small else {"crit9": CRIT9, "tail": TAIL}
    n_table, n_v = (12, 40) if small else (60, 400)
    out = {}
    for which, model in models().items():
        theta0 = model.layout.theta0_array()
        theta = theta0 + 0.01 * np.cos(np.arange(model.m))  # AR and residual weights off the truth
        for grid, kwargs in grids.items():
            rep = run_all(model, theta0, **kwargs)
            out[f"run_all/{which}/{grid}"] = {
                "phi": rep.phi,
                "bound_constants": rep.bound_constants,
                "h37_ratios": rep.h37_ratios,
                "checks": {
                    name: {"verdict": res.verdict, "constants": res.constants,
                           "details": {k: v for k, v in res.details.items() if k != "wall_s"}}
                    for name, res in rep.checks.items()
                },
            }
        psi = build_psi(model, theta, theta0, n_table, max_deriv_order=2)
        out[f"build_psi/{which}"] = {"weights": _rows(psi.weights), "deriv_weights": _rows(psi.rows), "index": psi.index}
        pi = build_pi(model, theta, n_table, max_deriv_order=2)
        out[f"build_pi/{which}"] = {"weights": _rows(pi.rows), "index": pi.index}
        out[f"theoretical_v/{which}/{n_v}"] = theoretical_v(model, theta0, n_v).v
    return out


def _rows(rows: list) -> np.ndarray:
    return np.concatenate([np.ravel(row) for row in rows])


def flatten(obj) -> tuple:
    """(skeleton, {path: float64 array}): the floats of obj by path, and obj with each
    float (array) replaced by its path."""
    floats: dict = {}

    def walk(x, p):
        if isinstance(x, dict):
            return {str(k): walk(v, f"{p}/{k}") for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
        if isinstance(x, (list, tuple)) and any(isinstance(v, float) for v in x):
            x = np.array(x, dtype=float)
        if isinstance(x, (list, tuple)):
            return [walk(v, f"{p}/{i}") for i, v in enumerate(x)]
        if isinstance(x, (float, np.floating)) or (isinstance(x, np.ndarray) and x.dtype.kind == "f"):
            floats[p] = np.asarray(x, dtype=float)
            return f"<float64 {p}>"
        if isinstance(x, np.integer):
            return int(x)
        if x is None or isinstance(x, (bool, int, str)):
            return x
        raise TypeError(f"cannot digest {type(x).__name__} at {p}")

    return walk(obj, ""), floats


def digest(obj) -> tuple:
    skeleton, floats = flatten(obj)
    h = hashlib.sha256(json.dumps(skeleton, sort_keys=True).encode())
    for p, arr in floats.items():
        h.update(p.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest(), skeleton, floats


def compare(old: dict, old_arrays, name: str, new: dict, new_arrays) -> str:
    """'identical', or where the floats of name moved most relative to their array's largest entry."""
    if old["sha256"] == new["sha256"]:
        return "identical"
    if old["skeleton"] != new["skeleton"]:
        return "differs outside its floats (verdicts, keys, integers or shapes)"
    worst = (-1.0, None)
    for p in new["float_paths"]:
        a, b = new_arrays[f"{name}::{p}"], old_arrays[f"{name}::{p}"]
        if a.shape != b.shape:
            return f"{p} moved from shape {b.shape} to {a.shape}"
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        scale = np.max(np.abs(b), initial=0.0, where=np.isfinite(b))
        rel = np.where(same, 0.0, np.abs(a - b) / max(float(scale), 1e-300))
        rel[np.isnan(rel)] = np.inf  # one side not finite
        at = int(np.argmax(rel)) if rel.size else 0
        if rel.size and rel.flat[at] > worst[0]:
            worst = (float(rel.flat[at]), p + (str([int(i) for i in np.unravel_index(at, a.shape)]) if a.ndim else ""))
    return f"largest relative difference {worst[0]:.3e} at {worst[1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON of digests; the float arrays go to the .npz beside it")
    parser.add_argument("--against", help="an earlier --out JSON to compare with")
    parser.add_argument("--small", action="store_true", help="a reduced size, as the smoke test runs it")
    args = parser.parse_args(argv)

    out = Path(args.out)
    record, arrays = {"numpy": np.__version__, "small": args.small, "names": {}}, {}
    with np.errstate(all="ignore"):
        for name, obj in outputs(args.small).items():
            sha, skeleton, floats = digest(obj)
            record["names"][name] = {"sha256": sha, "skeleton": skeleton, "float_paths": list(floats)}
            arrays.update({f"{name}::{p}": arr for p, arr in floats.items()})
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    np.savez(out.with_suffix(".npz"), **arrays)

    if args.against:
        old_path = Path(args.against)
        old = json.loads(old_path.read_text())
        if old["small"] != args.small:
            print("error: the two runs have different sizes", file=sys.stderr)
            return 1
        with np.load(old_path.with_suffix(".npz")) as old_arrays:
            for name, rec in record["names"].items():
                line = "missing in the earlier run" if name not in old["names"] else compare(
                    old["names"][name], old_arrays, name, rec, arrays)
                print(f"{name}: {line}")
        for name in sorted(set(old["names"]) - set(record["names"])):
            print(f"{name}: missing in this run")
    else:
        for name, rec in record["names"].items():
            print(f"{name}: {rec['sha256']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
