"""The benchmark's workloads: models, plans, timed operations and oracles.

Why each workload exists is written down in NOTES.md.  Every workload runs
serially in this process; no worker pool is started.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tdvarma import asymptotics, assumptions, examples, mc, representations
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.timefn import MatrixTimeFunction, Sine

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Replications per run_mc call.  Chunk c of a run uses master seed
# seed + c * SEED_STRIDE, so chunk 0 is the first CHUNK replications of the
# cell with the workload seed itself, and runs with nearby seeds share no data.
CHUNK = 10
SEED_STRIDE = 1 << 32

# Reference-cell tolerance on lines a, b, c (mean estimate, mean se, std).
# Re-deriving the estimator exactly (e.g. GLS in place of BFGS) moves these by
# about 1e-6; a wrong estimator moves them by far more than 1e-4.
CELL_TOL = 1e-4
# Theory outputs: relative to the largest entry of the reference matrix.
THEORY_REL_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10
PSI_CLOSED_TOL = 1e-12
PSI_CLOSED_HORIZON = 12

# Criterion-9 audit grid (see NOTES.md for why not the run_all defaults).
CRIT9_GRID = dict(n_probe=250, cross_grid=(50, 100, 200), cross_m_grid=(50, 100), info_grid=(25, 50, 100))


def sin_varma11(rng, r: int = 2) -> TdVarmaModel:
    """Sinusoidal VARMA(1,1): every entry amplitude * sin(w t + phi).

    Same draw order as the test suite's make_sin_varma11, so
    sin_varma11(np.random.default_rng(909)) is the model of its first draw.
    """
    slots = iter(range(2 * r * r))
    amps = []

    def mat():
        rows = []
        for _ in range(r):
            row = []
            for _ in range(r):
                slot = next(slots)
                amps.append(rng.uniform(-0.6, 0.6))
                row.append(Sine(slot, rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi)))
            rows.append(row)
        return MatrixTimeFunction(rows)

    a = mat()
    b = mat()
    layout = ParamLayout(
        names=tuple(f"p{i}" for i in range(2 * r * r)), n_ar=r * r, n_ma=r * r, theta0=tuple(amps)
    )
    return TdVarmaModel(r=r, a_funcs=[a], b_funcs=[b], g_func=None, sigma=np.eye(r), layout=layout)


def varma11_model() -> TdVarmaModel:
    return sin_varma11(np.random.default_rng(909))


# -- Monte Carlo workloads --------------------------------------------------------


@dataclass(frozen=True)
class McWorkload:
    name: str
    n: int
    build_model: Callable[[], TdVarmaModel]
    estimate_sigma: bool
    fixed_init: tuple | None      # None: start at theta0 + 0.1
    default_seed: int
    reference_replications: int

    def plan(self, model: TdVarmaModel, seed: int, replications: int) -> mc.McPlan:
        theta0 = model.layout.theta0
        init = self.fixed_init if self.fixed_init is not None else tuple(v + 0.1 for v in theta0)
        return mc.McPlan(
            model=model,
            theta0=theta0,
            n_list=(self.n,),
            replications=replications,
            seed=seed,
            theta_init=init,
            estimate_sigma=self.estimate_sigma,
        )


MC_WORKLOADS = {
    w.name: w
    for w in (
        McWorkload("table1_n100", 100, examples.example1_sim_model, True, (0.1, 0.1, 0.1), 1234567, 20),
        McWorkload("table2_n50", 50, examples.example2_model, False, None, 7, 20),
        McWorkload("varma11_n100", 100, varma11_model, False, None, 4242, 10),
    )
}


def chunk_seed(seed: int, chunk: int) -> int:
    return seed + chunk * SEED_STRIDE


def parse_summary_csv(text: str) -> dict:
    rows = text.strip().splitlines()[1:]
    return {tuple(row.split(",")[:3]): float(row.split(",")[3]) for row in rows}


def compare_cells(got_csv: str, ref_csv: str, replications: int) -> tuple[bool, str]:
    """Reference-cell check: lines a-c within CELL_TOL, at most one flipped
    5% test per parameter on line d, identical exclusion count."""
    got, ref = parse_summary_csv(got_csv), parse_summary_csv(ref_csv)
    if got.keys() != ref.keys():
        return False, "summary rows differ"
    worst = {"abc": 0.0, "d": 0.0, "excluded": 0.0}
    for key, ref_v in ref.items():
        diff = abs(got[key] - ref_v)
        if math.isnan(diff):
            diff = 0.0 if math.isnan(got[key]) and math.isnan(ref_v) else math.inf
        line = key[2]
        bucket = "abc" if line in ("a", "b", "c") else line
        worst[bucket] = max(worst[bucket], diff)
    ok = worst["abc"] <= CELL_TOL and worst["d"] <= 100.0 / replications + 1e-9 and worst["excluded"] == 0
    return ok, f"max |diff| a-c {worst['abc']:.3e}, d {worst['d']:.3g} pct, excluded {worst['excluded']:g}"


def plausible_estimates(thetas, ses, theta0) -> tuple[bool, str]:
    """Pooled sanity check of the timed replications' estimates, per
    parameter: mean within 0.05 + 4 standard errors of the mean of the truth,
    and, from 50 replications on, mean standard error within a factor 2 of
    the dispersion.  It catches a broken estimator, not a subtle one; the
    reference cell does that."""
    if len(thetas) < 2:
        return False, f"only {len(thetas)} usable replications"
    th = np.array(thetas)
    sd = th.std(axis=0, ddof=1)
    bias = np.abs(th.mean(axis=0) - np.asarray(theta0))
    allowed = 0.05 + 4.0 * sd / np.sqrt(len(th))
    ratio = np.array(ses).mean(axis=0) / sd
    ok = bool(np.all(bias <= allowed))
    if len(th) >= 50:
        ok = ok and bool(np.all((ratio >= 0.5) & (ratio <= 2.0)))
    return ok, (
        f"max |bias| / allowed {np.max(bias / allowed):.3f}, "
        f"se/std in [{ratio.min():.3f}, {ratio.max():.3f}] over {len(th)} reps"
    )


# -- theory workload --------------------------------------------------------------


def theory_models() -> dict:
    return {
        "example2": examples.example2_model(),
        "example1_theory": examples.example1_theory_model(),
        "varma11": varma11_model(),
    }


def theory_calls(models: dict) -> list:
    """The timed call list.  Names are looked up at call time, so wrappers
    installed around them are seen."""
    ex2, varma = models["example2"], models["varma11"]
    th_ex2, th_varma = ex2.layout.theta0_array(), varma.layout.theta0_array()
    return [
        ("theoretical_v.example2.n400", lambda: asymptotics.theoretical_v(ex2, th_ex2, 400).v),
        ("theoretical_v.varma11.n50", lambda: asymptotics.theoretical_v(varma, th_varma, 50).v),
        ("run_all.example2.crit9", lambda: assumptions.run_all(ex2, **CRIT9_GRID)),
    ]


def theory_output_record(name: str, out) -> dict:
    """JSON form of a theory call's output, as stored in the reference."""
    if name.startswith("run_all"):
        return {
            "verdicts": dict(out.verdicts),
            "constants": {k: float(v) for k, v in out.bound_constants.items()},
        }
    return {"v": np.asarray(out).tolist()}


def compare_theory(name: str, out, ref: dict) -> tuple[bool, str]:
    if name.startswith("run_all"):
        ok = dict(out.verdicts) == ref["verdicts"]
        return ok, f"verdicts {dict(out.verdicts)}"
    v, v_ref = np.asarray(out), np.asarray(ref["v"])
    if v.shape != v_ref.shape:
        return False, f"shape {v.shape} vs {v_ref.shape}"
    rel = float(np.max(np.abs(v - v_ref)) / np.max(np.abs(v_ref)))
    return rel <= THEORY_REL_TOL, f"max rel diff {rel:.3e}"


def closed_form_checks(models: dict) -> list:
    """Independent oracles for the theory path: (name, ok, detail)."""
    ex1 = models["example1_theory"]
    th1 = ex1.layout.theta0_array()
    v = asymptotics.theoretical_v(ex1, th1, 50).v
    v_closed = asymptotics.example1_v_closed(ex1, th1, 50).v
    d1 = float(np.max(np.abs(v - v_closed)))

    varma = models["varma11"]
    thv = varma.layout.theta0_array()
    psi = representations.build_psi(varma, thv, thv, PSI_CLOSED_HORIZON)
    d2 = max(
        float(np.max(np.abs(psi.weight(t, k) - representations.varma11_psi_closed(varma, thv, t, k))))
        for t in range(2, PSI_CLOSED_HORIZON + 1)
        for k in range(1, t)
    )
    return [
        ("example1_v_closed_n50", d1 <= CLOSED_FORM_TOL, f"max |V - V_closed| {d1:.3e}"),
        ("varma11_psi_closed", d2 <= PSI_CLOSED_TOL, f"max |psi - psi_closed| {d2:.3e} up to t={PSI_CLOSED_HORIZON}"),
    ]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
