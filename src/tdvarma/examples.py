"""Built-in bivariate example models used by the tests, the CLI and the
Monte Carlo reproduction runs.

All three are the sinusoidal VAR(1) with upper-triangular coefficient
A_t = [[a11 sin(freq_a t), a12], [0, a22 sin(freq_b t)]] of irrational periods:

* ``example1_sim``    - a free constant coupling a12 and identity innovation
  covariance; three parameters (0.8, 0.5, -0.9).
* ``example1_theory`` - the same with the coupling frozen at 0.5; two
  parameters (0.8, -0.9).  This is the variant with a closed-form
  information matrix.
* ``example2``        - the two-parameter autoregression driven through a
  time-varying scale matrix with exp-of-sine diagonals exp(eta sin(ct))
  (rates 1 and -1, period 25) and innovation covariance [[1, .5], [.5, 1]];
  four parameters.  The innovation correlation sweeps [-0.8, 0.8].

The paper's Monte Carlo study and every number it prints are recorded here
once.  `PAPER_TABLES` holds one `PaperTable` per printed table: the example it
fits, the seed of its replications, R, the lines it shows and each printed
value per (n, line), its lengths being the printed n; `PaperTable.report` sets
a Monte Carlo run's cells against them, and `paper_table` finds the table whose
design a config is.  `PRINTED_THEORY_SE` holds the printed theoretical
standard errors (VALIDATION.md explains why neither set is reproducible as
stated).  `paper_run` gives each example's run as the study fits it, with its
table's design where it has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, model_to_config
from .errors import ConfigError
from .mc import LINES, McSummary
from .model import ParamLayout, TdVarmaModel
from .timefn import Constant, ExpSine, MatrixTimeFunction, Param, Sine

EXAMPLE_IDS = ("example1_sim", "example1_theory", "example2")

FREQ_A = 2.0 * math.pi / math.sqrt(2499.0)
FREQ_B = 2.0 * math.pi / math.sqrt(2399.0)
FREQ_C = 2.0 * math.pi / 25.0


def _sin_var1(names, theta0, upper, freq_a, freq_b, g_func=None, sigma=np.eye(2)) -> TdVarmaModel:
    """The triangular sinusoidal VAR(1); the AR slots are a11, the slots of the
    upper entry, then a22, and any further names are scale slots of g_func."""
    n_ar = 2 + len(upper.param_slots())
    a = MatrixTimeFunction([[Sine(0, freq_a), upper], [Constant(0.0), Sine(n_ar - 1, freq_b)]])
    layout = ParamLayout(names=names, n_ar=n_ar, n_ma=0, theta0=tuple(theta0))
    return TdVarmaModel(r=2, a_funcs=[a], b_funcs=[], g_func=g_func, sigma=sigma, layout=layout)


def example1_sim_model(theta0=(0.8, 0.5, -0.9), freq_a: float = FREQ_A, freq_b: float = FREQ_B) -> TdVarmaModel:
    """Three-parameter simulation variant: free coupling in the (1,2) slot."""
    return _sin_var1(("a11_amp", "a12", "a22_amp"), theta0, Param(1), freq_a, freq_b)


def example1_theory_model(
    theta0=(0.8, -0.9), coupling: float = 0.5, freq_a: float = FREQ_A, freq_b: float = FREQ_B
) -> TdVarmaModel:
    """Two-parameter variant with the coupling entry frozen."""
    return _sin_var1(("a11_amp", "a22_amp"), theta0, Constant(coupling), freq_a, freq_b)


def example2_model(
    theta0=(0.8, -0.9, 1.0, -1.0),
    coupling: float = 0.5,
    freq_a: float = FREQ_A,
    freq_b: float = FREQ_B,
    freq_c: float = FREQ_C,
    sigma=((1.0, 0.5), (0.5, 1.0)),
) -> TdVarmaModel:
    """Heteroscedastic variant: sinusoidal VAR(1) with exp-of-sine scale."""
    # Scale diagonals exp(eta * sin(freq_c t)), realized as the exp-of-scaled-sine
    # kind with a half-period phase.  This sign convention is the one consistent
    # with the finite-sample dispersion of the estimates this model is meant to
    # reproduce; the opposite sign swaps the information content of the two
    # autoregressive channels.
    g = MatrixTimeFunction(
        [
            [ExpSine(2, freq_c, phase=math.pi), Constant(1.0)],
            [Constant(-1.0), ExpSine(3, freq_c, phase=math.pi)],
        ]
    )
    names = ("a11_amp", "a22_amp", "eta11", "eta22")
    return _sin_var1(names, theta0, Constant(coupling), freq_a, freq_b, g, sigma)


_MODELS = {
    "example1_sim": example1_sim_model,
    "example1_theory": example1_theory_model,
    "example2": example2_model,
}


def build(which: str) -> TdVarmaModel:
    """Construct one of the shipped example models by identifier."""
    if which not in _MODELS:
        raise ConfigError(f"unknown example id '{which}' (expected one of {EXAMPLE_IDS})")
    return _MODELS[which]()


@dataclass(frozen=True)
class PaperTable:
    """One printed Monte Carlo table: the example it fits, the seed and count of
    its replications, the lines it shows, and its printed values as
    {n: {line: one value per parameter}}."""

    which: str
    seed: int
    replications: int
    shown: str
    printed: dict

    @property
    def n_list(self) -> tuple:
        """The series lengths, those of the printed cells."""
        return tuple(self.printed)

    def report(self, summary: McSummary) -> str:
        """Each cell of summary against the table: the line n=N (converged k/R), then
        for each shown line its label, its values rounded to the decimals the paper
        prints (`mc.LINES`), and the printed values where the table has that cell."""
        out = []
        for n, cell in summary.cells.items():
            out.append(f"n={n} (converged {cell.n_converged}/{cell.n_total})")
            for line in self.shown:
                label, attr, decimals = LINES[line]
                pub = self.printed.get(n, {}).get(line)
                out.append(f"  ({line}) {label:<14}: {np.round(getattr(cell, attr), decimals).tolist()}"
                           + (f"  published {pub}" if pub else ""))
        return "\n".join(out) + "\n"


PAPER_TABLES = {
    1: PaperTable("example1_sim", 1234567, 1000, "abcd", {
        25: {"a": (0.7481, 0.5014, -0.8036), "b": (0.2023, 0.1543, 0.2118), "d": (7.1, 7.7, 4.8)},
        50: {"a": (0.7714, 0.5035, -0.8410), "b": (0.1397, 0.1049, 0.1355), "d": (4.5, 6.0, 6.6)},
        100: {"a": (0.7855, 0.4975, -0.8650), "b": (0.0963, 0.0735, 0.0926), "d": (5.4, 4.8, 5.0)},
        200: {"a": (0.7905, 0.4984, -0.8905), "b": (0.0677, 0.0510, 0.0628), "d": (5.4, 5.7, 4.2)},
        400: {"a": (0.7976, 0.5000, -0.8932), "b": (0.0474, 0.0358, 0.0440), "d": (5.2, 4.7, 5.1)},
    }),
    2: PaperTable("example2", 7, 1000, "acd", {
        25: {"a": (0.7671, -0.8567, 0.9897, -0.9848), "d": (3.8, 4.5, 3.2, 5.1)},
        50: {"a": (0.7808, -0.8766, 0.9913, -0.9964), "c": (0.0917, 0.1227, 0.1879, 0.1587),
             "d": (4.2, 5.0, 2.9, 5.8)},
        100: {"a": (0.7910, -0.8864, 0.9977, -0.9975), "d": (4.4, 5.8, 4.1, 6.7)},
        200: {"a": (0.7963, -0.8931, 0.9997, -1.0000), "d": (5.3, 5.1, 5.3, 6.4)},
        400: {"a": (0.7972, -0.8970, 0.9980, -0.9984), "d": (6.3, 4.2, 4.7, 5.6)},
    }),
}

# example -> {n: printed theoretical standard errors}
PRINTED_THEORY_SE = {
    "example1_theory": {25: (0.2175, 0.2303)},
    "example2": {50: (0.0905, 0.0908, 0.1995, 0.1995)},
}


def paper_run(which: str) -> RunConfig:
    """The paper's fits of one example: example 1 starts every coordinate at 0.1
    and estimates the innovation covariance; example 2 starts at the true value
    shifted by +0.1 per coordinate and holds the covariance fixed.  An example
    that a table fits takes the table's seed, lengths and replication count."""
    theta0 = build(which).layout.theta0
    design = {}
    for table in PAPER_TABLES.values():
        if table.which == which:
            design = dict(seed=table.seed, n_list=table.n_list, replications=table.replications)
    if which.startswith("example1"):
        return RunConfig(theta_init=(0.1,) * len(theta0), estimate_sigma=True, **design)
    return RunConfig(theta_init=tuple(v + 0.1 for v in theta0), **design)


def paper_table(model: TdVarmaModel, run: RunConfig):
    """The printed table whose design model and run are, else None: model is the one
    `build` makes for the table's example, and run is its `paper_run`."""
    for table in PAPER_TABLES.values():
        if run == paper_run(table.which) and model_to_config(model) == model_to_config(build(table.which)):
            return table
    return None
