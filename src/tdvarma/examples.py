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

`paper_run` gives each example's run as the paper's Monte Carlo study fits it.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .errors import ConfigError
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


def paper_run(which: str) -> RunConfig:
    """The paper's fits of one example: example 1 starts every coordinate at 0.1
    and estimates the innovation covariance; example 2 starts at the true value
    shifted by +0.1 per coordinate and holds the covariance fixed."""
    theta0 = build(which).layout.theta0
    if which.startswith("example1"):
        return RunConfig(theta_init=(0.1,) * len(theta0), estimate_sigma=True)
    return RunConfig(theta_init=tuple(v + 0.1 for v in theta0))
