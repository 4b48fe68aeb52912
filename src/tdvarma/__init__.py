"""Exact Gaussian QML estimation for vector ARMA models whose coefficient
matrices and innovation scale are deterministic functions of time."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    NumericalError,
    SingularCovarianceError,
    TdvarmaError,
)
from .model import ParamLayout, Series, TdVarmaModel
from .timefn import (
    Constant,
    ExpSine,
    ExpTrend,
    LinearTrend,
    MatrixTimeFunction,
    Param,
    Sine,
    Product,
    Sum,
)
from .likelihood import ObjectiveReport, ResidualSet, empirical_vw, objective, objective_value, residuals
from .estimate import FitResult, WaldTest, estimate_noise_cov, fit, wald_test
from .simulate import RNG_ALGORITHM, SimPlan, innovation_correlation, make_rng, replication_stream, simulate
from .asymptotics import InfoReport, example1_v_closed, theoretical_v
from .mc import McCell, McPlan, McSummary, run_mc, summary_to_csv
from .representations import (
    ArWeightTable,
    MaWeightTable,
    build_pi,
    build_psi,
    varma11_psi_closed,
)
