"""Exception types shared across the package."""


class TdvarmaError(Exception):
    """Base class for all package errors."""


class ConfigError(TdvarmaError, ValueError):
    """A model or run configuration is malformed or inconsistent."""


class ContractError(TdvarmaError, ValueError):
    """An operation was called outside its documented domain."""


class NumericalError(TdvarmaError, RuntimeError):
    """A numerical computation broke down (overflow, singularity, NaN)."""


class SingularCovarianceError(NumericalError):
    """A per-time residual covariance is not finite or is singular."""

    def __init__(self, t, theta=None):
        self.t = t
        self.theta = None if theta is None else tuple(float(v) for v in theta)
        msg = f"residual covariance is not positive definite at t={t}"
        if theta is not None:
            msg += f" (theta={self.theta})"
        super().__init__(msg)
