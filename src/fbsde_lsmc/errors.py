"""Exception and warning types shared across the package."""

import numpy as np


class SingularDiffusionError(ValueError):
    """Diffusion matrix is singular (or numerically non-invertible)."""


class DriftUnboundedError(RuntimeError):
    """A drift correction exceeded the problem's norm cap."""

    def __init__(self, traj: int, step: int, norm: float, cap: float):
        self.traj = traj
        self.step = step
        self.norm = norm
        self.cap = cap
        super().__init__(
            f"drift correction norm {norm:.6g} exceeds cap {cap:.6g} "
            f"at trajectory {traj}, step {step}"
        )


class WeightOverflowError(OverflowError):
    """A change-of-measure weight exceeded the largest representable float."""

    def __init__(self, traj: int, step: int, log_weight: float):
        self.traj = traj
        self.step = step
        self.log_weight = log_weight
        super().__init__(
            f"log weight {log_weight:.6g} overflows at trajectory {traj}, step {step}"
        )


class NotFittedError(RuntimeError):
    """A value model was queried at a timestep that has not been fitted."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"value model has no coefficients for step {step}")


class DegenerateDenominatorError(ArithmeticError):
    """Relative-error denominator vanished (truth constant on the region)."""


class SingularRecursionError(RuntimeError):
    """The control-penalized curvature matrix in a Riccati step is singular."""


class OutOfDomainError(ValueError):
    """Ground-truth query lies too far outside the tabulated grid."""


class SchemaError(ValueError):
    """A results file is missing a required column."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing required column: {column}")


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class RankDeficientWarning(UserWarning):
    """A least-squares fit hit a rank-deficient design matrix."""


class GridEscapeWarning(UserWarning):
    """States left the dynamic-programming grid beyond the extrapolation margin."""


# Numerical failures: a sweep records the cell as +inf, the CLI exits 3.
_NUMERIC_FAILURES = (
    np.linalg.LinAlgError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
    SingularDiffusionError,
    DriftUnboundedError,
    WeightOverflowError,
    DegenerateDenominatorError,
    SingularRecursionError,
    OutOfDomainError,
)
