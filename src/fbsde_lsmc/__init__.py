"""Taylor-expansion backward estimators for stochastic optimal control.

The package samples forward trajectory batches of a discretized control
problem under arbitrary drifts, fits per-timestep value models by
least-squares Monte Carlo regression on Chebyshev bases, and compares
second-order-expansion backward targets against end-of-interval baselines,
with exact oracles (gridded dynamic programming, Riccati recursions) and an
experiment harness for accuracy sweeps.
"""

__version__ = "0.1.0"

from .backward import backward_pass
from .config import ExperimentConfig, load_config, parse_config_text
from .estimators import (
    EstimatorKind,
    TaylorTriple,
    estimate_targets,
    taylor_triple,
)
from .metrics import (
    ConfidenceRegion,
    bias_bound_check,
    confidence_region,
    estimator_bias_variance,
    rae,
)
from .oracles import (
    GridPolicy,
    GridSpec,
    GridTruth,
    RiccatiTruth,
    grid_bellman,
    riccati_from_lqr,
)
from .policy import hamiltonian_policy, improve_policy, taylor_q
from .problems import (
    ContinuousProblem,
    DiscreteProblem,
    FeedbackPolicy,
    build_cartpole_lqr,
    build_nonlinear_1d,
    discretize,
)
from .sampling import DriftProcess, TrajectoryBatch, sample_forward
from .value_model import (
    BasisSpec,
    ValueModel,
    basis_eval,
    lsmc_fit,
    scaling_from_batch,
)

__all__ = [
    "__version__",
    "backward_pass",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "EstimatorKind",
    "TaylorTriple",
    "estimate_targets",
    "taylor_triple",
    "ConfidenceRegion",
    "bias_bound_check",
    "confidence_region",
    "estimator_bias_variance",
    "rae",
    "GridPolicy",
    "GridSpec",
    "GridTruth",
    "RiccatiTruth",
    "grid_bellman",
    "riccati_from_lqr",
    "hamiltonian_policy",
    "improve_policy",
    "taylor_q",
    "ContinuousProblem",
    "DiscreteProblem",
    "FeedbackPolicy",
    "build_cartpole_lqr",
    "build_nonlinear_1d",
    "discretize",
    "DriftProcess",
    "TrajectoryBatch",
    "sample_forward",
    "BasisSpec",
    "ValueModel",
    "basis_eval",
    "lsmc_fit",
    "scaling_from_batch",
]
