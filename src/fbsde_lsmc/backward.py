"""Backward value-function pass: terminal fit, then per-step regression.

The terminal step regresses the terminal cost on the sampled terminal states;
each earlier step builds targets from the freshly fitted next-step model and
regresses them on the states at that step.  The same batch supplies both the
regression inputs and the targets (no sample splitting), and the same basis
and ridge are used at every step including the terminal one.
"""

from __future__ import annotations

from .estimators import EstimatorKind, estimate_targets
from .problems import DiscreteProblem
from .sampling import TrajectoryBatch
from .value_model import BasisSpec, ValueModel, lsmc_fit

__all__ = ["backward_pass"]


def _annotate(exc: Exception, step: int) -> Exception:
    exc.failing_step = step
    if hasattr(exc, "add_note"):
        exc.add_note(f"backward pass failed at step {step}")
    return exc


def backward_pass(
    dp: DiscreteProblem,
    mu,
    batch: TrajectoryBatch,
    kind: EstimatorKind,
    spec: BasisSpec,
    ridge: float = 1e-10,
) -> ValueModel:
    """Fit a full value model by one sweep from the terminal step to 0.

    Returns a model with every step in 0..N fitted.  Errors raised while
    fitting or building targets propagate annotated with the failing step.
    """
    n_steps = dp.n_steps
    if batch.n_steps != n_steps:
        raise ValueError(
            f"batch covers {batch.n_steps} steps but the problem has {n_steps}"
        )
    if spec.n_steps_covered < n_steps + 1:
        raise ValueError("basis scaling does not cover every timestep")

    model = ValueModel.empty(spec, n_steps)
    try:
        terminal = dp.g(batch.x[:, n_steps])
        model.set_coeffs(n_steps, lsmc_fit(batch.x[:, n_steps], terminal, spec, n_steps, ridge))
    except Exception as exc:
        raise _annotate(exc, n_steps)

    for i in reversed(range(n_steps)):
        try:
            targets = estimate_targets(kind, model, dp, mu, batch, i)
            model.set_coeffs(i, lsmc_fit(batch.x[:, i], targets, spec, i, ridge))
        except Exception as exc:
            raise _annotate(exc, i)
    return model
