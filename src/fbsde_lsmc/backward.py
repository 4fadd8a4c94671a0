"""Backward value-function pass: terminal fit, then per-step regression.

The terminal step regresses the terminal cost, checked finite, on the sampled
terminal states, once for every estimator; each earlier step builds targets
from the freshly fitted next-step model and regresses them on the states at
that step.  The same batch supplies both the regression inputs and the
targets (no sample splitting), and the same basis and least-squares fit are
used at every step including the terminal one.

Estimators fitted on one batch and basis run in lockstep, one sweep from the
terminal step down to a chosen step (0 by default).  Step i is fitted from
the later steps alone, so a sweep stopped early leaves the steps it fitted
with the bits of a full one.  At step i the features Phi_{i+1}(X_i + K_i) and
Phi_i(X_i) are evaluated once for all of them, and Phi_{i+1}(X_{i+1}) is the
design matrix of the step-(i+1) fit; each estimator multiplies these by its
own coefficient blocks.  The products keep the shapes of a one-estimator
pass, so every estimator's coefficients are bit-identical to fitting it
alone.  An estimator that hits a numerical failure stops; the others go on.
"""

from __future__ import annotations

from .errors import _NUMERIC_FAILURES
from .estimators import EstimatorKind, _finite_targets, _Step, estimate_targets
from .problems import DiscreteProblem
from .sampling import TrajectoryBatch
from .value_model import BasisSpec, ValueModel, basis_eval, lsmc_fit

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
) -> ValueModel:
    """Fit a full value model by one sweep from the terminal step to 0.

    Returns a model with every step in 0..N fitted.  Errors raised while
    fitting or building targets propagate annotated with the failing step.
    This is the one-estimator case of :func:`backward_sweep`, with the one
    check that ``dp`` and ``mu`` are the batch's own objects (``ValueError``).
    """
    if dp is not batch.dp:
        raise ValueError("dp is not the problem the batch was sampled under")
    if mu is not batch.mu:
        raise ValueError(f"mu {mu!r} is not the batch's reference policy {batch.mu!r}")
    result = backward_sweep(batch, [kind], spec)[kind]
    if isinstance(result, Exception):
        raise result
    return result


def backward_sweep(batch: TrajectoryBatch, kinds, spec: BasisSpec, down_to: int = 0) -> dict:
    """Fit one value model per estimator kind in a single lockstep sweep.

    Steps N down to ``down_to`` inclusive are fitted; earlier steps stay
    unfitted (NaN coefficients, and a query raises ``NotFittedError``).  A
    ``down_to`` outside [0, N] raises ``ValueError`` before any fit.  The
    problem and reference policy are the batch's own.  Returns
    ``{kind: model}``.  A kind whose fit raised a numerical failure at step i
    maps to that exception instead, with ``failing_step = i``; a failure at
    the shared terminal step N maps every kind to it.  Any other error
    propagates at once, annotated the same way.
    """
    dp = batch.dp
    n_steps = dp.n_steps
    if batch.first_step != 0 or batch.n_steps != n_steps:
        raise ValueError(
            f"batch covers steps {batch.first_step} to {batch.n_steps} "
            f"but the problem has {n_steps}"
        )
    if not 0 <= down_to <= n_steps:
        raise ValueError(f"down_to = {down_to} is outside the steps 0..{n_steps}")

    x_n = batch.x[:, n_steps]
    try:
        ys = _finite_targets(dp.g(x_n), n_steps)
        phi = basis_eval(spec, n_steps, x_n)  # Phi_{i+1}(X_{i+1}) at step i
        terminal = lsmc_fit(x_n, ys, spec, n_steps, phi=phi)
    except _NUMERIC_FAILURES as exc:
        return dict.fromkeys(kinds, _annotate(exc, n_steps))
    except Exception as exc:
        raise _annotate(exc, n_steps)
    out = {kind: ValueModel.empty(spec, n_steps) for kind in kinds}
    for model in out.values():
        model.set_coeffs(n_steps, terminal)
    for i in reversed(range(down_to, n_steps)):
        step, phi = _Step(spec, batch, i, phi), None
        for kind, model in out.items():
            if isinstance(model, Exception):
                continue
            try:
                ys = estimate_targets(kind, model, batch, i, step)
                if phi is None:
                    phi = basis_eval(spec, i, batch.x[:, i])
                model.set_coeffs(i, lsmc_fit(batch.x[:, i], ys, spec, i, phi=phi))
            except _NUMERIC_FAILURES as exc:
                out[kind] = _annotate(exc, i)
            except Exception as exc:
                raise _annotate(exc, i)
    return out
