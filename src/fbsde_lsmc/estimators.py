"""Backward-step target estimators built from a next-step value model.

Given the step-(i+1) model V~, a second-order expansion around the pre-noise
mean state Xbar = X_i + K_i produces the triple

    Ybar = V~(Xbar),   Zbar = Sigma^T grad V~(Xbar),
    Mbar = Sigma^T hess V~(Xbar) Sigma,

:func:`taylor_triple` forms it for every second-order use: the targets
here, the remainder-bias check in :mod:`metrics` and the second-order policy
improvement in :mod:`policy`.  From it four per-trajectory regression targets
are formed (L is the stage cost, D the drift correction, W the sampled noise):

    taylor_noiseless:  L + Ybar + Zbar.D + tr(Mbar (I + D D^T)) / 2
    taylor_reestimate: V~(X_{i+1}) + L - Zbar.W + Zbar.D
                       + tr(Mbar (I + D D^T - W W^T)) / 2
    em_noiseless:      V~(X_{i+1}) + L + Ztil.D
    em_noisy:          V~(X_{i+1}) + L - Ztil.W + Ztil.D

where Ztil = Sigma^T grad V~(X_{i+1}) is evaluated at the realized end of the
interval, not at the pre-noise mean.  This placement difference between the
Taylor and end-of-interval variants is deliberate and load-bearing.

The Taylor backward difference is V~(X_{i+1}) minus the re-estimate target:
Delta Yhat_i = -L + Zbar.W - Zbar.D + tr(Mbar (W W^T - I - D D^T)) / 2.

The re-estimate target minus the noiseless target is
V~(X_{i+1}) - Ybar - Zbar.W - W^T Mbar W / 2, the third- and higher-order
Taylor remainder of V~ about Xbar; it vanishes for a quadratic model.  At
degree >= 3 each step's regression refits that remainder, and the refit
feeds the next step's remainder, so taylor_reestimate diverges there: on the
cartpole_sweep benchmark config its mean RAE at degrees 2 / 3 / 4 is
3.3e-12 / 783 / 2.8e40, against 3.1e-12 / 3.6e-10 / 2.5e-8 for
taylor_noiseless.

For a quadratic model X_{i+1} = Xbar + Sigma W gives
V~(X_{i+1}) = Ybar + Zbar.W + W^T Mbar W / 2 and Ztil = Zbar + Mbar W, so

    em_noisy - taylor_noiseless = -[(W - D)^T Mbar (W - D) + tr Mbar] / 2,
    em_noiseless - taylor_noiseless = Zbar.W + (W + D)^T Mbar (W + D) / 2
                                      - D^T Mbar D - tr Mbar / 2,

whose means under the sampling measure are -tr Mbar - D^T Mbar D / 2 and
-D^T Mbar D / 2.  Both EM targets carry a bias quadratic in D that the
Taylor targets cancel, and the noise terms Zbar.W and W^T Mbar D that the
noiseless Taylor target does not.

The noiseless target uses no W at all, so for pinned (X_i, K_i) it is a
deterministic function with exactly zero sampling variance.  Trace products
against rank-one updates are accumulated as quadratic forms, never by forming
the product matrix.

Mbar is formed as two stacked matrix products, (Sigma^T H) Sigma, and then
symmetrized.  In n dimensions it differs from the single contraction
sum_kl Sigma_ki H_kl Sigma_lj by rounding only, elementwise within
4 n eps (|Sigma|^T |H| |Sigma|); in one dimension the two are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .sampling import TrajectoryBatch
from .value_model import BasisSpec, ValueModel, basis_eval

__all__ = [
    "EstimatorKind",
    "TaylorTriple",
    "taylor_triple",
    "estimate_targets",
]


class EstimatorKind(Enum):
    """The four backward target estimators."""

    TAYLOR_NOISELESS = "taylor_noiseless"
    TAYLOR_REESTIMATE = "taylor_reestimate"
    EM_NOISELESS = "em_noiseless"
    EM_NOISY = "em_noisy"

    @property
    def is_taylor(self) -> bool:
        return self in (EstimatorKind.TAYLOR_NOISELESS, EstimatorKind.TAYLOR_REESTIMATE)


@dataclass(frozen=True, eq=False)
class TaylorTriple:
    """Second-order expansion data of the next-step model at X + K.

    Fields broadcast with the shape of the pinned state: scalars become
    arrays when evaluated for a whole batch at once.
    """

    ybar: np.ndarray
    zbar: np.ndarray
    mbar: np.ndarray


def taylor_triple(m: ValueModel, i: int, x_i, k_i, sigma_i, phi=None) -> TaylorTriple:
    """Expansion of the step-(i+1) model at the pre-noise mean ``x_i + k_i``.

    ``sigma_i`` is a (..., n, k) matrix evaluated at ``x_i``: the diffusion
    for the backward targets, the control gain for policy improvement.
    Arguments may carry leading batch axes.  ``phi``, when given, is the
    step-(i+1) feature matrix at ``x_i + k_i`` computed by the caller.
    """
    sigma_i = np.asarray(sigma_i, dtype=float)
    if phi is None:
        xbar = np.asarray(x_i, dtype=float) + np.asarray(k_i, dtype=float)
        phi = basis_eval(m.basis, i + 1, xbar)
    ybar = m.from_features(i + 1, phi)
    grad = m.from_features(i + 1, phi, 1)
    hess = m.from_features(i + 1, phi, 2)
    zbar = np.einsum("...ji,...j->...i", sigma_i, grad)
    mbar = np.swapaxes(sigma_i, -1, -2) @ hess @ sigma_i
    mbar = 0.5 * (mbar + np.swapaxes(mbar, -1, -2))
    return TaylorTriple(ybar=ybar, zbar=zbar, mbar=mbar)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _quad(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...ij,...j->...", v, mat, v)


class _Step:
    """Batch columns of step ``i`` and the pieces its estimators share.

    Sigma, mu(X_i), K and D are read with ``batch.drift_step(i)``; the stage
    cost and the step-(i+1) features at X_i + K_i and at X_{i+1} are computed
    on first use, and one that raised is retried.
    """

    def __init__(self, spec: BasisSpec, batch: TrajectoryBatch, i: int, phi_next=None):
        if not batch.first_step <= i < batch.n_steps:
            raise ValueError(f"step {i} out of range [{batch.first_step}, {batch.n_steps})")
        self.spec, self.batch, self.i = spec, batch, i
        c = i - batch.first_step
        self.x_i, self.x_next, self.w = batch.x[:, c], batch.x[:, c + 1], batch.w[:, c]
        if phi_next is not None:
            self.phi_next = phi_next

    @cached_property
    def stage(self) -> np.ndarray:
        return self.batch.dp.L(self.i, self.x_i, self.batch.drift_step(self.i)[1])

    @cached_property
    def phi_bar(self) -> np.ndarray:
        return basis_eval(self.spec, self.i + 1, self.x_i + self.batch.drift_step(self.i)[2])

    @cached_property
    def phi_next(self) -> np.ndarray:
        return basis_eval(self.spec, self.i + 1, self.x_next)


def _finite_targets(yhat: np.ndarray, i: int) -> np.ndarray:
    """``yhat`` itself; ``FloatingPointError`` naming the first non-finite target."""
    if not np.all(np.isfinite(yhat)):
        bad = int(np.argmax(~np.isfinite(yhat)))
        raise FloatingPointError(f"non-finite backward target at trajectory {bad}, step {i}")
    return yhat


def estimate_targets(
    kind: EstimatorKind,
    m: ValueModel,
    batch: TrajectoryBatch,
    i: int,
    step: Optional[_Step] = None,
) -> np.ndarray:
    """Targets Yhat_i for every trajectory of the batch at step ``i``, shape (M,).

    Requires the model fitted at step ``i + 1`` and the batch populated
    through step ``i + 1``; the stage cost and the corrections D are those of
    the batch's problem and reference policy.  ``step``, built for the same
    batch and step, shares the model-independent pieces of step ``i``
    between estimators fitted on the same batch and basis.
    """
    if not isinstance(kind, EstimatorKind):
        raise ValueError(f"kind must be an EstimatorKind, got {kind!r}")
    if step is None:
        step = _Step(m.basis, batch, i)
    sigma, _, k, d = batch.drift_step(i)

    if kind.is_taylor:
        tri = taylor_triple(m, i, step.x_i, k, sigma, step.phi_bar)
        zd = _dot(tri.zbar, d)
        tr_m = np.trace(tri.mbar, axis1=-2, axis2=-1)
        dmd = _quad(tri.mbar, d)
        if kind is EstimatorKind.TAYLOR_NOISELESS:
            yhat = step.stage + tri.ybar + zd + 0.5 * (tr_m + dmd)
        else:
            v_next = m.from_features(i + 1, step.phi_next)
            zw = _dot(tri.zbar, step.w)
            wmw = _quad(tri.mbar, step.w)
            yhat = v_next + step.stage - zw + zd + 0.5 * (tr_m + dmd - wmw)
    else:
        v_next = m.from_features(i + 1, step.phi_next)
        z_til = np.einsum("...ji,...j->...i", sigma, m.from_features(i + 1, step.phi_next, 1))
        if kind is EstimatorKind.EM_NOISELESS:
            yhat = v_next + step.stage + _dot(z_til, d)
        else:
            yhat = v_next + step.stage - _dot(z_til, step.w) + _dot(z_til, d)

    return _finite_targets(yhat, i)
