"""Backward-step target estimators built from a next-step value model.

Given the step-(i+1) model V~, a second-order expansion around the pre-noise
mean state Xbar = X_i + K_i produces the triple

    Ybar = V~(Xbar),   Zbar = Sigma^T grad V~(Xbar),
    Mbar = Sigma^T hess V~(Xbar) Sigma,

from which four per-trajectory regression targets are formed (L is the stage
cost, D the drift correction, W the sampled noise):

    taylor_noiseless:  L + Ybar + Zbar.D + tr(Mbar (I + D D^T)) / 2
    taylor_reestimate: V~(X_{i+1}) + L - Zbar.W + Zbar.D
                       + tr(Mbar (I + D D^T - W W^T)) / 2
    em_noiseless:      V~(X_{i+1}) + L + Ztil.D
    em_noisy:          V~(X_{i+1}) + L - Ztil.W + Ztil.D

where Ztil = Sigma^T grad V~(X_{i+1}) is evaluated at the realized end of the
interval, not at the pre-noise mean.  This placement difference between the
Taylor and end-of-interval variants is deliberate and load-bearing.

The noiseless target uses no W at all, so for pinned (X_i, K_i) it is a
deterministic function with exactly zero sampling variance.  Trace products
against rank-one updates are accumulated as quadratic forms, never by forming
the product matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .problems import DiscreteProblem
from .sampling import TrajectoryBatch
from .value_model import ValueModel

__all__ = [
    "EstimatorKind",
    "TaylorTriple",
    "taylor_triple",
    "estimate_targets",
    "delta_y_taylor",
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
    """Second-order expansion data of the next-step model at ``xbar``.

    Fields broadcast with the shape of the pinned state: scalars become
    arrays when evaluated for a whole batch at once.
    """

    ybar: np.ndarray
    zbar: np.ndarray
    mbar: np.ndarray
    xbar: np.ndarray


def taylor_triple(m: ValueModel, i: int, x_i, k_i, sigma_i) -> TaylorTriple:
    """Expansion of the step-(i+1) model at the pre-noise mean ``x_i + k_i``.

    ``sigma_i`` is the diffusion matrix evaluated at ``x_i``; arguments may
    carry leading batch axes.
    """
    x_i = np.asarray(x_i, dtype=float)
    k_i = np.asarray(k_i, dtype=float)
    sigma_i = np.asarray(sigma_i, dtype=float)
    xbar = x_i + k_i
    ybar = m.eval(i + 1, xbar)
    grad = m.grad(i + 1, xbar)
    hess = m.hessian(i + 1, xbar)
    zbar = np.einsum("...ji,...j->...i", sigma_i, grad)
    mbar = np.einsum("...ki,...kl,...lj->...ij", sigma_i, hess, sigma_i)
    mbar = 0.5 * (mbar + np.swapaxes(mbar, -1, -2))
    return TaylorTriple(ybar=ybar, zbar=zbar, mbar=mbar, xbar=xbar)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _quad(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...ij,...j->...", v, mat, v)


def _check_step(batch: TrajectoryBatch, i: int) -> None:
    if not 0 <= i < batch.n_steps:
        raise ValueError(f"step {i} out of range [0, {batch.n_steps})")


def _taylor_pieces(m, dp, mu, batch, i):
    """Shared subterms of the Taylor-form targets, vectorized over the batch."""
    x_i = batch.x[:, i]
    tri = taylor_triple(m, i, x_i, batch.k_drift[:, i], dp.Sigma(i, x_i))
    w = batch.w[:, i]
    d = batch.d[:, i]
    stage = dp.L(i, x_i, mu(i, x_i))
    zw = _dot(tri.zbar, w)
    zd = _dot(tri.zbar, d)
    tr_m = np.trace(tri.mbar, axis1=-2, axis2=-1)
    dmd = _quad(tri.mbar, d)
    wmw = _quad(tri.mbar, w)
    return tri, stage, zw, zd, tr_m, dmd, wmw


def estimate_targets(
    kind: EstimatorKind,
    m: ValueModel,
    dp: DiscreteProblem,
    mu,
    batch: TrajectoryBatch,
    i: int,
) -> np.ndarray:
    """Targets Yhat_i for every trajectory of the batch at step ``i``, shape (M,).

    Requires the model fitted at step ``i + 1`` and the batch populated
    through step ``i + 1``.  ``mu`` must be the batch's reference policy,
    since the stored corrections D were computed against it.
    """
    if not isinstance(kind, EstimatorKind):
        raise ValueError(f"kind must be an EstimatorKind, got {kind!r}")
    _check_step(batch, i)

    if kind.is_taylor:
        tri, stage, zw, zd, tr_m, dmd, wmw = _taylor_pieces(m, dp, mu, batch, i)
        if kind is EstimatorKind.TAYLOR_NOISELESS:
            yhat = stage + tri.ybar + zd + 0.5 * (tr_m + dmd)
        else:
            v_next = m.eval(i + 1, batch.x[:, i + 1])
            yhat = v_next + stage - zw + zd + 0.5 * (tr_m + dmd - wmw)
    else:
        x_i = batch.x[:, i]
        x_next = batch.x[:, i + 1]
        w = batch.w[:, i]
        d = batch.d[:, i]
        stage = dp.L(i, x_i, mu(i, x_i))
        v_next = m.eval(i + 1, x_next)
        z_til = np.einsum("...ji,...j->...i", dp.Sigma(i, x_i), m.grad(i + 1, x_next))
        if kind is EstimatorKind.EM_NOISELESS:
            yhat = v_next + stage + _dot(z_til, d)
        else:
            yhat = v_next + stage - _dot(z_til, w) + _dot(z_til, d)

    if not np.all(np.isfinite(yhat)):
        bad = int(np.argmax(~np.isfinite(yhat)))
        raise FloatingPointError(
            f"non-finite backward target at trajectory {bad}, step {i}"
        )
    return yhat


def delta_y_taylor(
    m: ValueModel,
    dp: DiscreteProblem,
    mu,
    batch: TrajectoryBatch,
    i: int,
    k: Optional[int] = None,
):
    """Taylor-form backward difference estimate for step ``i``.

        -L + Zbar.W - Zbar.D + tr(Mbar (W W^T - I - D D^T)) / 2

    With on-policy sampling the stored corrections are exactly zero and the
    expression reduces bit-for-bit to its undrifted form.  Returns the full
    per-trajectory array, or a scalar when ``k`` selects one trajectory.
    """
    _check_step(batch, i)
    _, stage, zw, zd, tr_m, dmd, wmw = _taylor_pieces(m, dp, mu, batch, i)
    delta = -stage + zw - zd + 0.5 * (wmw - tr_m - dmd)
    if k is None:
        return delta
    return float(delta[k])
