"""Forward trajectory sampling under arbitrary drifts with change-of-measure weights.

The forward process follows

    X_{i+1} = X_i + K_i + Sigma_i(X_i) W_i,      W_i ~ N(0, I),

where the drift increments K_i come from a :class:`DriftProcess` chosen at
will.  Each step also records the correction

    D_i = Sigma_i(X_i)^{-1} (F_i(X_i, mu_i(X_i)) - K_i)

relative to the batch's reference policy ``mu`` and the positive weights

    Theta_0 = 1,    Theta_{i+1} = Theta_i * exp(-||D_i||^2 / 2 + D_i^T W_i),

which convert sampled expectations back to the reference-policy measure.
Weights are accumulated in log space to avoid premature overflow.

Randomness uses counter-based streams keyed by ``(seed, trajectory)`` with a
separate substream per purpose, so batches are bit-reproducible regardless of
how generation is ordered or parallelized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DriftUnboundedError, SingularDiffusionError, WeightOverflowError
from .problems import DiscreteProblem

__all__ = [
    "DriftProcess",
    "TrajectoryBatch",
    "sample_forward",
    "pinned_step_batch",
    "drift_correction",
    "girsanov_weights",
]

# Largest exponent for which exp() stays finite in float64.
_LOG_MAX = 709.0

_PURPOSE_BROWNIAN = 0
_PURPOSE_AUX = 1


def _stream(seed: int, traj: int, purpose: int) -> np.random.Generator:
    """Counter-based generator for one (trajectory, purpose) substream."""
    key = np.array([seed % 2**64, (traj * 2 + purpose) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class DriftProcess:
    """Source of forward drift increments K_i = increments(dp, i, X_i, xi_i).

    ``xi_i`` is auxiliary standard normal noise, drawn from a stream
    independent of the Brownian one only when ``needs_aux`` is set (it is
    ``None`` otherwise).  The constructors cover the three usual drifts:

    - ``on_policy(policy)``: K_i = F_i(X_i, policy(i, X_i)); when ``policy``
      is the batch's reference policy the corrections D vanish identically.
    - ``feedback(fn)``: K_i = fn(i, X_i), a deterministic state feedback.
    - ``randomized(fn)``: K_i = fn(i, X_i, xi_i).
    """

    def __init__(self, increments: Callable, needs_aux: bool = False):
        self.increments = increments
        self.needs_aux = needs_aux

    @classmethod
    def on_policy(cls, policy) -> "DriftProcess":
        return cls(lambda dp, i, x, xi: dp.F(i, x, policy(i, x)))

    @classmethod
    def feedback(cls, fn: Callable[[int, np.ndarray], np.ndarray]) -> "DriftProcess":
        return cls(lambda dp, i, x, xi: fn(i, x))

    @classmethod
    def randomized(
        cls, fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    ) -> "DriftProcess":
        return cls(lambda dp, i, x, xi: fn(i, x, xi), needs_aux=True)


@dataclass(eq=False)
class TrajectoryBatch:
    """A batch of M forward paths with drifts, corrections and weights.

    Attributes
    ----------
    x : ndarray, shape (M, N+1, n)
        Sampled states, ``x[:, 0]`` being the initial state.
    w : ndarray, shape (M, N, n)
        Standard normal noise increments.
    k_drift : ndarray, shape (M, N, n)
        Drift increments actually applied.
    d : ndarray, shape (M, N, n)
        Corrections toward the reference policy drift.
    log_theta : ndarray, shape (M, N+1)
        Cumulative log change-of-measure weights; ``log_theta[:, 0] == 0``.
    """

    x: np.ndarray
    w: np.ndarray
    k_drift: np.ndarray
    d: np.ndarray
    log_theta: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    @property
    def theta(self) -> np.ndarray:
        """Positive weights, shape (M, N+1); may underflow to 0 for huge drifts."""
        return np.exp(self.log_theta)


def _solve_diffusion(sig: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(sig, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularDiffusionError(f"diffusion matrix is singular: {exc}") from exc


def drift_correction(f_val, k_val, sigma_val) -> np.ndarray:
    """Noise-space correction ``sigma_val^{-1} (f_val - k_val)``.

    Accepts single vectors/matrices or batches with leading axes.
    """
    f_val = np.asarray(f_val, dtype=float)
    k_val = np.asarray(k_val, dtype=float)
    sigma_val = np.asarray(sigma_val, dtype=float)
    return _solve_diffusion(sigma_val, f_val - k_val)


def sample_forward(
    dp: DiscreteProblem,
    mu,
    drift: DriftProcess,
    n_samples: int,
    seed: int,
    d_cap: float = 10.0,
) -> TrajectoryBatch:
    """Sample ``n_samples`` forward trajectories under the given drift.

    Parameters
    ----------
    dp : DiscreteProblem
    mu : policy
        Reference policy defining the corrections D and weights Theta.
    drift : DriftProcess
        Where the applied increments K come from.
    n_samples : int
        Number of trajectories M (>= 1).
    seed : int
        Base seed; identical inputs give bit-identical batches.
    d_cap : float
        Fail loudly if any correction norm exceeds this cap; change-of-measure
        error bounds degrade like exp(||D||^2 / 2).

    Raises
    ------
    SingularDiffusionError
        If Sigma_i is singular at a visited state.
    DriftUnboundedError
        Naming the offending (trajectory, step) when ``||D|| > d_cap``.
    WeightOverflowError
        If a weight exceeds the float64 range.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n = dp.dim_x
    n_steps = dp.n_steps

    w = np.empty((n_samples, n_steps, n))
    for k in range(n_samples):
        w[k] = _stream(seed, k, _PURPOSE_BROWNIAN).standard_normal((n_steps, n))
    xi = None
    if drift.needs_aux:
        xi = np.empty((n_samples, n_steps, n))
        for k in range(n_samples):
            xi[k] = _stream(seed, k, _PURPOSE_AUX).standard_normal((n_steps, n))

    x = np.empty((n_samples, n_steps + 1, n))
    x[:, 0] = dp.x0
    k_drift = np.empty((n_samples, n_steps, n))
    d = np.empty((n_samples, n_steps, n))
    log_theta = np.zeros((n_samples, n_steps + 1))

    for i in range(n_steps):
        xi_step = xi[:, i] if xi is not None else None
        _advance_step(dp, mu, drift, i, x, w, k_drift, d, log_theta, xi_step, d_cap)

    return TrajectoryBatch(x=x, w=w, k_drift=k_drift, d=d, log_theta=log_theta)


def _advance_step(dp, mu, drift, i, x, w, k_drift, d, log_theta, xi_step, d_cap):
    """One forward step over the whole batch, in place."""
    x_cur = x[:, i]
    sig = dp.Sigma(i, x_cur)
    f_ref = dp.F(i, x_cur, mu(i, x_cur))
    k_cur = np.asarray(drift.increments(dp, i, x_cur, xi_step), dtype=float)
    k_drift[:, i] = k_cur
    d_cur = _solve_diffusion(sig, f_ref - k_cur)
    d[:, i] = d_cur

    norms = np.linalg.norm(d_cur, axis=-1)
    if np.any(norms > d_cap):
        bad = int(np.argmax(norms > d_cap))
        raise DriftUnboundedError(traj=bad, step=i, norm=float(norms[bad]), cap=d_cap)

    x[:, i + 1] = x_cur + k_cur + np.einsum("mij,mj->mi", sig, w[:, i])
    log_theta[:, i + 1] = log_theta[:, i] + (
        -0.5 * np.einsum("mi,mi->m", d_cur, d_cur) + np.einsum("mi,mi->m", d_cur, w[:, i])
    )
    over = log_theta[:, i + 1] > _LOG_MAX
    if np.any(over):
        bad = int(np.argmax(over))
        raise WeightOverflowError(traj=bad, step=i, log_weight=float(log_theta[bad, i + 1]))


def pinned_step_batch(
    dp: DiscreteProblem,
    mu,
    i: int,
    x_pin: np.ndarray,
    k_pin: np.ndarray,
    n_samples: int,
    seed: int,
) -> TrajectoryBatch:
    """Batch whose step ``i`` repeats a pinned state and drift increment.

    Every trajectory starts step ``i`` at ``x_pin`` with drift increment
    ``k_pin`` and only the noise W_i is resampled; earlier steps are frozen
    placeholders.  Used for conditional bias/variance diagnostics.
    """
    if not 0 <= i < dp.n_steps:
        raise ValueError(f"step {i} out of range [0, {dp.n_steps})")
    n = dp.dim_x
    x_pin = np.asarray(x_pin, dtype=float).reshape(n)
    k_pin = np.asarray(k_pin, dtype=float).reshape(n)

    w = np.empty((n_samples, 1, n))
    for k in range(n_samples):
        w[k, 0] = _stream(seed, k, _PURPOSE_BROWNIAN).standard_normal(n)

    x = np.zeros((n_samples, i + 2, n))
    x[:, : i + 1] = x_pin
    k_drift = np.zeros((n_samples, i + 1, n))
    k_drift[:, i] = k_pin
    d = np.zeros((n_samples, i + 1, n))
    log_theta = np.zeros((n_samples, i + 2))

    sig = dp.Sigma(i, x[:, i])
    f_ref = dp.F(i, x[:, i], mu(i, x[:, i]))
    d[:, i] = _solve_diffusion(sig, f_ref - k_drift[:, i])
    x[:, i + 1] = x[:, i] + k_drift[:, i] + np.einsum("mij,mj->mi", sig, w[:, 0])
    log_theta[:, i + 1] = -0.5 * np.einsum("mi,mi->m", d[:, i], d[:, i]) + np.einsum(
        "mi,mi->m", d[:, i], w[:, 0]
    )

    full_w = np.zeros((n_samples, i + 1, n))
    full_w[:, i] = w[:, 0]
    return TrajectoryBatch(x=x, w=full_w, k_drift=k_drift, d=d, log_theta=log_theta)


def girsanov_weights(batch: TrajectoryBatch) -> np.ndarray:
    """Recompute the weights from the stored corrections and noises.

    Updates ``batch.log_theta`` in place and returns the weight array
    ``Theta`` of shape (M, N+1) with ``Theta[:, 0] == 1``.

    Raises
    ------
    WeightOverflowError
        Naming the first (trajectory, step) whose weight leaves float64 range.
    """
    increments = -0.5 * np.einsum("mki,mki->mk", batch.d, batch.d) + np.einsum(
        "mki,mki->mk", batch.d, batch.w
    )
    log_theta = np.concatenate(
        [np.zeros((batch.n_samples, 1)), np.cumsum(increments, axis=1)], axis=1
    )
    over = log_theta > _LOG_MAX
    if np.any(over):
        flat = int(np.argmax(over))
        traj, step = divmod(flat, log_theta.shape[1])
        raise WeightOverflowError(
            traj=traj, step=step - 1, log_weight=float(log_theta[traj, step])
        )
    batch.log_theta = log_theta
    return np.exp(log_theta)

