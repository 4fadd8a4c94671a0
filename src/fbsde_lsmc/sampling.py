"""Forward trajectory sampling under arbitrary drifts with change-of-measure weights.

The forward process follows

    X_{i+1} = X_i + K_i + Sigma_i(X_i) W_i,      W_i ~ N(0, I),

where the drift increments K_i come from a :class:`DriftProcess` chosen at
will.  Each step also records the correction

    D_i = Sigma_i(X_i)^{-1} (F_i(X_i, mu_i(X_i)) - K_i)

relative to the batch's reference policy ``mu``.  The positive weights

    Theta_0 = 1,    Theta_{i+1} = Theta_i * exp(-||D_i||^2 / 2 + D_i^T W_i),

which convert sampled expectations to the reference-policy measure, are
formed in log space from D and W only when ``TrajectoryBatch.log_theta`` is read.

Policies are deterministic functions of ``(i, x)``, as every policy in the
package is.  So a step whose drift is ``DriftProcess.on_policy(mu)`` for the
batch's own ``mu`` (the same object) takes K_i as the F_i(X_i, mu_i(X_i)) it
has just computed for D_i instead of calling ``mu`` and F again: the bits are
those of a second call, and D_i = 0 exactly.  A 1x1 Sigma is divided by
rather than factorized; the quotient is bit for bit what ``np.linalg.solve``
returns.

Pinned batches for the conditional diagnostics advance through the same step.
They store their one live step i alone, from ``first_step = i``: every
trajectory starts it at a pinned state and increment.

Randomness uses counter-based streams keyed by ``(seed, trajectory)``, so
batches are bit-reproducible regardless of how generation is ordered or
parallelized.  Trajectory ``k``'s Brownian noise W is the Philox4x64 stream
with key ``[seed % 2**64, 2 k % 2**64]`` (a ``uint64`` array) and a zero
counter, read from its first draw: row ``k`` equals
``Generator(Philox(key=key)).standard_normal(shape)``.  The odd keys once
held a second noise stream; the factor 2 stays so that every batch, and
every result computed from one, keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy loads numpy.random on first use; importing it here loads it with the
# package instead of inside the first sampling call
from numpy.random import Generator, Philox

from .errors import DriftUnboundedError, SingularDiffusionError, WeightOverflowError
from .problems import DiscreteProblem

__all__ = [
    "DriftProcess",
    "TrajectoryBatch",
    "sample_forward",
    "pinned_step_batch",
]

# Largest exponent for which exp() stays finite in float64.
_LOG_MAX = 709.0


class DriftProcess:
    """Source of forward drift increments K_i = increments(dp, i, X_i).

    The two constructors cover the drifts in use:

    - ``on_policy(policy)``: K_i = F_i(X_i, policy(i, X_i)); when ``policy``
      is the batch's reference policy the corrections D vanish identically.
    - ``feedback(fn)``: K_i = fn(i, X_i), a deterministic state feedback.
    """

    # the policy of an on_policy drift, for the identity test in _advance_step
    _policy = None

    def __init__(self, increments: Callable):
        self.increments = increments

    @classmethod
    def on_policy(cls, policy) -> "DriftProcess":
        """K_i = F_i(X_i, policy(i, X_i)) for a deterministic ``policy``.

        A batch whose reference policy is this same object takes K_i from the
        F_i(X_i, mu_i(X_i)) of its correction: one policy and one F call per
        step instead of two, with the bits of the second call.
        """
        drift = cls(lambda dp, i, x: dp.F(i, x, policy(i, x)))
        drift._policy = policy
        return drift

    @classmethod
    def feedback(cls, fn: Callable[[int, np.ndarray], np.ndarray]) -> "DriftProcess":
        return cls(lambda dp, i, x: fn(i, x))


@dataclass(eq=False)
class TrajectoryBatch:
    """A batch of M forward paths with their drifts and corrections.

    Column ``c`` of every array holds time index ``first_step + c``.  Sampled
    batches hold every step from 0; a pinned batch holds its live step only.

    Attributes
    ----------
    x : ndarray, shape (M, N+1, n)
        Sampled states, ``x[:, 0]`` being the state at ``first_step``.
    w : ndarray, shape (M, N, n)
        Standard normal noise increments.
    k_drift : ndarray, shape (M, N, n)
        Drift increments actually applied.
    d : ndarray, shape (M, N, n)
        Corrections toward the reference policy drift.
    first_step : int
        Time index of column 0.
    """

    x: np.ndarray
    w: np.ndarray
    k_drift: np.ndarray
    d: np.ndarray
    first_step: int = 0

    @property
    def log_theta(self) -> np.ndarray:
        """Cumulative log weights (M, N+1) formed from ``d`` and ``w`` on each
        read, column 0 being 0.  Raises :class:`WeightOverflowError` at the first
        (trajectory, step) whose weight exceeds the float64 range or is NaN."""
        out = np.zeros(self.x.shape[:2])
        for c in range(self.d.shape[1]):
            d_c, w_c = self.d[:, c], self.w[:, c]
            inc = -0.5 * np.einsum("mi,mi->m", d_c, d_c) + np.einsum("mi,mi->m", d_c, w_c)
            out[:, c + 1] = out[:, c] + inc
            over = ~(out[:, c + 1] <= _LOG_MAX)
            if np.any(over):
                bad = int(np.argmax(over))
                raise WeightOverflowError(bad, self.first_step + c, float(out[bad, c + 1]))
        return out

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        """Time index of the last state column: the steps covered from time 0."""
        return self.first_step + self.x.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.x.shape[2]


def _solve_diffusion(sig: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Sigma^{-1} rhs over the stacked (..., n, n) ``sig`` and (..., n) ``rhs``.

    A 1x1 Sigma is a division, with the bits of ``np.linalg.solve``: like
    it, it raises :class:`SingularDiffusionError` when any pivot is zero
    (-0.0 included) and lets inf, NaN, overflow and underflow through without
    a floating-point warning.  Larger Sigma go through LAPACK.
    """
    if sig.shape[-2:] == (1, 1):
        if np.any(sig[..., 0, 0] == 0.0):
            raise SingularDiffusionError("diffusion matrix is singular: zero pivot")
        with np.errstate(all="ignore"):
            return rhs / sig[..., 0]
    try:
        return np.linalg.solve(sig, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularDiffusionError(f"diffusion matrix is singular: {exc}") from exc


def _normals(seed: int, n_samples: int, shape: tuple) -> np.ndarray:
    """Standard normals of ``shape`` for each trajectory, from its own stream.

    A Philox stream is fixed by its key and counter, so one bit generator is
    re-keyed per trajectory, with a zero counter and an empty buffer, instead
    of building a generator per stream.  The generator is local to the call so
    that concurrent calls share no state.
    """
    out = np.empty((n_samples,) + shape)
    # an explicit seed skips the OS-entropy draw that the first re-key overwrites
    bitgen = Philox(0)
    gen = Generator(bitgen)
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for k in range(n_samples):
        key[1] = (2 * k) % 2**64
        bitgen.state = state
        gen.standard_normal(out=out[k])
    return out


def _zero_batch(w: np.ndarray, first_step: int = 0) -> TrajectoryBatch:
    """All-zero batch around the noise ``w`` of shape (M, N, n), to be stepped."""
    m, n_steps, n = w.shape
    return TrajectoryBatch(
        x=np.zeros((m, n_steps + 1, n)),
        w=w,
        k_drift=np.zeros(w.shape),
        d=np.zeros(w.shape),
        first_step=first_step,
    )


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
        Reference policy defining the corrections D (and so the weights Theta).
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
        Naming the offending (trajectory, step) when ``||D|| > d_cap`` or a
        correction is NaN.
    FloatingPointError
        Naming the (trajectory, step) whose next state is not finite.

    Weights are not formed here: reading ``log_theta`` raises
    :class:`WeightOverflowError`.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    batch = _zero_batch(_normals(seed, n_samples, (dp.n_steps, dp.dim_x)))
    batch.x[:, 0] = dp.x0
    for i in range(dp.n_steps):
        _advance_step(dp, mu, drift, i, batch, d_cap)
    return batch


def _advance_step(dp, mu, drift, i, batch: TrajectoryBatch, d_cap):
    """Fill step ``i`` of ``batch`` from its state and noise at step ``i``, in place."""
    c = i - batch.first_step
    x_cur = batch.x[:, c]
    w_cur = batch.w[:, c]
    sig = dp.Sigma(i, x_cur)
    f_ref = dp.F(i, x_cur, mu(i, x_cur))
    if drift._policy is mu:
        k_cur = np.asarray(f_ref, dtype=float)
    else:
        k_cur = np.asarray(drift.increments(dp, i, x_cur), dtype=float)
    batch.k_drift[:, c] = k_cur
    d_cur = _solve_diffusion(sig, f_ref - k_cur)
    batch.d[:, c] = d_cur

    # the negated comparisons also reject NaN, which compares false
    norms = np.linalg.norm(d_cur, axis=-1)
    over = ~(norms <= d_cap)
    if np.any(over):
        bad = int(np.argmax(over))
        raise DriftUnboundedError(traj=bad, step=i, norm=float(norms[bad]), cap=d_cap)

    x_next = batch.x[:, c + 1]
    x_next[...] = x_cur + k_cur + np.einsum("mij,mj->mi", sig, w_cur)
    blown = ~np.isfinite(x_next).all(axis=-1)
    if np.any(blown):
        bad = int(np.argmax(blown))
        raise FloatingPointError(f"non-finite state at trajectory {bad}, step {i}")


def pinned_step_batch(
    dp: DiscreteProblem,
    mu,
    i: int,
    x_pin: np.ndarray,
    k_pin: np.ndarray,
    n_samples: int,
    seed: int,
) -> TrajectoryBatch:
    """One-step batch whose step ``i`` repeats a pinned state and drift increment.

    Every trajectory starts step ``i`` at ``x_pin`` with drift increment
    ``k_pin`` and only the noise W_i is resampled.  The batch holds step ``i``
    alone, with ``first_step = i``: ``x`` is (M, 2, n) holding X_i and
    X_{i+1}; ``w``, ``k_drift`` and ``d`` are (M, 1, n); ``log_theta`` reads
    (M, 2), its start column 0.  Its memory does not grow with ``i``.  Used
    for conditional bias/variance diagnostics.  The correction norm is not
    capped, but NaN corrections and non-finite states are still reported, as
    in :func:`sample_forward`, and weight overflow when ``log_theta`` is read.
    """
    if not 0 <= i < dp.n_steps:
        raise ValueError(f"step {i} out of range [0, {dp.n_steps})")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n = dp.dim_x
    x_pin = np.asarray(x_pin, dtype=float).reshape(n)
    k_pin = np.asarray(k_pin, dtype=float).reshape(n)

    batch = _zero_batch(_normals(seed, n_samples, (1, n)), first_step=i)
    batch.x[:, 0] = x_pin
    drift = DriftProcess.feedback(lambda j, x: np.broadcast_to(k_pin, x.shape))
    _advance_step(dp, mu, drift, i, batch, np.inf)
    return batch
