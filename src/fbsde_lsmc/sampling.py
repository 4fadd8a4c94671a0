"""Forward trajectory sampling under arbitrary drifts with change-of-measure weights.

The forward process follows

    X_{i+1} = X_i + K_i + Sigma_i(X_i) W_i,      W_i ~ N(0, I),

where the drift increments K_i come from a :class:`DriftProcess` chosen at
will.  Each step has the correction

    D_i = Sigma_i(X_i)^{-1} (F_i(X_i, mu_i(X_i)) - K_i)

relative to the batch's reference policy ``mu``.  The positive weights

    Theta_0 = 1,    Theta_{i+1} = Theta_i * exp(-||D_i||^2 / 2 + D_i^T W_i),

which convert sampled expectations to the reference-policy measure, are
formed in log space from D and W only when ``TrajectoryBatch.log_theta`` is read.

A batch stores only the states X and the noise W, 16 M N n bytes plus the
extra state column.  K_i and D_i are functions of X_i, so
``TrajectoryBatch.drift_step(i)``, which the forward step also calls, forms
them again with the sampler's bits.  The batch keeps the last step it
formed: step N - 1 after sampling, where a backward sweep starts.

Policies are deterministic functions of ``(i, x)``, as every policy in the
package is.  So a step whose drift is ``DriftProcess.on_policy(mu)`` for the
batch's own ``mu`` (the same object) takes K_i as the F_i(X_i, mu_i(X_i)) it
has just computed instead of calling ``mu`` and F again: the bits are those
of a second call.  Its D_i = F_i - K_i is formed without Sigma^{-1}: +0.0
where F_i is finite and NaN where it is not, the bits the solve gives for a
Sigma with positive pivots.  So only the other steps solve with Sigma, and a
singular Sigma stops only them.

Pinned batches for the conditional diagnostics advance through the same step,
from a pinned state and increment, and store that one step alone.

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

from dataclasses import dataclass, field
from typing import Callable, Optional

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
      is the batch's reference policy the corrections D vanish identically
      and are formed without Sigma^{-1}.
    - ``feedback(fn)``: K_i = fn(i, X_i), a deterministic state feedback.
    """

    # the policy of an on_policy drift, for the identity test in drift_step
    _policy = None

    def __init__(self, increments: Callable):
        self.increments = increments

    @classmethod
    def on_policy(cls, policy) -> "DriftProcess":
        """K_i = F_i(X_i, policy(i, X_i)) for a deterministic ``policy``; see
        the module docstring for a batch whose reference policy is ``policy``."""
        drift = cls(lambda dp, i, x: dp.F(i, x, policy(i, x)))
        drift._policy = policy
        return drift

    @classmethod
    def feedback(cls, fn: Callable[[int, np.ndarray], np.ndarray]) -> "DriftProcess":
        return cls(lambda dp, i, x: fn(i, x))


@dataclass(eq=False)
class TrajectoryBatch:
    """M forward paths: states ``x`` (M, N+1, n) and noise ``w`` (M, N, n), with
    the problem ``dp``, reference policy ``mu`` and ``drift`` they were sampled under.

    Column ``c`` holds time index ``first_step + c``: sampled batches start at
    0, a pinned batch holds its live step only.  ``x`` and ``w`` are not
    written after the batch is built; each step's Sigma, K and D are formed
    from them on read, by :meth:`drift_step`.
    """

    x: np.ndarray
    w: np.ndarray
    dp: DiscreteProblem
    mu: Callable
    drift: DriftProcess
    first_step: int = 0
    # (i, drift_step(i)) of the last step formed: one column of each piece
    _last: Optional[tuple] = field(default=None, init=False, repr=False)

    def drift_step(self, i: int) -> tuple:
        """``(sigma, u, k, d)``: Sigma_i(X_i), mu_i(X_i), K_i and D_i of step ``i``.

        The forward step forms its pieces here too, so a read has the
        sampler's bits; reading the last step formed again forms nothing.
        """
        if self._last is None or self._last[0] != i:
            if not self.first_step <= i < self.n_steps:
                raise ValueError(f"step {i} out of range [{self.first_step}, {self.n_steps})")
            x_i = self.x[:, i - self.first_step]
            sig, u = self.dp.Sigma(i, x_i), self.mu(i, x_i)
            f_ref = self.dp.F(i, x_i, u)
            if self.drift._policy is self.mu:
                k = np.asarray(f_ref, dtype=float)
                d = f_ref - k  # +0.0 where F is finite, NaN where it is not
            else:
                k = np.asarray(self.drift.increments(self.dp, i, x_i), dtype=float)
                d = _solve_diffusion(sig, f_ref - k)
            self._last = (i, (sig, u, k, d))
        return self._last[1]

    @property
    def log_theta(self) -> np.ndarray:
        """Cumulative log weights (M, N+1) formed from D and ``w`` on each
        read, column 0 being 0.  Raises :class:`WeightOverflowError` at the first
        (trajectory, step) whose weight exceeds the float64 range or is NaN."""
        out = np.zeros(self.x.shape[:2])
        for c in range(self.w.shape[1]):
            d_c, w_c = self.drift_step(self.first_step + c)[3], self.w[:, c]
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

    Only steps off the batch's own policy reach it; see the module docstring.
    A zero pivot (-0.0 included) in LAPACK's LU solve raises
    :class:`SingularDiffusionError`; inf and NaN entries raise no
    floating-point warning.
    """
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
    # the setter reads each word by index: Python ints are read faster than
    # the numpy uint64 scalars that indexing an array makes
    key = [seed % 2**64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for k in range(n_samples):
        key[1] = (2 * k) % 2**64
        bitgen.state = state
        gen.standard_normal(out=out[k])
    return out


def sample_forward(
    dp: DiscreteProblem,
    mu,
    drift: DriftProcess,
    n_samples: int,
    seed: int,
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

    Raises
    ------
    SingularDiffusionError
        If Sigma_i is singular at a visited state of a step that solves with
        it: any step unless ``drift`` is ``DriftProcess.on_policy(mu)``.
    DriftUnboundedError
        Naming the offending (trajectory, step) when ``||D||`` exceeds the
        problem's cap ``dp.d_cap`` or a correction is NaN.
    FloatingPointError
        Naming the (trajectory, step) whose next state is not finite.

    Weights are not formed here: reading ``log_theta`` raises
    :class:`WeightOverflowError`.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    w = _normals(seed, n_samples, (dp.n_steps, dp.dim_x))
    batch = TrajectoryBatch(np.zeros((n_samples, dp.n_steps + 1, dp.dim_x)), w, dp, mu, drift)
    batch.x[:, 0] = dp.x0
    for i in range(dp.n_steps):
        _advance_step(batch, i, dp.d_cap)
    return batch


def _advance_step(batch: TrajectoryBatch, i: int, d_cap: float) -> None:
    """Fill X_{i+1} of ``batch`` from its state and noise at step ``i``, in place."""
    c = i - batch.first_step
    sig, _, k_cur, d_cur = batch.drift_step(i)

    # the negated comparisons also reject NaN, which compares false
    norms = np.linalg.norm(d_cur, axis=-1)
    over = ~(norms <= d_cap)
    if np.any(over):
        bad = int(np.argmax(over))
        raise DriftUnboundedError(traj=bad, step=i, norm=float(norms[bad]), cap=d_cap)

    x_next = batch.x[:, c + 1]
    x_next[...] = batch.x[:, c] + k_cur + np.einsum("mij,mj->mi", sig, batch.w[:, c])
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
    X_{i+1}; ``w`` is (M, 1, n); ``log_theta`` reads (M, 2), its start
    column 0.  Its memory does not grow with ``i``, and it keeps the step it
    formed, so reading it forms nothing again.  Used for conditional
    bias/variance diagnostics.  The correction norm is not capped, but NaN
    corrections and non-finite states are still reported, as in
    :func:`sample_forward`, and weight overflow when ``log_theta`` is read.
    """
    if not 0 <= i < dp.n_steps:
        raise ValueError(f"step {i} out of range [0, {dp.n_steps})")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n = dp.dim_x
    x_pin = np.asarray(x_pin, dtype=float).reshape(n)
    k_pin = np.asarray(k_pin, dtype=float).reshape(n)
    drift = DriftProcess.feedback(lambda j, x: np.broadcast_to(k_pin, x.shape))
    w = _normals(seed, n_samples, (1, n))
    batch = TrajectoryBatch(np.zeros((n_samples, 2, n)), w, dp, mu, drift, first_step=i)
    batch.x[:, 0] = x_pin
    _advance_step(batch, i, np.inf)
    return batch
