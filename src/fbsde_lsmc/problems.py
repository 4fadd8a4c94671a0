"""Stochastic optimal control problem definitions and their discretizations.

A continuous problem is specified by a drift ``f(t, x, u)``, an invertible
diffusion ``sigma(t, x)``, a nonnegative running cost ``ell(t, x, u)``, a
nonnegative terminal cost ``g(x)``, a horizon ``T`` and a box of admissible
controls.  Discretization replaces these with per-step increment maps

    F_i(x, u) = f(t_i, x, u) * dt
    Sigma_i(x) = sigma(t_i, x) * sqrt(dt)
    L_i(x, u) = ell(t_i, x, u) * dt

on the uniform grid t_i = i * dt, dt = T / N; :func:`discretize` is the one place dt enters.

All problem callables broadcast over leading axes: states carry a trailing
axis of length ``dim_x`` and controls a trailing axis of length ``dim_u``,
so ``f(t, x, u)`` maps ``(..., n), (..., m) -> (..., n)``, ``sigma`` maps
``(..., n) -> (..., n, n)`` and the costs map to shape ``(...)``.  This
lets samplers and grid solvers evaluate whole batches at once.

A linear-quadratic problem is stated by its matrices alone, through
:meth:`ContinuousProblem.from_lqr`.  Two benchmark instances are provided: a
scalar problem with nonlinear drift and an absolute-value running cost, and
the four-dimensional LQR of cart-pole balancing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ControlStructure",
    "LqrStructure",
    "ContinuousProblem",
    "DiscreteProblem",
    "FeedbackPolicy",
    "discretize",
    "build_nonlinear_1d",
    "build_cartpole_lqr",
]


@dataclass(frozen=True, eq=False)
class ControlStructure:
    """Decomposition of drift and cost as functions of the control.

    On a continuous problem it declares ``f(t, x, u) = f(t, x, 0) +
    drift_gain(t, x) @ u`` and ``ell(t, x, u) = ell(t, x, 0) + u^T cost_quad
    u``.  On a discretized one ``drift_gain`` takes the step ``i`` and both
    terms are dt-scaled, so ``F(i, x, u) = F(i, x, 0) + drift_gain(i, x) @ u``
    and ``L(i, x, u) = L(i, x, 0) + u^T cost_quad u``.  Policy-improvement
    code uses this to minimize over controls in closed form; problems
    without the decomposition fall back to grid search.
    """

    drift_gain: Callable[[float, np.ndarray], np.ndarray]
    cost_quad: np.ndarray


@dataclass(frozen=True, eq=False)
class LqrStructure:
    """Matrices of a linear-quadratic problem.

    On a continuous problem: dynamics dX = (a x + b u) dt + sigma_mat dW,
    running cost x^T q x + u^T r u, terminal cost x^T g_mat x.  On a
    discretized one: X_{i+1} = a X_i + b u_i + sigma_mat xi_i with standard
    normal xi_i, step cost x^T q x + u^T r u, the same terminal cost.
    """

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray
    g_mat: np.ndarray
    sigma_mat: np.ndarray


@dataclass(frozen=True, eq=False)
class ContinuousProblem:
    """Continuous-time stochastic optimal control problem.

    Attributes
    ----------
    dim_x, dim_u : int
        State and control dimensions.
    horizon : float
        Terminal time T in seconds.
    f : callable
        Drift field ``f(t, x, u) -> (..., dim_x)``.
    sigma : callable
        Diffusion field ``sigma(t, x) -> (..., dim_x, dim_x)``; must be
        invertible wherever queried.
    ell : callable
        Nonnegative running cost ``ell(t, x, u) -> (...)``.
    g : callable
        Nonnegative terminal cost ``g(x) -> (...)``.
    control_lower, control_upper : ndarray
        Per-coordinate closed control intervals (may be infinite).
    x0 : ndarray
        Nominal initial state.
    structure : ControlStructure, optional
        Control-affine/quadratic decomposition when available.
    lqr : LqrStructure, optional
        Exact matrices when the problem is linear-quadratic.
    d_cap : float
        Drift-correction norm cap that sampling enforces; change-of-measure
        error bounds degrade like exp(||D||^2 / 2).
    """

    dim_x: int
    dim_u: int
    horizon: float
    f: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray], np.ndarray]
    ell: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    control_lower: np.ndarray
    control_upper: np.ndarray
    x0: np.ndarray
    structure: Optional[ControlStructure] = None
    lqr: Optional[LqrStructure] = None
    d_cap: float = 10.0

    def __post_init__(self):
        lo = np.asarray(self.control_lower, dtype=float)
        hi = np.asarray(self.control_upper, dtype=float)
        if lo.shape != (self.dim_u,) or hi.shape != (self.dim_u,):
            raise ValueError("control box must have one interval per control coordinate")
        if np.any(lo > hi):
            raise ValueError("control box has an empty interval (lower > upper)")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @classmethod
    def from_lqr(cls, lqr: LqrStructure, horizon, x0, lower, upper, d_cap=10.0):
        """Linear-quadratic problem stated by its continuous-time matrices.

        The dimensions are read off ``lqr.a`` (n, n) and ``lqr.b`` (n, m); a
        matrix of another shape raises ``ValueError`` naming it.  The drift is
        ``x a^T + u b^T``, the diffusion the constant ``sigma_mat``, the costs
        the quadratic forms of ``q``, ``r`` and ``g_mat``, and the control
        structure (b, r).  ``lqr`` is attached as given.
        """
        a, b, q, r, g_mat, sigma_mat = lqr.a, lqr.b, lqr.q, lqr.r, lqr.g_mat, lqr.sigma_mat
        n, m = (np.shape(a) + (0,))[0], (np.shape(b) + (0, 0))[1]  # 0 for a missing axis
        shapes = dict(a=(n, n), b=(n, m), q=(n, n), r=(m, m), g_mat=(n, n), sigma_mat=(n, n))
        for name, shape in shapes.items():
            got = np.shape(getattr(lqr, name))
            if got != shape:
                raise ValueError(f"lqr.{name} has shape {got}, not {shape}")

        def f(t, x, u):
            return np.asarray(x, dtype=float) @ a.T + np.asarray(u, dtype=float) @ b.T

        def sigma(t, x):
            return np.broadcast_to(sigma_mat, np.shape(x)[:-1] + (n, n)).copy()

        def ell(t, x, u):
            x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
            return np.einsum("...i,ij,...j->...", x, q, x) + np.einsum("...i,ij,...j->...", u, r, u)

        def g(x):
            x = np.asarray(x, dtype=float)
            return np.einsum("...i,ij,...j->...", x, g_mat, x)

        def drift_gain(t, x):
            return np.broadcast_to(b, np.shape(x)[:-1] + (n, m)).copy()

        structure = ControlStructure(drift_gain, r)
        return cls(n, m, horizon, f, sigma, ell, g, lower, upper, x0, structure, lqr, d_cap)


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Discrete-time problem on a uniform grid of ``n_steps`` intervals.

    ``F``, ``Sigma``, ``L`` and ``structure.drift_gain`` take the step index
    ``i`` in place of time and follow the same broadcasting convention as
    :class:`ContinuousProblem`.  Instances built by :func:`discretize` satisfy
    the dt-scaling relations in the module docstring, and their ``structure``
    and ``lqr`` are the discrete (step ``i``) readings of the continuous
    problem's; hand-built instances only need the shapes to match.
    ``d_cap`` is the drift-correction norm cap that ``sample_forward`` checks.
    """

    n_steps: int
    dt: float
    dim_x: int
    dim_u: int
    F: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    Sigma: Callable[[int, np.ndarray], np.ndarray]
    L: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    control_lower: np.ndarray
    control_upper: np.ndarray
    x0: np.ndarray
    structure: Optional[ControlStructure] = None
    lqr: Optional[LqrStructure] = None
    d_cap: float = 10.0


def _check_step(i: int, end: int) -> None:
    """Reject a step outside [0, end): indexing a table would wrap a negative one."""
    if not 0 <= i < end:
        raise ValueError(f"step {i} out of range [0, {end})")


class FeedbackPolicy:
    """Linear state feedback ``u_i = gains_i @ x``, clipped to the box.

    ``gains`` is either a single ``(m, n)`` matrix used at every step or an
    array ``(N, m, n)`` of per-step matrices, for steps 0..N-1 only (any
    other step raises ``ValueError``).
    """

    def __init__(self, gains, lower, upper):
        self.gains = np.asarray(gains, dtype=float)
        if self.gains.ndim not in (2, 3):
            raise ValueError("gains must be (m, n) or (steps, m, n)")
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)

    def __call__(self, i: int, x: np.ndarray) -> np.ndarray:
        gain = self.gains
        if gain.ndim == 3:
            _check_step(i, gain.shape[0])
            gain = gain[i]
        u = np.asarray(x, dtype=float) @ gain.T
        return np.clip(u, self.lower, self.upper)


def discretize(cp: ContinuousProblem, n_steps: int) -> DiscreteProblem:
    """Discretize a continuous problem onto ``n_steps`` uniform intervals.

    Drift and cost increments are scaled by ``dt`` and the diffusion by
    ``sqrt(dt)``; the returned closures capture ``cp`` (immutable) by value.
    The control structure and linear-quadratic matrices, when ``cp`` declares
    them, are scaled the same way: ``a`` becomes ``I + a dt``.

    Raises
    ------
    ValueError
        If ``n_steps`` is not a positive integer.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    dt = cp.horizon / n_steps
    sqrt_dt = math.sqrt(dt)

    def F(i, x, u):
        return cp.f(i * dt, x, u) * dt

    def Sigma(i, x):
        return cp.sigma(i * dt, x) * sqrt_dt

    def L(i, x, u):
        return cp.ell(i * dt, x, u) * dt

    st, lq = cp.structure, cp.lqr
    structure = lqr = None
    if st is not None:
        structure = ControlStructure(lambda i, x: st.drift_gain(i * dt, x) * dt, st.cost_quad * dt)
    if lq is not None:
        a_d = np.eye(cp.dim_x) + lq.a * dt
        lqr = LqrStructure(a_d, lq.b * dt, lq.q * dt, lq.r * dt, lq.g_mat, lq.sigma_mat * sqrt_dt)
    return DiscreteProblem(
        n_steps=n_steps,
        dt=dt,
        dim_x=cp.dim_x,
        dim_u=cp.dim_u,
        F=F,
        Sigma=Sigma,
        L=L,
        g=cp.g,
        control_lower=cp.control_lower,
        control_upper=cp.control_upper,
        x0=cp.x0,
        structure=structure,
        lqr=lqr,
        d_cap=cp.d_cap,
    )


def build_nonlinear_1d(u_max: float = 20.0) -> ContinuousProblem:
    """Scalar benchmark with quadratic drift and absolute-value state cost.

    Dynamics dX = (0.1 (X - 3)^2 + 0.2 u) dt + 0.8 dW starting at x0 = 7,
    running cost 12 |x - 6| + 0.4 u^2, terminal cost 25 x^2, horizon 10.
    The control box [-u_max, u_max] is wide enough by default to contain the
    unconstrained minimizers over the region the experiments evaluate.
    """
    if u_max <= 0:
        raise ValueError("u_max must be positive")

    def f(t, x, u):
        return 0.1 * (x - 3.0) ** 2 + 0.2 * u

    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[:-1] + (1, 1), 0.8)
        return out

    def ell(t, x, u):
        return 12.0 * np.abs(x[..., 0] - 6.0) + 0.4 * u[..., 0] ** 2

    def g(x):
        return 25.0 * np.asarray(x, dtype=float)[..., 0] ** 2

    structure = ControlStructure(
        drift_gain=lambda t, x: np.full(np.shape(x)[:-1] + (1, 1), 0.2),
        cost_quad=np.array([[0.4]]),
    )
    return ContinuousProblem(
        dim_x=1,
        dim_u=1,
        horizon=10.0,
        f=f,
        sigma=sigma,
        ell=ell,
        g=g,
        control_lower=np.array([-u_max]),
        control_upper=np.array([u_max]),
        x0=np.array([7.0]),
        structure=structure,
    )


def build_cartpole_lqr() -> ContinuousProblem:
    """Linearized 4-D cart-pole balancing problem with additive noise.

    The state is [cart position, cart velocity, pole angle, pole angular
    velocity] and the control a force on the cart.  Linearizing a point-mass
    pole about the upright position, for a cart of mass M = 1.0 kg, a pole of
    mass m = 0.1 kg and half-length l = 0.5 m under g = 9.81 m/s^2, gives

        x_ddot     = (m g / M) theta + u / M
        theta_ddot = ((M + m) g / (M l)) theta + u / (M l)

    so the drift is f(t, x, u) = A x + B u.  The diffusion is a constant 4x4
    matrix, the running cost x^T x + u^2, the terminal cost x^T x, the
    horizon 5 s and the initial state [0, 0, pi/9, 0].  The diffusion matrix
    is poorly conditioned, so legitimate comparison drifts give large
    corrections: the drift-correction cap is 1e9, effectively off.
    """
    cart_mass, pole_mass, half_length, gravity = 1.0, 0.1, 0.5, 9.81
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, pole_mass * gravity / cart_mass, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, (cart_mass + pole_mass) * gravity / (cart_mass * half_length), 0.0],
        ]
    )
    b = np.array([[0.0], [1.0 / cart_mass], [0.0], [1.0 / (cart_mass * half_length)]])
    sigma_mat = np.array(
        [
            [0.01, 0.0, 0.0, 0.0],
            [0.0, 0.1, 0.0, 1.0],
            [0.0, 0.0, 0.01, 0.0],
            [0.0, 0.0, 0.0, 0.1],
        ]
    )
    lqr = LqrStructure(a=a, b=b, q=np.eye(4), r=np.eye(1), g_mat=np.eye(4), sigma_mat=sigma_mat)
    x0 = np.array([0.0, 0.0, math.pi / 9.0, 0.0])
    box = np.array([-np.inf]), np.array([np.inf])
    return ContinuousProblem.from_lqr(lqr, 5.0, x0, *box, d_cap=1e9)
