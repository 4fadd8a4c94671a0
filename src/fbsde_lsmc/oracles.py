"""Ground-truth value functions for error measurement.

Low-dimensional problems get a gridded stochastic dynamic program: values are
tabulated on state nodes, expectations over the Gaussian step noise use
normalized Gauss-Hermite quadrature, next-step values are interpolated
multilinearly with linear extrapolation at the edges, and the control
minimization runs over a grid followed by one parabolic refinement of the
argmin (exact for objectives quadratic in the control).

Linear-quadratic problems get the exact backward Riccati recursion

    P_N = G,  c_N = 0,
    gain_i = (R + B^T P_{i+1} B)^{-1} B^T P_{i+1} A,
    P_i = Q + A^T P_{i+1} (A - B gain_i),
    c_i = c_{i+1} + tr(Sigma^T P_{i+1} Sigma),

in the discrete-time matrices (A = I + A_c dt, B = B_c dt, dt-scaled costs,
Sigma = sigma sqrt(dt)), giving V_i(x) = x^T P_i x + c_i and the optimal
feedback u_i = -gain_i x.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import GridEscapeWarning, OutOfDomainError, SingularRecursionError
from .problems import DiscreteProblem, FeedbackPolicy, LqrStructure

__all__ = [
    "GridSpec",
    "GridTruth",
    "RiccatiTruth",
    "GridPolicy",
    "grid_bellman",
    "riccati_value",
    "riccati_from_lqr",
    "export_grid_csv",
    "export_riccati_json",
]


# fraction of the state span past each edge where the grid extrapolates
# linearly; beyond it escapes are counted and ground-truth queries fail
_MARGIN_FRACTION = 0.10


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Node layout for the gridded dynamic program.

    ``lo``/``hi`` bound the state box.
    """

    lo: np.ndarray
    hi: np.ndarray
    n_state_nodes: int = 2001
    n_control_nodes: int = 201
    n_quad_nodes: int = 21

    @classmethod
    def from_region(cls, region, widen: float = 0.5, **kwargs) -> "GridSpec":
        """Span the union of a confidence region's per-step boxes, widened.

        ``widen`` grows the union interval by that fraction of its half-width
        on each side.
        """
        lo = region.lower.min(axis=0)
        hi = region.upper.max(axis=0)
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * (1.0 + widen)
        return cls(lo=center - half, hi=center + half, **kwargs)


@dataclass(eq=False)
class GridTruth:
    """Tabulated value function and minimizing control per timestep.

    ``values`` has shape (N+1,) + node grid; ``u_star`` additionally carries
    a trailing control axis and covers steps 0..N-1.
    """

    axes: list
    values: np.ndarray
    u_star: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    margin: np.ndarray
    escape_count: int = 0

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def _check_domain(self, x: np.ndarray) -> None:
        below = x < (self.lo - self.margin)
        above = x > (self.hi + self.margin)
        if np.any(below | above):
            raise OutOfDomainError(
                "query outside the tabulated grid plus extrapolation margin"
            )

    def value(self, i: int, x) -> np.ndarray:
        """Interpolated value at step ``i``; linear extrapolation at edges."""
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        return _interp(self.axes, self.values[i], x)

    def control(self, i: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        cols = [
            _interp(self.axes, self.u_star[i][..., j], x)
            for j in range(self.u_star.shape[-1])
        ]
        return np.stack(cols, axis=-1)


class GridPolicy:
    """Feedback policy interpolating the tabulated minimizing controls."""

    def __init__(self, truth: GridTruth, lower, upper):
        self.truth = truth
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)

    def __call__(self, i: int, x: np.ndarray) -> np.ndarray:
        return np.clip(self.truth.control(i, x), self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class RiccatiTruth:
    """Exact quadratic value data: V_i(x) = x^T P_i x + c_i."""

    p: np.ndarray
    c: np.ndarray
    gain: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.p.shape[0] - 1

    def value(self, i: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, self.p[i], x) + self.c[i]

    def policy(self, lower, upper) -> FeedbackPolicy:
        """The optimal feedback u_i = -gain_i x as a Policy."""
        return FeedbackPolicy(-self.gain, lower, upper)


GroundTruth = Union[GridTruth, RiccatiTruth]

# points per grid_bellman row block: 512 KB per float64 temporary, cache-sized
_BUDGET = 65536


def _interp(axes, table, x):
    """Multilinear interpolation with linear extrapolation outside the axes.

    The 1-D fast path exploits the uniform node spacing: cell index and
    fraction come from one division, and letting the fraction leave [0, 1]
    in the edge cells is exactly linear extrapolation.  It works in place and
    gathers each cell's slope from ``np.diff(table)``: the same IEEE
    subtraction ``table[cell + 1] - table[cell]``, done once per node rather
    than once per point, so the result is bit-identical.
    """
    if len(axes) == 1:
        nodes = axes[0]
        xi = x[..., 0]
        # an explicit output keeps a single-point query's 0-d position an array
        pos = np.subtract(xi, nodes[0], out=np.empty(xi.shape))
        pos /= nodes[1] - nodes[0]
        cell = pos.astype(np.intp)
        np.clip(cell, 0, len(nodes) - 2, out=cell)
        pos -= cell
        pos *= np.diff(table).take(cell)
        out = table.take(cell)
        out += pos
        return out
    interp = RegularGridInterpolator(
        axes, table, method="linear", bounds_error=False, fill_value=None
    )
    return interp(x)


def _normalized_hermite(n_nodes: int) -> tuple:
    """Nodes and weights integrating against the standard normal density."""
    h, w = np.polynomial.hermite.hermgauss(n_nodes)
    return h * math.sqrt(2.0), w / math.sqrt(math.pi)


def grid_bellman(dp: DiscreteProblem, grid: GridSpec) -> GridTruth:
    """Dynamic-programming ground truth on a state grid (dim_x <= 2).

    Requires the problem callables to broadcast (they do for instances built
    by this package).  Each step is evaluated in blocks of state rows holding
    a fixed budget of (state, control, quadrature node) points, so peak memory
    does not grow with states x controls x nodes, and the tables are bit-for-bit
    those of one whole-grid pass.  States thrown outside the grid-plus-margin
    by the quadrature displacements increment ``escape_count`` and raise a
    :class:`GridEscapeWarning` once per run; they are still evaluated by
    linear extrapolation.
    """
    n = dp.dim_x
    if n > 2:
        raise ValueError("gridded ground truth supports at most 2 state dimensions")
    if not (np.all(np.isfinite(dp.control_lower)) and np.all(np.isfinite(dp.control_upper))):
        raise ValueError("gridded ground truth needs a finite control box")

    axes = [np.linspace(grid.lo[c], grid.hi[c], grid.n_state_nodes) for c in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    states = np.stack([g.ravel() for g in mesh], axis=-1)
    node_shape = mesh[0].shape

    u_axes = [
        np.linspace(dp.control_lower[j], dp.control_upper[j], grid.n_control_nodes)
        for j in range(dp.dim_u)
    ]
    u_mesh = np.meshgrid(*u_axes, indexing="ij")
    controls = np.stack([g.ravel() for g in u_mesh], axis=-1)

    z1, w1 = _normalized_hermite(grid.n_quad_nodes)
    if n == 1:
        z = z1[:, None]
        w = w1
    else:
        za, zb = np.meshgrid(z1, z1, indexing="ij")
        z = np.stack([za.ravel(), zb.ravel()], axis=-1)
        w = np.outer(w1, w1).ravel()

    margin = _MARGIN_FRACTION * (grid.hi - grid.lo)
    n_states, n_controls, n_quad = states.shape[0], controls.shape[0], z.shape[0]
    values = np.empty((dp.n_steps + 1,) + node_shape)
    u_star = np.empty((dp.n_steps,) + node_shape + (dp.dim_u,))
    values[dp.n_steps] = dp.g(states).reshape(node_shape)
    escape_count = 0

    du = np.array([ax[1] - ax[0] if len(ax) > 1 else 0.0 for ax in u_axes])

    # Freeing one untouched mapped array larger than a row block's temporaries
    # raises glibc's mmap and trim thresholds (mallopt(3)), so the blocks reuse
    # heap pages instead of faulting in fresh ones; the cost of a run then no
    # longer depends on what the process allocated before.
    np.empty(8 * n * min(max(_BUDGET, n_controls * n_quad), n_states * n_controls * n_quad))

    for i in reversed(range(dp.n_steps)):
        vtab = values[i + 1]
        sig = dp.Sigma(i, states)
        sig_z = np.einsum("scd,qd->sqc", sig, z)

        def expected(xs, us):
            """Stage cost plus expected next value for paired (xs, us).

            ``xs`` and ``us`` share shape (n_states, U, .); returns (n_states, U).
            """
            nonlocal escape_count
            out = np.empty(xs.shape[:2])
            rows = max(1, _BUDGET // (xs.shape[1] * n_quad))
            for r in range(0, n_states, rows):
                xc, uc = xs[r : r + rows], us[r : r + rows]
                stage = dp.L(i, xc, uc)
                x_next = (xc + dp.F(i, xc, uc))[:, :, None, :] + sig_z[r : r + rows, None]
                escaped = (x_next < grid.lo - margin) | (x_next > grid.hi + margin)
                escape_count += int(np.count_nonzero(np.any(escaped, axis=-1)))
                vals = _interp(axes, vtab, x_next.reshape(-1, n)).reshape(x_next.shape[:-1])
                np.add(stage, vals @ w, out=out[r : r + rows])
            return out

        xs_all = np.broadcast_to(states[:, None, :], (n_states, n_controls, n))
        us_all = np.broadcast_to(controls[None, :, :], (n_states, n_controls, dp.dim_u))
        obj = expected(xs_all, us_all)
        best = np.argmin(obj, axis=1)
        u_best = controls[best]
        v_best = np.take_along_axis(obj, best[:, None], axis=1)[:, 0]

        if dp.dim_u == 1 and grid.n_control_nodes >= 3:
            # one parabolic refinement around the grid argmin; exact when the
            # objective is quadratic in u
            j0 = np.clip(best, 1, n_controls - 2)
            y_m = np.take_along_axis(obj, (j0 - 1)[:, None], axis=1)[:, 0]
            y_0 = np.take_along_axis(obj, j0[:, None], axis=1)[:, 0]
            y_p = np.take_along_axis(obj, (j0 + 1)[:, None], axis=1)[:, 0]
            denom = y_m - 2.0 * y_0 + y_p
            with np.errstate(divide="ignore", invalid="ignore"):
                shift = 0.5 * (y_m - y_p) / denom * du[0]
            ok = np.isfinite(shift) & (denom > 0)
            shift = np.where(ok, np.clip(shift, -du[0], du[0]), 0.0)
            u_ref = np.clip(
                controls[j0, 0] + shift, dp.control_lower[0], dp.control_upper[0]
            )
            v_ref = expected(states[:, None, :], u_ref[:, None, None])[:, 0]
            better = v_ref < v_best
            v_best = np.where(better, v_ref, v_best)
            u_best = np.where(better[:, None], u_ref[:, None], u_best)

        values[i] = v_best.reshape(node_shape)
        u_star[i] = u_best.reshape(node_shape + (dp.dim_u,))

    if escape_count:
        warnings.warn(
            f"{escape_count} quadrature states left the grid beyond its margin",
            GridEscapeWarning,
            stacklevel=2,
        )
    return GridTruth(
        axes=axes,
        values=values,
        u_star=u_star,
        lo=grid.lo,
        hi=grid.hi,
        margin=margin,
        escape_count=escape_count,
    )


def riccati_value(a_d, b_d, q, r, g_mat, sigma_d, n_steps: int) -> RiccatiTruth:
    """Backward Riccati recursion over ``n_steps`` in discrete-time matrices.

    Raises
    ------
    SingularRecursionError
        If ``r + b_d^T P b_d`` is singular at some step.
    """
    a_d = np.asarray(a_d, dtype=float)
    b_d = np.asarray(b_d, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    g_mat = np.asarray(g_mat, dtype=float)
    sigma_d = np.asarray(sigma_d, dtype=float)
    n = a_d.shape[0]
    m = b_d.shape[1]

    p = np.empty((n_steps + 1, n, n))
    c = np.empty(n_steps + 1)
    gain = np.empty((n_steps, m, n))
    p[n_steps] = g_mat
    c[n_steps] = 0.0
    for i in reversed(range(n_steps)):
        p_next = p[i + 1]
        curvature = r + b_d.T @ p_next @ b_d
        try:
            gain[i] = np.linalg.solve(curvature, b_d.T @ p_next @ a_d)
        except np.linalg.LinAlgError as exc:
            raise SingularRecursionError(
                f"singular control curvature at step {i}"
            ) from exc
        p_i = q + a_d.T @ p_next @ (a_d - b_d @ gain[i])
        p[i] = 0.5 * (p_i + p_i.T)
        c[i] = c[i + 1] + np.trace(sigma_d.T @ p_next @ sigma_d)
    return RiccatiTruth(p=p, c=c, gain=gain)


def riccati_from_lqr(lqr: LqrStructure, horizon: float, n_steps: int) -> RiccatiTruth:
    """Riccati truth for a continuous LQR discretized by the forward scheme."""
    dt = horizon / n_steps
    n = lqr.a.shape[0]
    return riccati_value(
        a_d=np.eye(n) + lqr.a * dt,
        b_d=lqr.b * dt,
        q=lqr.q * dt,
        r=lqr.r * dt,
        g_mat=lqr.g_mat,
        sigma_d=lqr.sigma_mat * math.sqrt(dt),
        n_steps=n_steps,
    )


def export_grid_csv(gt: GridTruth, path) -> None:
    """Write (step, x_0.., value, u_star_0..) rows for every node and step."""
    mesh = np.meshgrid(*gt.axes, indexing="ij")
    states = np.stack([g.ravel() for g in mesh], axis=-1)
    n = states.shape[1]
    m = gt.u_star.shape[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step"]
            + [f"x_{c}" for c in range(n)]
            + ["value"]
            + [f"u_star_{j}" for j in range(m)]
        )
        for i in range(gt.n_steps + 1):
            vflat = gt.values[i].ravel()
            uflat = (
                gt.u_star[i].reshape(-1, m) if i < gt.n_steps else np.full((len(vflat), m), np.nan)
            )
            for row in range(len(vflat)):
                writer.writerow(
                    [i]
                    + [repr(float(v)) for v in states[row]]
                    + [repr(float(vflat[row]))]
                    + [repr(float(u)) for u in uflat[row]]
                )


def export_riccati_json(gt: RiccatiTruth, path) -> None:
    """Write per-step {step, P row-major, c, gain} records."""
    steps = []
    for i in range(gt.n_steps + 1):
        rec = {
            "step": i,
            "p": gt.p[i].ravel().tolist(),
            "c": float(gt.c[i]),
        }
        if i < gt.n_steps:
            rec["gain"] = gt.gain[i].ravel().tolist()
        steps.append(rec)
    with open(path, "w") as fh:
        json.dump({"steps": steps}, fh, indent=2)
