"""Ground-truth value functions for error measurement.

Problems with one state and one control get a gridded stochastic dynamic
program: values are tabulated on uniform state nodes, expectations over the
Gaussian step noise use normalized Gauss-Hermite quadrature, next-step values
are interpolated linearly with linear extrapolation at the edges, and the
control minimization runs over a grid followed by one parabolic refinement of
the argmin (exact for objectives quadratic in the control).

Linear-quadratic problems get the exact backward Riccati recursion

    P_N = G,  c_N = 0,
    gain_i = (R + B^T P_{i+1} B)^{-1} B^T P_{i+1} A,
    P_i = Q + A^T P_{i+1} (A - B gain_i),
    c_i = c_{i+1} + tr(Sigma^T P_{i+1} Sigma),

in the discrete-time matrices ``DiscreteProblem.lqr`` that
:func:`problems.discretize` forms, giving V_i(x) = x^T P_i x + c_i and the
optimal feedback u_i = -gain_i x.  Each truth records the control box of the
problem it was built from, so its policy needs no other input.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GridEscapeWarning, OutOfDomainError, SingularRecursionError
from .problems import DiscreteProblem, FeedbackPolicy, _check_step

__all__ = [
    "GridSpec",
    "GridTruth",
    "RiccatiTruth",
    "GridPolicy",
    "grid_bellman",
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

    ``lo``/``hi`` are length-1 arrays bounding the state interval.
    """

    lo: np.ndarray
    hi: np.ndarray
    n_state_nodes: int = 2001
    n_control_nodes: int = 201
    n_quad_nodes: int = 21

    @classmethod
    def from_region(cls, region) -> "GridSpec":
        """Span the union of a confidence region's per-step boxes, widened.

        The union interval grows by half its half-width on each side.
        """
        lo = region.lower.min(axis=0)
        hi = region.upper.max(axis=0)
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * 1.5
        return cls(lo=center - half, hi=center + half)


@dataclass(eq=False)
class GridTruth:
    """Tabulated value function and minimizing control per timestep.

    ``values`` has shape (N+1, nodes); ``u_star`` has shape (N, nodes) and
    covers steps 0..N-1; ``control_lower``/``control_upper`` are the problem's control box.
    """

    nodes: np.ndarray
    values: np.ndarray
    u_star: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    margin: np.ndarray
    control_lower: np.ndarray
    control_upper: np.ndarray
    escape_count: int = 0

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def _check_domain(self, x: np.ndarray) -> None:
        if np.any((x < self.lo - self.margin) | (x > self.hi + self.margin)):
            raise OutOfDomainError("query outside the tabulated grid plus extrapolation margin")

    def value(self, i: int, x) -> np.ndarray:
        """Interpolated value at step ``i``; linear extrapolation at edges."""
        _check_step(i, self.values.shape[0])
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        return _interp(self.nodes, self.values[i], x)

    def control(self, i: int, x) -> np.ndarray:
        _check_step(i, self.u_star.shape[0])
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        return _interp(self.nodes, self.u_star[i], x)[..., None]


class GridPolicy:
    """Feedback policy interpolating the tabulated minimizing controls, clipped to the box."""

    def __init__(self, truth: GridTruth):
        self.truth = truth

    def __call__(self, i: int, x: np.ndarray) -> np.ndarray:
        truth = self.truth
        return np.clip(truth.control(i, x), truth.control_lower, truth.control_upper)


@dataclass(frozen=True, eq=False)
class RiccatiTruth:
    """Exact quadratic value data V_i(x) = x^T P_i x + c_i, and the problem's control box."""

    p: np.ndarray
    c: np.ndarray
    gain: np.ndarray
    control_lower: np.ndarray
    control_upper: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.p.shape[0] - 1

    def value(self, i: int, x) -> np.ndarray:
        _check_step(i, self.p.shape[0])
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, self.p[i], x) + self.c[i]

    def policy(self) -> FeedbackPolicy:
        """The optimal feedback u_i = -gain_i x, clipped to the box, as a Policy."""
        return FeedbackPolicy(-self.gain, self.control_lower, self.control_upper)


GroundTruth = Union[GridTruth, RiccatiTruth]

# points per grid_bellman row block: 512 KB per float64 temporary, cache-sized
_BUDGET = 65536
# bytes of interpolation cells and fractions grid_bellman keeps across steps
_CACHE_BYTES = 32 * 2**20


def _cells(nodes, x):
    """Cell index and in-cell fraction of ``x[..., 0]`` on uniform ``nodes``.

    The uniform node spacing gives both from one division, and letting the
    fraction leave [0, 1] in the edge cells is exactly linear extrapolation.
    """
    xi = x[..., 0]
    # an explicit output keeps a single-point query's 0-d position an array
    frac = np.subtract(xi, nodes[0], out=np.empty(xi.shape))
    frac /= nodes[1] - nodes[0]
    cell = frac.astype(np.intp)
    np.clip(cell, 0, len(nodes) - 2, out=cell)
    frac -= cell
    return cell, frac


def _gather(table, slope, cell, frac):
    """``table[cell] + frac * slope[cell]``, leaving ``frac`` unchanged.

    ``slope`` is ``np.diff(table)``: the same IEEE subtraction
    ``table[cell + 1] - table[cell]``, done once per node rather than once per
    point, so the result is bit-identical.
    """
    out = slope.take(cell)
    out *= frac
    out += table.take(cell)
    return out


def _interp(nodes, table, x):
    """Linear interpolation in ``x[..., 0]`` with linear extrapolation outside."""
    return _gather(table, np.diff(table), *_cells(nodes, x))


def grid_bellman(dp: DiscreteProblem, grid: GridSpec) -> GridTruth:
    """Dynamic-programming ground truth on a state grid (one state, one control).

    Requires the problem callables to broadcast (they do for instances built
    by this package).  Each step is evaluated in blocks of state rows holding
    a fixed budget of (state, control, quadrature node) points, so peak memory
    does not grow with states x controls x nodes, and the tables are bit-for-bit
    those of one whole-grid pass.  States thrown outside the grid-plus-margin
    by the quadrature displacements increment ``escape_count`` and raise a
    :class:`GridEscapeWarning` once per run; they are still evaluated by
    linear extrapolation.

    The full-grid pass keeps the interpolation cells and fractions of its
    leading row blocks, up to ``_CACHE_BYTES`` (32 MiB), and reuses them at
    every later step whose drift F on the (state, control) grid and noise
    Sigma z on the (state, node) grid are bit-equal to those they were built
    from; otherwise it rebuilds them.  A time-homogeneous problem therefore
    builds them once, a time-varying one at every step where its inputs
    change, and no problem needs to declare which it is.  Blocks past the
    bound, and the refinement pass, are computed at every step.  The tables
    and ``escape_count`` are bit-for-bit those of computing every block at
    every step: a reused block adds its stored escape count once per step.
    """
    if dp.dim_x != 1 or dp.dim_u != 1:
        raise ValueError("gridded ground truth needs one state and one control dimension")
    if not (np.all(np.isfinite(dp.control_lower)) and np.all(np.isfinite(dp.control_upper))):
        raise ValueError("gridded ground truth needs a finite control box")

    nodes = np.linspace(grid.lo[0], grid.hi[0], grid.n_state_nodes)
    u_nodes = np.linspace(dp.control_lower[0], dp.control_upper[0], grid.n_control_nodes)
    states, controls = nodes[:, None], u_nodes[:, None]
    # Gauss-Hermite nodes and weights normalized to the standard normal density
    h, w = np.polynomial.hermite.hermgauss(grid.n_quad_nodes)
    z, w = h * math.sqrt(2.0), w / math.sqrt(math.pi)

    margin = _MARGIN_FRACTION * (grid.hi - grid.lo)
    n_states, n_controls, n_quad = len(nodes), len(u_nodes), len(w)
    rows_all = np.arange(n_states)
    values = np.empty((dp.n_steps + 1, n_states))
    u_star = np.empty((dp.n_steps, n_states))
    values[dp.n_steps] = dp.g(states)
    escape_count = 0

    # Freeing one untouched mapped array larger than a row block's temporaries
    # raises glibc's mmap and trim thresholds (mallopt(3)), so the blocks reuse
    # heap pages instead of faulting in fresh ones; the cost of a run then no
    # longer depends on what the process allocated before.
    np.empty(8 * min(max(_BUDGET, n_controls * n_quad), n_states * n_controls * n_quad))

    xs_all = np.broadcast_to(states[:, None, :], (n_states, n_controls, 1))
    us_all = np.broadcast_to(controls[None, :, :], (n_states, n_controls, 1))
    # leading full-grid row blocks whose (cell, frac, escapes) fit the bound
    block_points = max(1, _BUDGET // (n_controls * n_quad)) * n_controls * n_quad
    n_kept = _CACHE_BYTES // (block_points * (np.dtype(np.intp).itemsize + 8))
    kept, kept_from = [], None

    for i in reversed(range(dp.n_steps)):
        vtab = values[i + 1]
        slope = np.diff(vtab)
        sig_z = np.einsum("scd,qd->sqc", dp.Sigma(i, states), z[:, None])

        def expected(xs, us, drift, blocks=None):
            """Stage cost plus expected next value for paired (xs, us).

            ``xs``, ``us`` and ``drift`` broadcast to (n_states, U, 1); returns
            (n_states, U).  ``blocks`` lists (cell, frac, escapes) of the
            leading row blocks, built for this drift and noise; blocks it
            lacks are computed and, up to ``n_kept`` of them, appended.
            """
            nonlocal escape_count
            drift = np.broadcast_to(drift, xs.shape)
            out = np.empty(xs.shape[:2])
            rows = max(1, _BUDGET // (xs.shape[1] * n_quad))
            for k, r in enumerate(range(0, n_states, rows)):
                block = slice(r, r + rows)
                if blocks is not None and k < len(blocks):
                    cell, frac, escapes = blocks[k]
                else:
                    x_next = (xs[block] + drift[block])[:, :, None, :] + sig_z[block, None]
                    escaped = (x_next < grid.lo - margin) | (x_next > grid.hi + margin)
                    escapes = int(np.count_nonzero(escaped))
                    cell, frac = _cells(nodes, x_next)
                    if blocks is not None and k < n_kept:
                        blocks.append((cell, frac, escapes))
                escape_count += escapes
                stage = dp.L(i, xs[block], us[block])
                np.add(stage, _gather(vtab, slope, cell, frac) @ w, out=out[block])
            return out

        drift = dp.F(i, xs_all, us_all)
        if kept_from is None or not (
            np.array_equal(drift, kept_from[0]) and np.array_equal(sig_z, kept_from[1])
        ):
            # a copy, in case F hands back a buffer it later overwrites
            kept, kept_from = [], (np.copy(drift), sig_z)
        obj = expected(xs_all, us_all, drift, kept)
        best = np.argmin(obj, axis=1)
        u_best = u_nodes[best]
        v_best = obj[rows_all, best]

        if n_controls >= 3:
            # one parabolic refinement around the grid argmin; exact when the
            # objective is quadratic in u
            du = u_nodes[1] - u_nodes[0]
            j0 = np.clip(best, 1, n_controls - 2)
            y_m, y_0, y_p = (obj[rows_all, j0 + k] for k in (-1, 0, 1))
            denom = y_m - 2.0 * y_0 + y_p
            with np.errstate(divide="ignore", invalid="ignore"):
                shift = 0.5 * (y_m - y_p) / denom * du
            ok = np.isfinite(shift) & (denom > 0)
            shift = np.where(ok, np.clip(shift, -du, du), 0.0)
            u_ref = np.clip(u_nodes[j0] + shift, dp.control_lower[0], dp.control_upper[0])
            xs_ref, us_ref = states[:, None, :], u_ref[:, None, None]
            v_ref = expected(xs_ref, us_ref, dp.F(i, xs_ref, us_ref))[:, 0]
            better = v_ref < v_best
            v_best = np.where(better, v_ref, v_best)
            u_best = np.where(better, u_ref, u_best)

        values[i] = v_best
        u_star[i] = u_best

    if escape_count:
        warnings.warn(
            f"{escape_count} quadrature states left the grid beyond its margin",
            GridEscapeWarning,
            stacklevel=2,
        )
    return GridTruth(
        nodes=nodes,
        values=values,
        u_star=u_star,
        lo=grid.lo,
        hi=grid.hi,
        margin=margin,
        control_lower=dp.control_lower,
        control_upper=dp.control_upper,
        escape_count=escape_count,
    )


def riccati_from_lqr(dp: DiscreteProblem) -> RiccatiTruth:
    """Backward Riccati recursion in the discrete-time matrices ``dp.lqr``, over ``dp.n_steps``.

    Raises
    ------
    ValueError
        If ``dp`` carries no linear-quadratic matrices.
    SingularRecursionError
        If ``r + b^T P b`` is singular at some step.
    """
    lqr = dp.lqr
    if lqr is None:
        raise ValueError("the Riccati recursion needs a linear-quadratic problem (dp.lqr is None)")
    a_d, b_d, q, r, sigma_d = lqr.a, lqr.b, lqr.q, lqr.r, lqr.sigma_mat
    n_steps, (n, m) = dp.n_steps, b_d.shape

    p = np.empty((n_steps + 1, n, n))
    c = np.empty(n_steps + 1)
    gain = np.empty((n_steps, m, n))
    p[n_steps] = lqr.g_mat
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
    return RiccatiTruth(p, c, gain, dp.control_lower, dp.control_upper)


def export_grid_csv(gt: GridTruth, path) -> None:
    """Write (step, x_0, value, u_star_0) rows, one block per step; u_star_0 is nan at step N."""
    xs = list(map(repr, gt.nodes.tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "x_0", "value", "u_star_0"])
        for i in range(gt.n_steps + 1):
            us = map(repr, gt.u_star[i].tolist()) if i < gt.n_steps else itertools.repeat("nan")
            writer.writerows(zip(itertools.repeat(i), xs, map(repr, gt.values[i].tolist()), us))


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
