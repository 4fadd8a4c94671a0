"""Policy improvement from a fitted value model.

Two minimizers are provided.  The Hamiltonian rule picks

    argmin_u  L_i(x, u) + F_i(x, u)^T grad V~_i(x)

using only the gradient of the current-step model; it is kept as the
comparison baseline.  The second-order rule minimizes the expansion-based
state-action value

    Q~_i(x, u) = L_i(x, u) + V~_{i+1}(x + F_i(x, u))
                 + tr(Sigma_i^T hess V~_{i+1}(x + F_i(x, u)) Sigma_i) / 2,

which is exact for quadratic models, where it reproduces the optimal
linear-quadratic feedback.  Q~ and its closed-form minimizer expand the
model through :func:`estimators.taylor_triple`, as the backward targets do.

Both solvers use a closed form when the problem declares a control-affine
drift with a separable (diagonal) quadratic-plus-L1 control cost over an
interval box: per-coordinate stationary points are soft-thresholded and
clipped against the interval endpoints.  Anything else falls back to a
tensor grid search over the box.
"""

from __future__ import annotations

import numpy as np

from .estimators import taylor_triple
from .problems import DiscreteProblem
from .value_model import ValueModel

__all__ = ["hamiltonian_policy", "taylor_q", "improve_policy"]


def _diagonal_part(quad: np.ndarray, m: int):
    """(diagonal, True) when ``quad`` is diagonal within rounding, else (None, False)."""
    diag = np.diagonal(quad, axis1=-2, axis2=-1)
    off = quad - np.eye(m) * diag[..., None, :]
    scale = max(1.0, float(np.max(np.abs(quad))))
    if np.all(np.abs(off) <= 1e-12 * scale):
        return diag, True
    return None, False


def _separable_argmin(quad_diag, lin, l1, lower, upper):
    """Coordinatewise argmin of a_j u^2 + c_j u + l_j |u| over [lo_j, hi_j].

    Candidates are the soft-thresholded stationary points of the two smooth
    branches, the interval endpoints and 0, so nonconvex coordinates still
    get the exact interval minimum.  ``lin`` (and optionally ``quad_diag``)
    may carry leading batch axes.
    """
    lin = np.asarray(lin, dtype=float)
    quad_diag = np.broadcast_to(np.asarray(quad_diag, dtype=float), lin.shape)
    out = np.empty(lin.shape)
    for j in range(lin.shape[-1]):
        a = quad_diag[..., j]
        c = lin[..., j]
        lam = l1[j]
        lo, hi = lower[j], upper[j]
        if (not np.isfinite(lo) or not np.isfinite(hi)) and np.any(a <= 0):
            raise ValueError("quadratic control term not positive on an unbounded box")
        zero = np.clip(0.0, lo, hi)
        cands = [np.broadcast_to(zero, c.shape)]
        if np.isfinite(lo):
            cands.append(np.full(c.shape, lo))
        if np.isfinite(hi):
            cands.append(np.full(c.shape, hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            u_pos = (-c - lam) / (2 * a)
            u_neg = (-c + lam) / (2 * a)
        convex = a > 0
        cands.append(np.where(convex, np.clip(np.maximum(u_pos, 0.0), lo, hi), zero))
        cands.append(np.where(convex, np.clip(np.minimum(u_neg, 0.0), lo, hi), zero))
        cand = np.stack(cands)
        vals = a * cand**2 + c * cand + lam * np.abs(cand)
        pick = np.argmin(vals, axis=0)
        out[..., j] = np.take_along_axis(cand, pick[None], axis=0)[0]
    return out


def _grid_search(dp: DiscreteProblem, grid_points: int, x: np.ndarray, score) -> np.ndarray:
    """Control minimizing ``score(xs, us)`` over a tensor grid of the box.

    Loops over the states on the leading axes of ``x``; ``xs`` repeats one
    state once per candidate control in ``us``.
    """
    lo, hi = dp.control_lower, dp.control_upper
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("grid search needs a finite control box")
    axes = [np.linspace(lo[j], hi[j], grid_points) for j in range(dp.dim_u)]
    mesh = np.meshgrid(*axes, indexing="ij")
    us = np.stack([g.ravel() for g in mesh], axis=-1)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty((flat.shape[0], dp.dim_u))
    for k, state in enumerate(flat):
        xs = np.broadcast_to(state, (us.shape[0],) + state.shape)
        out[k] = us[int(np.argmin(score(xs, us)))]
    return out.reshape(x.shape[:-1] + (dp.dim_u,))


def hamiltonian_policy(
    m: ValueModel, dp: DiscreteProblem, i: int, x, grid_points: int = 1001
) -> np.ndarray:
    """Gradient-based control at (i, x); model must be fitted at step ``i``.

    Broadcasts over leading axes of ``x``; the grid fallback searches the
    control box once per state.
    """
    x = np.asarray(x, dtype=float)
    st = dp.structure
    if st is not None:
        diag, ok = _diagonal_part(st.cost_quad, dp.dim_u)
        if ok:
            gain = st.drift_gain(dp.t(i), x)
            lin = np.einsum("...nj,...n->...j", gain, m.grad(i, x))
            return _separable_argmin(
                diag, lin, st.cost_l1, dp.control_lower, dp.control_upper
            )

    def score(xs, us):
        return dp.L(i, xs, us) + np.einsum("gn,n->g", dp.F(i, xs, us), m.grad(i, xs[0]))

    return _grid_search(dp, grid_points, x, score)


def taylor_q(m: ValueModel, dp: DiscreteProblem, i: int, x, u):
    """Second-order state-action value at (i, x, u); model fitted at ``i + 1``.

    Broadcasts over leading axes of ``x`` and ``u``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    tri = taylor_triple(m, i, x, dp.F(i, x, u), dp.Sigma(i, x))
    return dp.L(i, x, u) + tri.ybar + 0.5 * np.trace(tri.mbar, axis1=-2, axis2=-1)


def improve_policy(
    m: ValueModel, dp: DiscreteProblem, i: int, x, grid_points: int = 1001
) -> np.ndarray:
    """Control minimizing the second-order state-action value at (i, x).

    The closed form applies when the problem declares control-affine
    structure, the model has total degree <= 2 (its expansion is exact and
    the trace term constant in u) and the combined quadratic term

        R dt + Mbar / 2,   linear term Zbar,

    is diagonal, with (Zbar, Mbar) the expansion at x + drift_state dt
    against the matrix drift_gain dt.  Otherwise the control box is grid
    searched once per state.  Either way the result broadcasts over leading
    axes of ``x``.
    """
    x = np.asarray(x, dtype=float)
    st = dp.structure
    if st is not None and m.basis.max_total_degree <= 2:
        t, dt = dp.t(i), dp.dt
        tri = taylor_triple(m, i, x, st.drift_state(t, x) * dt, st.drift_gain(t, x) * dt)
        diag, ok = _diagonal_part(st.cost_quad * dt + 0.5 * tri.mbar, dp.dim_u)
        if ok:
            return _separable_argmin(
                diag, tri.zbar, st.cost_l1 * dt, dp.control_lower, dp.control_upper
            )

    return _grid_search(dp, grid_points, x, lambda xs, us: taylor_q(m, dp, i, xs, us))
