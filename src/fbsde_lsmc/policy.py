"""Policy improvement from a fitted value model, for one control.

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

Both rules need one control (``dim_u == 1``), as both benchmark problems
have.  They use a closed form when the problem declares a control-affine
drift with a quadratic control cost: the objective is then a u^2 + c u on
the control interval, minimized exactly.  Anything else falls back to a
grid search over the interval.
"""

from __future__ import annotations

import numpy as np

from .estimators import taylor_triple
from .problems import DiscreteProblem
from .value_model import ValueModel

__all__ = ["hamiltonian_policy", "taylor_q", "improve_policy"]


def _quadratic_argmin(a, c, lo: float, hi: float) -> np.ndarray:
    """Argmin of a u^2 + c u over [lo, hi], elementwise; ``a`` broadcasts to ``c``.

    Candidates are the clipped 0, the finite endpoints and, where a > 0, the
    clipped stationary point, so a nonconvex term still gets the exact
    interval minimum.
    """
    if (not np.isfinite(lo) or not np.isfinite(hi)) and np.any(a <= 0):
        raise ValueError("quadratic control term not positive on an unbounded box")
    zero = np.clip(0.0, lo, hi)
    cands = [np.broadcast_to(zero, c.shape)]
    if np.isfinite(lo):
        cands.append(np.full(c.shape, lo))
    if np.isfinite(hi):
        cands.append(np.full(c.shape, hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = np.clip(-c / (2 * a), lo, hi)
    cands.append(np.where(a > 0, stationary, zero))
    cand = np.stack(cands)
    pick = np.argmin(a * cand**2 + c * cand, axis=0)
    return np.take_along_axis(cand, pick[None], axis=0)[0]


def _grid_search(dp: DiscreteProblem, grid_points: int, x: np.ndarray, score) -> np.ndarray:
    """Control minimizing ``score(xs, us)`` over an even grid of the interval.

    Loops over the states on the leading axes of ``x``; ``xs`` repeats one
    state once per candidate control in ``us``.
    """
    lo, hi = dp.control_lower[0], dp.control_upper[0]
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("grid search needs a finite control box")
    us = np.linspace(lo, hi, grid_points)[:, None]
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty((flat.shape[0], 1))
    for k, state in enumerate(flat):
        xs = np.broadcast_to(state, (us.shape[0],) + state.shape)
        out[k] = us[int(np.argmin(score(xs, us)))]
    return out.reshape(x.shape[:-1] + (1,))


def hamiltonian_policy(
    m: ValueModel, dp: DiscreteProblem, i: int, x, grid_points: int = 1001
) -> np.ndarray:
    """Gradient-based control at (i, x); model must be fitted at step ``i``.

    Broadcasts over leading axes of ``x``; the grid fallback searches the
    control interval once per state.  Raises ``ValueError`` unless
    ``dp.dim_u == 1``.
    """
    if dp.dim_u != 1:
        raise ValueError(f"policy improvement needs one control dimension, got {dp.dim_u}")
    x = np.asarray(x, dtype=float)
    st = dp.structure
    if st is not None:
        gain = st.drift_gain(i, x)
        lin = np.einsum("...nj,...n->...j", gain, m.grad(i, x))
        return _quadratic_argmin(st.cost_quad[0], lin, dp.control_lower[0], dp.control_upper[0])

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
    structure and the model has total degree <= 2 (its expansion is exact
    and the trace term constant in u).  It minimizes (cost_quad + Mbar / 2)
    u^2 + Zbar u, with (Zbar, Mbar) the expansion at x + F_i(x, 0) against
    the column drift_gain_i.  Otherwise the control interval is grid
    searched once per state.  Either way the result broadcasts over leading
    axes of ``x``.  Raises ``ValueError`` unless ``dp.dim_u == 1``.
    """
    if dp.dim_u != 1:
        raise ValueError(f"policy improvement needs one control dimension, got {dp.dim_u}")
    x = np.asarray(x, dtype=float)
    st = dp.structure
    if st is not None and m.basis.max_total_degree <= 2:
        tri = taylor_triple(m, i, x, dp.F(i, x, np.zeros_like(x[..., :1])), st.drift_gain(i, x))
        quad = (st.cost_quad + 0.5 * tri.mbar)[..., 0]
        return _quadratic_argmin(quad, tri.zbar, dp.control_lower[0], dp.control_upper[0])

    return _grid_search(dp, grid_points, x, lambda xs, us: taylor_q(m, dp, i, xs, us))
