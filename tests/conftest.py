"""Shared builders for the test suite."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from fbsde_lsmc import (
    BasisSpec,
    ContinuousProblem,
    DriftProcess,
    EstimatorKind,
    ValueModel,
    discretize,
    estimate_targets,
    lsmc_fit,
    riccati_from_lqr,
    sample_forward,
    scaling_from_batch,
)
from fbsde_lsmc import oracles, sampling
from fbsde_lsmc.backward import backward_sweep
from fbsde_lsmc.config import parse_config_text
from fbsde_lsmc.errors import GridEscapeWarning
from fbsde_lsmc.experiments import build_setup
from fbsde_lsmc.oracles import GridSpec, GridTruth
from fbsde_lsmc.problems import DiscreteProblem, LqrStructure


class ConstantPolicy:
    """Policy returning a fixed control, clipped to the box."""

    def __init__(self, value, lower, upper):
        self.value = np.clip(np.asarray(value, dtype=float), lower, upper)

    def __call__(self, i: int, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.value, x.shape[:-1] + self.value.shape).copy()


def unit_basis(dim: int, max_total_degree: int, n_steps: int) -> BasisSpec:
    """Identity-like scaling: the box [-1, 1] itself at every step."""
    lo = np.full((n_steps + 1, dim), -1.0)
    hi = np.full((n_steps + 1, dim), 1.0)
    return BasisSpec(dim, max_total_degree, lo, hi)


def make_scalar_lqr(
    a=-0.3,
    b=1.0,
    q=1.0,
    r=1.0,
    g=2.0,
    sigma=0.7,
    horizon=1.0,
    x0=1.0,
    u_max=50.0,
) -> ContinuousProblem:
    """Scalar linear-quadratic problem with full structure metadata."""
    lqr = LqrStructure(*(np.array([[v]], dtype=float) for v in (a, b, q, r, g, sigma)))
    return ContinuousProblem.from_lqr(
        lqr, horizon, np.array([x0]), np.array([-u_max]), np.array([u_max])
    )


def driftless_lqr(sigma_mat, dim_u=1) -> LqrStructure:
    """Matrices of a problem with no drift and no cost: only the diffusion ``sigma_mat``."""
    n = len(sigma_mat)
    zero = np.zeros((n, n))
    return LqrStructure(zero, np.zeros((n, dim_u)), zero, np.zeros((dim_u, dim_u)), zero, sigma_mat)


def random_lqr(n: int, seed: int) -> tuple:
    """``(problem, gain)``: a random LQR with ``n`` states and one control, and
    a random ``(1, n)`` feedback gain for the sampling drift.

    Sigma = U diag(s) V^T with random orthogonal U, V and s in [0.3, 1] is
    invertible, with condition number at most 10 / 3, and not symmetric for
    n >= 2; q and g_mat are random positive semidefinite, r lies in [0.5, 2],
    the dynamics matrix ``a`` is random and the horizon is 1.  The box is
    unbounded, so the Riccati value is the optimal policy's, and the
    drift-correction cap is 1e9: a random feedback gives large corrections,
    as on cart-pole.
    """
    rng = np.random.default_rng(seed)
    a = 0.5 * rng.normal(size=(n, n))
    b = rng.normal(size=(n, 1))
    u_orth, v_orth = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    sigma_mat = (u_orth * rng.uniform(0.3, 1.0, n)) @ v_orth.T
    c, h = rng.normal(size=(2, n, n))
    lqr = LqrStructure(a, b, c @ c.T / n, rng.uniform(0.5, 2.0, (1, 1)), h @ h.T / n, sigma_mat)
    box = np.array([-np.inf]), np.array([np.inf])
    cp = ContinuousProblem.from_lqr(lqr, 1.0, rng.normal(size=n), *box, d_cap=1e9)
    return cp, rng.normal(size=(1, n))


@st.composite
def random_lqrs(draw):
    """:func:`random_lqr` with n = 1..4 and a random seed."""
    return random_lqr(draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)))


def make_linear_problem(dim, seed, state_sigma=False, horizon=1.0) -> ContinuousProblem:
    """Random ``dim``-D linear problem with one control and quadratic costs.

    The diffusion is a fixed well-conditioned matrix, and the problem is an
    LQR; with ``state_sigma`` the diffusion is scaled by the smooth positive
    factor 1 + tanh(x_0)^2 / 2, so it stays invertible everywhere.
    """
    rng = np.random.default_rng(seed)
    a = 0.3 * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, 1))
    s = 0.6 * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    q = np.diag(rng.uniform(0.5, 1.5, dim))
    g_mat = np.diag(rng.uniform(0.5, 1.5, dim))
    x0 = 0.5 * rng.normal(size=dim)
    box = np.array([-5.0]), np.array([5.0])
    if not state_sigma:
        lqr = LqrStructure(a, b, q, np.eye(1), g_mat, s)
        return ContinuousProblem.from_lqr(lqr, horizon, x0, *box)

    def sig(t, x):
        x = np.asarray(x, dtype=float)
        base = np.broadcast_to(s, x.shape[:-1] + (dim, dim))
        return base * (1.0 + 0.5 * np.tanh(x[..., :1, None]) ** 2)

    return ContinuousProblem(
        dim_x=dim,
        dim_u=1,
        horizon=horizon,
        f=lambda t, x, u: np.asarray(x, dtype=float) @ a.T + np.asarray(u, dtype=float) @ b.T,
        sigma=sig,
        ell=lambda t, x, u: np.einsum("...i,ij,...j->...", x, q, x) + np.sum(u**2, axis=-1),
        g=lambda x: np.einsum("...i,ij,...j->...", x, g_mat, x),
        control_lower=box[0],
        control_upper=box[1],
        x0=x0,
    )


def _cheb_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    k = np.arange(count)
    z = np.cos((2 * k + 1) * np.pi / (2 * count))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * z


def fit_function(spec: BasisSpec, i: int, fn) -> np.ndarray:
    """Coefficients reproducing ``fn`` on a tensor Chebyshev-node grid.

    Exact (to rounding) whenever ``fn`` lies in the basis span; used to embed
    known quadratics or test functions into a model.
    """
    per_axis = spec.max_total_degree + 2
    axes = [
        _cheb_nodes(spec.scale_lo[i, c], spec.scale_hi[i, c], per_axis)
        for c in range(spec.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return lsmc_fit(pts, fn(pts), spec, i)


def model_from_truth(truth, dim, n_steps, degree=2, half_width=4.0, center=None):
    """Exact-in-span model reproducing a ground truth on every step.

    Uses a fixed scaling box (center +/- half_width per coordinate) and
    Chebyshev-node interpolation, which is exact for quadratics.
    """
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    lo = np.tile(center - half_width, (n_steps + 1, 1))
    hi = np.tile(center + half_width, (n_steps + 1, 1))
    spec = BasisSpec(dim=dim, max_total_degree=degree, scale_lo=lo, scale_hi=hi)
    model = ValueModel.empty(spec, n_steps)
    for i in range(n_steps + 1):
        model.set_coeffs(i, fit_function(spec, i, lambda pts: truth.value(i, pts)))
    return model


def delta_y_hat(model, batch, i):
    """Taylor backward difference V~(X_{i+1}) - Yhat_i(taylor_reestimate), shape (M,)."""
    target = estimate_targets(EstimatorKind.TAYLOR_REESTIMATE, model, batch, i)
    return model.eval(i + 1, batch.x[:, i + 1]) - target


@pytest.fixture(scope="session")
def scalar_lqr_setup():
    """Discretized scalar LQR with its Riccati truth and optimal policy."""
    cp = make_scalar_lqr()
    n_steps = 20
    dp = discretize(cp, n_steps)
    truth = riccati_from_lqr(dp)
    mu = truth.policy()
    return cp, dp, truth, mu


def full_history_pinned(dp, mu, i, x_pin, k_pin, n_samples, seed):
    """Reference pinned batch in the full-history layout, stepped by ``_advance_step``.

    Columns 0..i+1 with time index = column; every step before ``i`` is a
    placeholder holding ``x_pin`` and zero noise, whose drift is the
    reference policy's own, so its correction is zero.  Same signature as
    :func:`fbsde_lsmc.sampling.pinned_step_batch`.
    """
    n = dp.dim_x
    x_pin = np.asarray(x_pin, dtype=float).reshape(n)
    k_pin = np.asarray(k_pin, dtype=float).reshape(n)
    w = np.zeros((n_samples, i + 1, n))
    w[:, i] = sampling._normals(seed, n_samples, (n,))

    def increments(dp, j, x):
        return np.broadcast_to(k_pin, x.shape) if j == i else dp.F(j, x, mu(j, x))

    x = np.zeros((n_samples, i + 2, n))
    batch = sampling.TrajectoryBatch(x, w, dp, mu, DriftProcess(increments))
    batch.x[:, : i + 1] = x_pin
    sampling._advance_step(batch, i, np.inf)
    return batch


# Tiny configs of both shipped problems, under their default drifts.
_TINY_PROBLEMS = {
    "cartpole_lqr": "problem.name = cartpole_lqr\nrun.n_steps = 8\ndrift.kind = suboptimal\n",
    "nonlinear1d": (
        "problem.name = nonlinear1d\nrun.n_steps = 20\n"
        "oracle.state_nodes = 401\noracle.control_nodes = 41\noracle.quad_nodes = 11\n"
    ),
}


@pytest.fixture(scope="session", params=sorted(_TINY_PROBLEMS))
def fitted_problem(request):
    """(setup, batch, models) on a tiny config of each shipped problem.

    ``batch`` is a 64-path batch under the config's drift and ``models`` maps
    every estimator kind to its degree-2 fit on that batch.
    """
    cfg = parse_config_text(
        _TINY_PROBLEMS[request.param] + "run.seed = 99\nsampling.reference_samples = 64\n"
    )
    setup = build_setup(cfg)
    batch = sample_forward(setup.dp, setup.mu, setup.drift, 64, seed=5)
    spec = scaling_from_batch(batch, 2)
    models = backward_sweep(batch, list(EstimatorKind), spec)
    assert all(isinstance(m, ValueModel) for m in models.values())
    return setup, batch, models


# The gridded oracle's kernel as it was before it reused interpolation cells
# across steps, kept verbatim (names aside) as the reference its tables and
# escape counts must equal bit for bit.

# points per row block of the reference kernel (the library default)
REFERENCE_BUDGET = 65536


def reference_interp(nodes, table, x):
    """Linear interpolation in ``x[..., 0]`` with linear extrapolation outside.

    The uniform node spacing gives cell index and fraction from one
    division, and letting the fraction leave [0, 1] in the edge cells is
    exactly linear extrapolation.  It works in place and gathers each cell's
    slope from ``np.diff(table)``: the same IEEE subtraction
    ``table[cell + 1] - table[cell]``, done once per node rather than once per
    point, so the result is bit-identical.
    """
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


def reference_grid_bellman(dp: DiscreteProblem, grid: GridSpec) -> GridTruth:
    """Dynamic-programming ground truth on a state grid (one state, one control).

    Requires the problem callables to broadcast (they do for instances built
    by this package).  Each step is evaluated in blocks of state rows holding
    a fixed budget of (state, control, quadrature node) points, so peak memory
    does not grow with states x controls x nodes, and the tables are bit-for-bit
    those of one whole-grid pass.  States thrown outside the grid-plus-margin
    by the quadrature displacements increment ``escape_count`` and raise a
    :class:`GridEscapeWarning` once per run; they are still evaluated by
    linear extrapolation.
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

    margin = oracles._MARGIN_FRACTION * (grid.hi - grid.lo)
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
    np.empty(8 * min(max(REFERENCE_BUDGET, n_controls * n_quad), n_states * n_controls * n_quad))

    for i in reversed(range(dp.n_steps)):
        vtab = values[i + 1]
        sig_z = np.einsum("scd,qd->sqc", dp.Sigma(i, states), z[:, None])

        def expected(xs, us):
            """Stage cost plus expected next value for paired (xs, us).

            ``xs`` and ``us`` share shape (n_states, U, 1); returns (n_states, U).
            """
            nonlocal escape_count
            out = np.empty(xs.shape[:2])
            rows = max(1, REFERENCE_BUDGET // (xs.shape[1] * n_quad))
            for r in range(0, n_states, rows):
                xc, uc = xs[r : r + rows], us[r : r + rows]
                stage = dp.L(i, xc, uc)
                x_next = (xc + dp.F(i, xc, uc))[:, :, None, :] + sig_z[r : r + rows, None]
                escaped = (x_next < grid.lo - margin) | (x_next > grid.hi + margin)
                escape_count += int(np.count_nonzero(escaped))
                np.add(stage, reference_interp(nodes, vtab, x_next) @ w, out=out[r : r + rows])
            return out

        xs_all = np.broadcast_to(states[:, None, :], (n_states, n_controls, 1))
        us_all = np.broadcast_to(controls[None, :, :], (n_states, n_controls, 1))
        obj = expected(xs_all, us_all)
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
            v_ref = expected(states[:, None, :], u_ref[:, None, None])[:, 0]
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


# The Chebyshev features as they were computed before the recursive product,
# by one fancy-indexed (..., size, dim) table and a product over coordinates,
# kept verbatim (names aside) as the reference whose bits and strides
# ``basis_eval`` must reproduce.


def reference_cheb_values(z: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev values T_j(z), j = 0..degree, on a new trailing axis.

    The three-term recurrence is total: valid for any real z.
    """
    t = np.empty(z.shape + (degree + 1,))
    t[..., 0] = 1.0
    if degree >= 1:
        t[..., 1] = z
    for j in range(2, degree + 1):
        t[..., j] = 2.0 * z * t[..., j - 1] - t[..., j - 2]
    return t


def reference_basis_eval(spec: BasisSpec, i: int, x) -> np.ndarray:
    """Feature vector Phi(x) at step ``i``; shape ``x.shape[:-1] + (size,)``."""
    x = np.asarray(x, dtype=float)
    z = spec.scaled(i, x)
    t = reference_cheb_values(z, spec.max_total_degree)
    tsel = t[..., np.arange(spec.dim), spec.indices]
    return np.prod(tsel, axis=-1)
