"""Shared builders for the test suite."""

import numpy as np
import pytest

from fbsde_lsmc import (
    BasisSpec,
    ContinuousProblem,
    DriftProcess,
    EstimatorKind,
    ValueModel,
    discretize,
    estimate_targets,
    fit_function,
    riccati_from_lqr,
    sample_forward,
    scaling_from_batch,
)
from fbsde_lsmc import sampling
from fbsde_lsmc.backward import backward_sweep
from fbsde_lsmc.config import parse_config_text
from fbsde_lsmc.experiments import build_setup
from fbsde_lsmc.problems import LqrStructure


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

    def f(t, x, u):
        return a * x + b * u

    def sig(t, x):
        return np.full(np.shape(x)[:-1] + (1, 1), sigma)

    def ell(t, x, u):
        return q * x[..., 0] ** 2 + r * u[..., 0] ** 2

    def term(x):
        return g * np.asarray(x, dtype=float)[..., 0] ** 2

    from fbsde_lsmc.problems import ControlStructure

    structure = ControlStructure(
        drift_state=lambda t, x: a * np.asarray(x, dtype=float),
        drift_gain=lambda t, x: np.full(np.shape(x)[:-1] + (1, 1), b),
        cost_quad=np.array([[r]]),
    )
    return ContinuousProblem(
        dim_x=1,
        dim_u=1,
        horizon=horizon,
        f=f,
        sigma=sig,
        ell=ell,
        g=term,
        control_lower=np.array([-u_max]),
        control_upper=np.array([u_max]),
        x0=np.array([x0]),
        structure=structure,
        lqr=LqrStructure(
            a=np.array([[a]]),
            b=np.array([[b]]),
            q=np.array([[q]]),
            r=np.array([[r]]),
            g_mat=np.array([[g]]),
            sigma_mat=np.array([[sigma]]),
        ),
    )


def make_linear_problem(dim, seed, state_sigma=False, horizon=1.0) -> ContinuousProblem:
    """Random ``dim``-D linear problem with one control and quadratic costs.

    The diffusion is a fixed well-conditioned matrix; with ``state_sigma`` it
    is scaled by the smooth positive factor 1 + tanh(x_0)^2 / 2, so it stays
    invertible everywhere.
    """
    rng = np.random.default_rng(seed)
    a = 0.3 * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, 1))
    s = 0.6 * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    q = np.diag(rng.uniform(0.5, 1.5, dim))
    g_mat = np.diag(rng.uniform(0.5, 1.5, dim))

    def sig(t, x):
        x = np.asarray(x, dtype=float)
        base = np.broadcast_to(s, x.shape[:-1] + (dim, dim))
        if not state_sigma:
            return base.copy()
        return base * (1.0 + 0.5 * np.tanh(x[..., :1, None]) ** 2)

    return ContinuousProblem(
        dim_x=dim,
        dim_u=1,
        horizon=horizon,
        f=lambda t, x, u: np.asarray(x, dtype=float) @ a.T + np.asarray(u, dtype=float) @ b.T,
        sigma=sig,
        ell=lambda t, x, u: np.einsum("...i,ij,...j->...", x, q, x) + np.sum(u**2, axis=-1),
        g=lambda x: np.einsum("...i,ij,...j->...", x, g_mat, x),
        control_lower=np.array([-5.0]),
        control_upper=np.array([5.0]),
        x0=0.5 * rng.normal(size=dim),
    )


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


def delta_y_hat(model, dp, mu, batch, i):
    """Taylor backward difference V~(X_{i+1}) - Yhat_i(taylor_reestimate), shape (M,)."""
    target = estimate_targets(EstimatorKind.TAYLOR_REESTIMATE, model, dp, mu, batch, i)
    return model.eval(i + 1, batch.x[:, i + 1]) - target


@pytest.fixture(scope="session")
def scalar_lqr_setup():
    """Discretized scalar LQR with its Riccati truth and optimal policy."""
    cp = make_scalar_lqr()
    n_steps = 20
    dp = discretize(cp, n_steps)
    truth = riccati_from_lqr(cp.lqr, cp.horizon, n_steps)
    mu = truth.policy(dp.control_lower, dp.control_upper)
    return cp, dp, truth, mu


def full_history_pinned(dp, mu, i, x_pin, k_pin, n_samples, seed):
    """Reference pinned batch in the full-history layout, stepped by ``_advance_step``.

    Columns 0..i+1 with time index = column; every step before ``i`` is a
    placeholder holding ``x_pin`` and zeros.  Same signature as
    :func:`fbsde_lsmc.sampling.pinned_step_batch`.
    """
    n = dp.dim_x
    x_pin = np.asarray(x_pin, dtype=float).reshape(n)
    k_pin = np.asarray(k_pin, dtype=float).reshape(n)
    w = np.zeros((n_samples, i + 1, n))
    w[:, i] = sampling._normals(seed, n_samples, (n,))
    batch = sampling._zero_batch(w)
    batch.x[:, : i + 1] = x_pin
    drift = DriftProcess.feedback(lambda j, x: np.broadcast_to(k_pin, x.shape))
    sampling._advance_step(dp, mu, drift, i, batch, np.inf)
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
    batch = sample_forward(setup.dp, setup.mu, setup.drift, 64, seed=5, d_cap=cfg.d_cap)
    spec = scaling_from_batch(batch, 2)
    models = backward_sweep(setup.dp, setup.mu, batch, list(EstimatorKind), spec)
    assert all(isinstance(m, ValueModel) for m in models.values())
    return setup, batch, models
