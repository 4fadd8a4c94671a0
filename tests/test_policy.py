"""Hamiltonian and second-order policy improvement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_lsmc import (
    BasisSpec,
    ContinuousProblem,
    DriftProcess,
    EstimatorKind,
    ValueModel,
    backward_pass,
    build_cartpole_lqr,
    build_nonlinear_1d,
    discretize,
    hamiltonian_policy,
    improve_policy,
    riccati_from_lqr,
    sample_forward,
    scaling_from_batch,
    taylor_q,
)
from fbsde_lsmc.problems import LqrStructure

from conftest import (
    ConstantPolicy,
    fit_function,
    make_linear_problem,
    make_scalar_lqr,
    model_from_truth,
    unit_basis,
)


def _model_1d(fn, n_steps, degree=2, half=8.0):
    spec = BasisSpec(
        1,
        degree,
        scale_lo=np.full((n_steps + 1, 1), -half),
        scale_hi=np.full((n_steps + 1, 1), half),
    )
    model = ValueModel.empty(spec, n_steps)
    for i in range(n_steps + 1):
        model.set_coeffs(i, fit_function(spec, i, fn))
    return model


def _mean_cost(dp, mu, batch):
    """Mean and standard error of the total cost along the batch under ``mu``."""
    total = np.zeros(batch.n_samples)
    for i in range(batch.n_steps):
        total += dp.L(i, batch.x[:, i], mu(i, batch.x[:, i]))
    total += dp.g(batch.x[:, batch.n_steps])
    return total.mean(), total.std(ddof=1) / np.sqrt(batch.n_samples)


def _unstructured_problem():
    """Scalar problem without declared control structure: grid search only."""
    return ContinuousProblem(
        dim_x=1,
        dim_u=1,
        horizon=1.0,
        f=lambda t, x, u: -0.2 * x + u,
        sigma=lambda t, x: 0.6 * np.ones(np.shape(x)[:-1] + (1, 1)),
        ell=lambda t, x, u: 0.5 * u[..., 0] ** 2,
        g=lambda x: np.asarray(x, dtype=float)[..., 0] ** 2,
        control_lower=np.array([-5.0]),
        control_upper=np.array([5.0]),
        x0=np.zeros(1),
    )


def _two_control_problem():
    """Control-affine problem with two controls and a quadratic control cost."""
    lqr = LqrStructure(
        a=np.array([[-0.2]]),
        b=np.array([[1.0, -0.5]]),
        q=np.zeros((1, 1)),
        r=np.eye(2),
        g_mat=np.eye(1),
        sigma_mat=np.array([[0.6]]),
    )
    return ContinuousProblem.from_lqr(lqr, 1.0, np.zeros(1), np.full(2, -5.0), np.full(2, 5.0))


@pytest.fixture(scope="module")
def nonlinear_dp():
    return discretize(build_nonlinear_1d(), 200)


class TestHamiltonianPolicy:
    def test_flat_gradient_gives_zero_control(self, nonlinear_dp):
        model = _model_1d(lambda pts: np.full(pts.shape[:-1], 2.0), 200)
        u = hamiltonian_policy(model, nonlinear_dp, 3, np.array([1.0]))
        np.testing.assert_allclose(u, [0.0], atol=1e-14)

    def test_closed_form_matches_stationarity(self, nonlinear_dp):
        # u* = clip(-0.2 grad / 0.8, box) for the scalar benchmark
        model = _model_1d(lambda pts: pts[..., 0] ** 2, 200)
        for x in (np.array([2.5]), np.array([-7.0]), np.array([40.0])):
            grad = model.grad(5, x)[0]
            expect = np.clip(-0.2 * grad / 0.8, -20.0, 20.0)
            u = hamiltonian_policy(model, nonlinear_dp, 5, x)
            assert u[0] == pytest.approx(expect, rel=1e-12)

    def test_binding_bound_clips(self, nonlinear_dp):
        # unconstrained minimizer is 30 when grad = -120
        model = _model_1d(lambda pts: -60.0 * pts[..., 0], 200, degree=1)
        assert model.grad(0, np.array([2.0]))[0] == pytest.approx(-60.0)
        u = hamiltonian_policy(model, nonlinear_dp, 0, np.array([2.0]))
        # -0.2 * (-60) / 0.8 = 15; scale the model to push it past the bound
        model2 = _model_1d(lambda pts: -120.0 * pts[..., 0], 200, degree=1)
        u2 = hamiltonian_policy(model2, nonlinear_dp, 0, np.array([2.0]))
        assert u[0] == pytest.approx(15.0, rel=1e-12)
        assert u2[0] == pytest.approx(20.0)

    def test_matches_grid_search_oracle(self, nonlinear_dp):
        model = _model_1d(lambda pts: 3.0 * pts[..., 0] ** 2 - pts[..., 0], 200)
        dp = nonlinear_dp
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-4, 8, size=1)
            closed = hamiltonian_policy(model, dp, 4, x)
            grad = model.grad(4, x)
            us = np.linspace(-20, 20, 100001)[:, None]
            xs = np.broadcast_to(x, (us.shape[0], 1))
            vals = dp.L(4, xs, us) + np.einsum("gn,n->g", dp.F(4, xs, us), grad)
            oracle = us[int(np.argmin(vals)), 0]
            assert abs(closed[0] - oracle) < 1e-3

    def test_grid_fallback_loops_over_leading_axes(self):
        dp = discretize(_unstructured_problem(), 4)
        model = _model_1d(lambda pts: 3.0 * pts[..., 0] ** 2 - pts[..., 0], 4)
        xs = np.linspace(-2.0, 3.0, 6).reshape(2, 3, 1)
        batched = hamiltonian_policy(model, dp, 2, xs, grid_points=201)
        single = [hamiltonian_policy(model, dp, 2, x, grid_points=201) for x in xs.reshape(-1, 1)]
        assert batched.shape == (2, 3, 1)
        np.testing.assert_array_equal(batched.reshape(-1, 1), np.stack(single))


class TestTaylorQ:
    def test_zero_diffusion_is_deterministic_backup(self):
        cp = make_scalar_lqr(sigma=1e-9)
        dp = discretize(cp, 4)
        model = _model_1d(lambda pts: pts[..., 0] ** 2, 4)
        x, u = np.array([1.0]), np.array([0.5])
        q = taylor_q(model, dp, 0, x, u)
        expect = dp.L(0, x, u) + model.eval(1, x + dp.F(0, x, u))
        assert q == pytest.approx(float(expect), rel=1e-9)

    def test_hand_value(self):
        # V(x) = x^2, Sigma = 1, x + F = 2, L = 0.5 -> 0.5 + 4 + 1 = 5.5
        cp = ContinuousProblem(
            dim_x=1,
            dim_u=1,
            horizon=1.0,
            f=lambda t, x, u: np.ones_like(np.asarray(x, dtype=float)),
            sigma=lambda t, x: np.ones(np.shape(x)[:-1] + (1, 1)),
            ell=lambda t, x, u: np.full(np.shape(x)[:-1], 0.5),
            g=lambda x: np.zeros(np.shape(x)[:-1]),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
            x0=np.zeros(1),
        )
        dp = discretize(cp, 1)
        model = _model_1d(lambda pts: pts[..., 0] ** 2, 1)
        q = taylor_q(model, dp, 0, np.array([1.0]), np.array([0.0]))
        assert q == pytest.approx(5.5, rel=1e-10)

    def test_matches_exact_discrete_q_on_lqr(self, scalar_lqr_setup):
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps)
        dt = dp.dt
        a_d, b_d, sig_d = dp.lqr.a[0, 0], dp.lqr.b[0, 0], dp.lqr.sigma_mat[0, 0]
        rng = np.random.default_rng(9)
        i = 4
        for _ in range(20):
            x = rng.uniform(-2, 2)
            u = rng.uniform(-3, 3)
            x_next = a_d * x + b_d * u
            exact = (
                dt * (x**2 + u**2)
                + truth.p[i + 1, 0, 0] * x_next**2
                + truth.c[i + 1]
                + truth.p[i + 1, 0, 0] * sig_d**2
            )
            q = taylor_q(model, dp, i, np.array([x]), np.array([u]))
            assert q == pytest.approx(exact, rel=1e-10, abs=1e-10)

    @given(dim=st.integers(1, 4), state_sigma=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_within_rounding_of_the_three_operand_trace(self, dim, state_sigma, seed):
        # the expansion's Mbar replaced sum_ikl Sigma_ki H_kl Sigma_li
        dp = discretize(make_linear_problem(dim, seed, state_sigma), 2)
        rng = np.random.default_rng(seed)
        spec = unit_basis(dim, 2, 2)
        model = ValueModel.empty(spec, 2)
        model.set_coeffs(1, rng.normal(size=spec.size))
        x, u = rng.normal(size=(8, dim)), rng.normal(size=(8, 1))
        x_next, sig = x + dp.F(0, x, u), dp.Sigma(0, x)
        hess = model.hessian(1, x_next)
        stage, value = dp.L(0, x, u), model.eval(1, x_next)
        ref = stage + value + 0.5 * np.einsum("...ki,...kl,...li->...", sig, hess, sig)
        abs_trace = np.einsum("...ki,...kl,...li->...", np.abs(sig), np.abs(hess), np.abs(sig))
        scale = np.abs(stage) + np.abs(value) + 0.5 * abs_trace
        q = taylor_q(model, dp, 0, x, u)
        assert q.shape == (8,)
        assert np.all(np.abs(q - ref) <= 4 * dim * np.finfo(float).eps * scale)
        if dim == 1:
            np.testing.assert_array_equal(q, ref)


class TestImprovePolicy:
    def test_matches_riccati_gain(self, scalar_lqr_setup):
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps)
        rng = np.random.default_rng(11)
        i = 6
        for _ in range(10):
            x = rng.uniform(-3, 3, size=1)
            u = improve_policy(model, dp, i, x)
            expect = -truth.gain[i] @ x
            np.testing.assert_allclose(u, expect, atol=1e-8)

    def test_matches_riccati_gain_on_cartpole(self):
        cp = build_cartpole_lqr()
        dp = discretize(cp, 100)
        truth = riccati_from_lqr(dp)
        model = model_from_truth(truth, 4, dp.n_steps)
        rng = np.random.default_rng(17)
        for i in (0, 50, 98):
            xs = rng.uniform(-1, 1, size=(16, 4))
            u = improve_policy(model, dp, i, xs)
            assert u.shape == (16, 1)
            np.testing.assert_allclose(u, -xs @ truth.gain[i].T, rtol=1e-11, atol=1e-11)

    def test_decoupled_control_minimizes_cost_alone(self):
        # drift ignores u entirely: the quadratic control cost picks u = 0
        cp = make_scalar_lqr(b=0.0)
        dp = discretize(cp, 4)
        model = _model_1d(lambda pts: 5.0 * pts[..., 0] ** 2 + pts[..., 0], 4)
        u = improve_policy(model, dp, 1, np.array([1.3]))
        np.testing.assert_allclose(u, [0.0], atol=1e-14)

    def test_grid_fallback_within_one_cell_of_finer_oracle(self):
        # cubic model forces the grid path
        cp = make_scalar_lqr(u_max=10.0)
        dp = discretize(cp, 4)
        model = _model_1d(lambda pts: pts[..., 0] ** 3 - 2 * pts[..., 0], 4, degree=3)
        x = np.array([0.7])
        coarse = improve_policy(model, dp, 1, x, grid_points=101)
        fine = improve_policy(model, dp, 1, x, grid_points=1001)
        cell = 20.0 / 100
        assert abs(coarse[0] - fine[0]) <= cell + 1e-12

    def test_grid_fallback_loops_over_leading_axes(self):
        # cubic model forces the grid path
        dp = discretize(_unstructured_problem(), 4)
        model = _model_1d(lambda pts: pts[..., 0] ** 3 - 2 * pts[..., 0], 4, degree=3)
        xs = np.linspace(-1.0, 1.5, 6).reshape(3, 2, 1)
        batched = improve_policy(model, dp, 1, xs, grid_points=201)
        single = [improve_policy(model, dp, 1, x, grid_points=201) for x in xs.reshape(-1, 1)]
        assert batched.shape == (3, 2, 1)
        np.testing.assert_array_equal(batched.reshape(-1, 1), np.stack(single))

    def test_argmin_invariant_to_constant_shift(self, scalar_lqr_setup):
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps)
        x = np.array([1.1])
        base = improve_policy(model, dp, 3, x)
        shifted = model_from_truth(truth, 1, dp.n_steps)
        shifted.coeffs[:, 0] += 17.0  # bump the constant feature
        after = improve_policy(shifted, dp, 3, x)
        np.testing.assert_array_equal(base, after)

    def test_affine_in_state_for_quadratic_model(self, scalar_lqr_setup):
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps)
        xs = np.linspace(-2, 2, 5)[:, None]
        us = np.array([improve_policy(model, dp, 2, x)[0] for x in xs])
        coef = np.polyfit(xs[:, 0], us, 1)
        resid = us - np.polyval(coef, xs[:, 0])
        assert np.linalg.norm(resid) < 1e-9

    def test_improvement_lowers_rollout_cost(self):
        # improving on the zero policy's own value model cannot hurt; the
        # horizon is shortened because the uncontrolled drift blows up in
        # finite time from this initial state
        import dataclasses

        cp = dataclasses.replace(build_nonlinear_1d(), horizon=1.5)
        n_steps = 15
        dp = discretize(cp, n_steps)
        base = ConstantPolicy([0.0], dp.control_lower, dp.control_upper)
        batch = sample_forward(dp, base, DriftProcess.on_policy(base), 256, seed=3)
        spec = scaling_from_batch(batch, 2)
        model = backward_pass(dp, base, batch, EstimatorKind.TAYLOR_NOISELESS, spec)
        improved = lambda i, x: improve_policy(model, dp, i, x)

        eval_base = sample_forward(dp, base, DriftProcess.on_policy(base), 400, seed=77)
        cost_base, se_base = _mean_cost(dp, base, eval_base)
        eval_improved = sample_forward(dp, improved, DriftProcess.on_policy(improved), 400, seed=77)
        cost_improved, se_improved = _mean_cost(dp, improved, eval_improved)
        assert cost_improved <= cost_base + 3 * (se_base + se_improved)


class TestOneControl:
    @pytest.mark.parametrize("rule", [hamiltonian_policy, improve_policy])
    def test_two_controls_rejected(self, rule):
        dp = discretize(_two_control_problem(), 4)
        model = _model_1d(lambda pts: pts[..., 0] ** 2, 4)
        with pytest.raises(ValueError, match="one control dimension, got 2"):
            rule(model, dp, 1, np.array([0.5]))
