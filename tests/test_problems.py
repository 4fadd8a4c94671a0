"""Problem builders and discretization."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_lsmc import (
    ContinuousProblem,
    FeedbackPolicy,
    build_cartpole_lqr,
    build_nonlinear_1d,
    discretize,
    riccati_from_lqr,
)

from conftest import ConstantPolicy, driftless_lqr


class TestDiscretize:
    def test_identity_diffusion_quarter_steps(self):
        lqr = driftless_lqr(np.eye(2))
        cp = ContinuousProblem.from_lqr(lqr, 1.0, np.zeros(2), np.array([-1.0]), np.array([1.0]))
        dp = discretize(cp, 4)
        assert dp.dt == 0.25
        np.testing.assert_array_equal(dp.Sigma(2, np.zeros(2)), 0.5 * np.eye(2))

    def test_nonlinear_1d_200_steps(self):
        dp = discretize(build_nonlinear_1d(), 200)
        assert dp.dt == pytest.approx(0.05)

    def test_stage_cost_scaling(self):
        cp = build_nonlinear_1d()
        dp = discretize(cp, 100)  # dt = 0.1
        u = np.array([3.0])
        x = np.array([6.0])
        assert dp.L(0, x, u) == pytest.approx(0.1 * 0.4 * 9.0)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            discretize(build_nonlinear_1d(), 0)

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"d_cap": np.nan}, "d_cap must be > 0"),
            ({"d_cap": -1.0}, "d_cap must be > 0"),
            ({"x0": np.zeros(3)}, r"x0 has shape \(3,\), not \(1,\)"),
        ],
        ids=["nan_cap", "negative_cap", "long_start"],
    )
    def test_a_discrete_problem_checks_its_cap_and_start(self, change, named):
        # dataclasses.replace bypasses the continuous problem's checks; a NaN
        # cap would otherwise fail in sampling as a misleading DriftUnboundedError
        dp = discretize(build_nonlinear_1d(), 10)
        with pytest.raises(ValueError, match=named):
            dataclasses.replace(dp, **change)

    def test_drift_increment_matches_rate(self):
        cp = build_nonlinear_1d()
        dp = discretize(cp, 37)
        rng = np.random.default_rng(3)
        for _ in range(20):
            i = int(rng.integers(0, 37))
            x = rng.normal(size=(1,)) * 4
            u = rng.normal(size=(1,)) * 2
            np.testing.assert_allclose(
                dp.F(i, x, u) / dp.dt, cp.f(i * dp.dt, x, u), rtol=1e-13
            )

    @given(n=st.integers(min_value=1, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_halving_steps_doubles_dt(self, n):
        cp = build_nonlinear_1d()
        assert discretize(cp, n).dt == 2.0 * discretize(cp, 2 * n).dt


class TestDiscreteStructure:
    """The structure and matrices that ``discretize`` forms, against F and L."""

    @pytest.mark.parametrize("build, n_steps", [(build_nonlinear_1d, 200), (build_cartpole_lqr, 100)])
    def test_structure_matches_the_increments(self, build, n_steps):
        # F(i, x, u) - F(i, x, 0) = drift_gain(i, x) u, L(i, x, u) - L(i, x, 0) = u^T cost_quad u
        dp = discretize(build(), n_steps)
        st = dp.structure
        rng = np.random.default_rng(4)
        for i in (0, 7, n_steps - 1):
            x = rng.uniform(-5.0, 5.0, size=(16, dp.dim_x))
            u = rng.uniform(-3.0, 3.0, size=(16, dp.dim_u))
            zero = np.zeros_like(u)
            np.testing.assert_allclose(
                dp.F(i, x, u) - dp.F(i, x, zero),
                np.einsum("...nj,...j->...n", st.drift_gain(i, x), u),
                rtol=1e-12,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                dp.L(i, x, u) - dp.L(i, x, zero),
                np.einsum("...j,jk,...k->...", u, st.cost_quad, u),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_cartpole_matrices_are_the_dt_scaled_continuous_ones(self):
        cp = build_cartpole_lqr()
        dp = discretize(cp, 100)
        dt, c, d = dp.dt, cp.lqr, dp.lqr
        np.testing.assert_array_equal(d.a, np.eye(4) + c.a * dt)
        np.testing.assert_array_equal(d.b, c.b * dt)
        np.testing.assert_array_equal(d.q, c.q * dt)
        np.testing.assert_array_equal(d.r, c.r * dt)
        np.testing.assert_array_equal(d.g_mat, c.g_mat)
        np.testing.assert_array_equal(d.sigma_mat, c.sigma_mat * math.sqrt(dt))
        assert riccati_from_lqr(dp).n_steps == dp.n_steps == 100

    def test_riccati_needs_linear_quadratic_matrices(self):
        dp = discretize(build_nonlinear_1d(), 200)
        assert dp.lqr is None
        with pytest.raises(ValueError, match="linear-quadratic"):
            riccati_from_lqr(dp)


def _cartpole_closures_by_hand(a, b, q, r, g_mat, sigma_mat):
    """f, sigma, ell, g and the drift gain as ``build_cartpole_lqr`` wrote them
    out before :meth:`ContinuousProblem.from_lqr` existed, kept verbatim as the
    reference whose bytes the constructor must reproduce."""

    def f(t, x, u):
        return np.asarray(x, dtype=float) @ a.T + np.asarray(u, dtype=float) @ b.T

    def sigma(t, x):
        shape = np.shape(x)[:-1] + (4, 4)
        return np.broadcast_to(sigma_mat, shape).copy()

    def ell(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.einsum("...i,ij,...j->...", x, q, x) + np.einsum(
            "...i,ij,...j->...", u, r, u
        )

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, g_mat, x)

    drift_gain = lambda t, x: np.broadcast_to(b, np.shape(x)[:-1] + (4, 1)).copy()
    return f, sigma, ell, g, drift_gain


class TestFromLqr:
    def test_cartpole_pieces_keep_the_hand_written_bytes(self):
        cp = build_cartpole_lqr()
        lq = cp.lqr
        f, sigma, ell, g, drift_gain = _cartpole_closures_by_hand(
            lq.a, lq.b, lq.q, lq.r, lq.g_mat, lq.sigma_mat
        )
        rng = np.random.default_rng(8)
        for lead in [(), (7,), (3, 5)]:
            x = 4.0 * rng.normal(size=lead + (4,))
            u = 9.0 * rng.normal(size=lead + (1,))
            pairs = [
                (cp.f(0.3, x, u), f(0.3, x, u)),
                (cp.sigma(0.3, x), sigma(0.3, x)),
                (cp.ell(0.3, x, u), ell(0.3, x, u)),
                (cp.g(x), g(x)),
                (cp.structure.drift_gain(0.3, x), drift_gain(0.3, x)),
            ]
            for got, want in pairs:
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes()
        assert cp.structure.cost_quad is lq.r

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("a", (4, 3)),
            ("b", (3, 1)),
            ("q", (3, 3)),
            ("r", (1, 2)),
            ("g_mat", (4,)),
            ("sigma_mat", (4, 4, 1)),
        ],
    )
    def test_a_matrix_of_another_shape_is_named(self, name, shape):
        lqr = dataclasses.replace(build_cartpole_lqr().lqr, **{name: np.ones(shape)})
        box = np.array([-1.0]), np.array([1.0])
        with pytest.raises(ValueError, match=rf"lqr\.{name} has shape {re.escape(str(shape))}"):
            ContinuousProblem.from_lqr(lqr, 1.0, np.zeros(4), *box)

    def test_box_start_cap_and_matrices_are_the_arguments(self):
        lqr = driftless_lqr(np.eye(2), dim_u=3)
        x0, lo, hi = np.array([0.5, -1.0]), np.array([-2.0, 0.0, -1.0]), np.array([3.0, 0.0, 1.0])
        cp = ContinuousProblem.from_lqr(lqr, 2.5, x0, lo, hi, d_cap=7.0)
        assert cp.lqr is lqr and cp.x0 is x0
        assert cp.control_lower is lo and cp.control_upper is hi
        assert (cp.dim_x, cp.dim_u, cp.horizon, cp.d_cap) == (2, 3, 2.5, 7.0)
        assert ContinuousProblem.from_lqr(lqr, 2.5, x0, lo, hi).d_cap == 10.0

    @pytest.mark.parametrize("length", [1, 3])
    def test_a_start_of_another_length_is_named(self, length):
        # a length-1 start would broadcast into every state coordinate
        box = np.array([-1.0]), np.array([1.0])
        with pytest.raises(ValueError, match=rf"x0 has shape \({length},\), not \(4,\)"):
            ContinuousProblem.from_lqr(build_cartpole_lqr().lqr, 1.0, np.zeros(length), *box)

    @pytest.mark.parametrize("d_cap", [np.nan, -1.0, 0.0])
    def test_a_cap_not_above_zero_is_named(self, d_cap):
        # a NaN cap would fail every step's check with a misleading
        # DriftUnboundedError instead
        lqr, box = driftless_lqr(np.eye(2)), (np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="d_cap must be > 0"):
            ContinuousProblem.from_lqr(lqr, 1.0, np.zeros(2), *box, d_cap=d_cap)
        assert ContinuousProblem.from_lqr(lqr, 1.0, np.zeros(2), *box, d_cap=np.inf).d_cap == np.inf


class TestNonlinear1d:
    def test_drift_field_values(self):
        cp = build_nonlinear_1d()
        np.testing.assert_allclose(
            cp.f(0.0, np.array([7.0]), np.array([0.0])), [1.6], rtol=1e-14
        )

    def test_running_cost_zero_at_kink(self):
        cp = build_nonlinear_1d()
        assert cp.ell(0.0, np.array([6.0]), np.array([0.0])) == 0.0

    def test_terminal_cost(self):
        cp = build_nonlinear_1d()
        assert cp.g(np.array([2.0])) == pytest.approx(100.0)

    def test_running_cost_nonnegative(self):
        cp = build_nonlinear_1d()
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 15, (200, 1))
        u = rng.uniform(-20, 20, (200, 1))
        assert np.all(cp.ell(0.0, x, u) >= 0)

    def test_metadata(self):
        cp = build_nonlinear_1d()
        assert cp.horizon == 10.0
        np.testing.assert_array_equal(cp.x0, [7.0])
        np.testing.assert_array_equal(cp.control_lower, [-20.0])
        np.testing.assert_array_equal(cp.control_upper, [20.0])

    def test_custom_control_box(self):
        cp = build_nonlinear_1d(u_max=5.0)
        np.testing.assert_array_equal(cp.control_upper, [5.0])


class TestCartpoleLqr:
    def test_diffusion_entries_as_printed(self):
        cp = build_cartpole_lqr()
        sig = cp.sigma(0.0, np.zeros(4))
        assert sig[0, 0] == 0.01
        assert sig[1, 3] == 1.0
        assert sig[2, 2] == 0.01

    def test_initial_state(self):
        cp = build_cartpole_lqr()
        np.testing.assert_allclose(cp.x0, [0.0, 0.0, math.pi / 9.0, 0.0])

    def test_dynamics_matrix_first_row(self):
        cp = build_cartpole_lqr()
        np.testing.assert_array_equal(cp.lqr.a[0], [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(cp.lqr.a[2], [0.0, 0.0, 0.0, 1.0])

    def test_linearization_rows_and_input_matrix(self):
        # cart 1.0 kg, pole 0.1 kg of half-length 0.5 m, g = 9.81:
        # m g / M = 0.981, (M + m) g / (M l) = 21.582, 1 / M = 1, 1 / (M l) = 2
        lqr = build_cartpole_lqr().lqr
        np.testing.assert_allclose(lqr.a[1], [0.0, 0.0, 0.981, 0.0], rtol=1e-15, atol=0)
        np.testing.assert_allclose(lqr.a[3], [0.0, 0.0, 21.582, 0.0], rtol=1e-15, atol=0)
        np.testing.assert_array_equal(lqr.b, [[0.0], [1.0], [0.0], [2.0]])

    def test_drift_is_linear(self):
        cp = build_cartpole_lqr()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        u = rng.normal(size=(5, 1))
        np.testing.assert_allclose(
            cp.f(0.0, x, u), x @ cp.lqr.a.T + u @ cp.lqr.b.T, rtol=1e-13
        )


class TestPolicies:
    def test_constant_policy_clips(self):
        pol = ConstantPolicy([3.0], np.array([-1.0]), np.array([1.0]))
        np.testing.assert_array_equal(pol(0, np.zeros(2)), [1.0])

    def test_feedback_policy_clips_and_broadcasts(self):
        pol = FeedbackPolicy(np.array([[2.0, 0.0]]), np.array([-1.5]), np.array([1.5]))
        x = np.array([[1.0, 0.0], [-3.0, 1.0]])
        np.testing.assert_array_equal(pol(0, x), [[1.5], [-1.5]])

    def test_per_step_gains(self):
        gains = np.stack([np.array([[1.0]]), np.array([[2.0]])])
        pol = FeedbackPolicy(gains, np.array([-np.inf]), np.array([np.inf]))
        assert pol(1, np.array([3.0]))[0] == 6.0

    @pytest.mark.parametrize("step", [-1, 2, 3])
    def test_per_step_gains_reject_a_step_out_of_range(self, step):
        # a negative step would otherwise wrap to the last gain
        gains = np.stack([np.array([[1.0]]), np.array([[2.0]])])
        pol = FeedbackPolicy(gains, np.array([-np.inf]), np.array([np.inf]))
        with pytest.raises(ValueError, match=rf"step {step} out of range \[0, 2\)"):
            pol(step, np.array([3.0]))

    def test_empty_control_box_rejected(self):
        with pytest.raises(ValueError):
            ContinuousProblem(
                dim_x=1,
                dim_u=1,
                horizon=1.0,
                f=lambda t, x, u: x,
                sigma=lambda t, x: np.ones(np.shape(x)[:-1] + (1, 1)),
                ell=lambda t, x, u: np.zeros(np.shape(x)[:-1]),
                g=lambda x: np.zeros(np.shape(x)[:-1]),
                control_lower=np.array([1.0]),
                control_upper=np.array([-1.0]),
                x0=np.zeros(1),
            )
