"""Backward target estimators and their exactness/variance properties."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_lsmc import (
    BasisSpec,
    DriftProcess,
    EstimatorKind,
    FeedbackPolicy,
    ValueModel,
    discretize,
    estimate_targets,
    estimator_bias_variance,
    sample_forward,
    scaling_from_batch,
    taylor_triple,
)
from fbsde_lsmc.errors import NotFittedError
from fbsde_lsmc.estimators import _dot, _quad
from fbsde_lsmc.sampling import pinned_step_batch
from fbsde_lsmc.value_model import basis_eval

from conftest import (
    delta_y_hat,
    fit_function,
    make_linear_problem,
    make_scalar_lqr,
    model_from_truth,
    unit_basis,
)


def _square_model(n_steps=1, half=6.0):
    """1-D model with V(x) = x^2 at every step."""
    spec = BasisSpec(
        1,
        2,
        scale_lo=np.full((n_steps + 1, 1), -half),
        scale_hi=np.full((n_steps + 1, 1), half),
    )
    model = ValueModel.empty(spec, n_steps)
    for i in range(n_steps + 1):
        model.set_coeffs(i, fit_function(spec, i, lambda pts: pts[..., 0] ** 2))
    return model


class TestTaylorTriple:
    def test_square_model_hand_values(self):
        model = _square_model()
        tri = taylor_triple(model, 0, np.array([1.0]), np.array([1.0]), np.array([[1.0]]))
        assert tri.ybar == pytest.approx(4.0, rel=1e-12)
        np.testing.assert_allclose(tri.zbar, [4.0], rtol=1e-11)
        np.testing.assert_allclose(tri.mbar, [[2.0]], rtol=1e-11)

    def test_constant_model(self):
        spec = unit_basis(2, 2, 1)
        model = ValueModel.empty(spec, 1)
        coeffs = np.zeros(spec.size)
        coeffs[0] = 5.0
        model.set_coeffs(1, coeffs)
        tri = taylor_triple(model, 0, np.zeros(2), np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(tri.zbar, np.zeros(2))
        np.testing.assert_array_equal(tri.mbar, np.zeros((2, 2)))

    def test_quadratic_curvature_oracle(self):
        # V(x) = x^T P x gives Mbar = 2 Sigma^T P Sigma, symbolically
        rng = np.random.default_rng(3)
        p = rng.normal(size=(2, 2))
        p = 0.5 * (p + p.T)
        sig = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        spec = BasisSpec(
            2, 2, scale_lo=np.array([[-5.0, -5.0]] * 2), scale_hi=np.array([[5.0, 5.0]] * 2)
        )
        model = ValueModel.empty(spec, 1)
        model.set_coeffs(
            1, fit_function(spec, 1, lambda pts: np.einsum("...i,ij,...j->...", pts, p, pts))
        )
        x = rng.normal(size=2)
        k = rng.normal(size=2)
        tri = taylor_triple(model, 0, x, k, sig)
        np.testing.assert_allclose(tri.mbar, 2 * sig.T @ p @ sig, atol=1e-12)
        np.testing.assert_allclose(tri.zbar, sig.T @ (2 * p @ (x + k)), atol=1e-11)

    def test_unfitted_model_raises(self):
        spec = unit_basis(1, 2, 2)
        model = ValueModel.empty(spec, 2)
        with pytest.raises(NotFittedError):
            taylor_triple(model, 0, np.zeros(1), np.zeros(1), np.eye(1))


def _hand_case(x_i, k_i, w_i, d_i, stage_cost=0.0):
    """(dp, mu, batch): one trajectory over one step with the hand-chosen X, K, W, D.

    Sigma = 1, dt = 1 and a zero control, so L is ``stage_cost``; the drift
    applies K = ``k_i`` and the problem's constant F = ``k_i + d_i`` makes
    D = F - K = ``d_i``.
    """
    from fbsde_lsmc import ContinuousProblem
    from fbsde_lsmc.sampling import TrajectoryBatch, _advance_step

    cp = ContinuousProblem(
        dim_x=1,
        dim_u=1,
        horizon=1.0,
        f=lambda t, x, u: np.full(np.shape(x), k_i + d_i),
        sigma=lambda t, x: np.ones(np.shape(x)[:-1] + (1, 1)),
        ell=lambda t, x, u: np.full(np.shape(x)[:-1], stage_cost),
        g=lambda x: np.zeros(np.shape(x)[:-1]),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
        x0=np.zeros(1),
    )
    dp = discretize(cp, 1)  # dt = 1 so no rescaling
    mu = lambda i, x: np.zeros(np.shape(x)[:-1] + (1,))
    drift = DriftProcess.feedback(lambda i, x: np.full(np.shape(x), k_i))
    batch = TrajectoryBatch(np.zeros((1, 2, 1)), np.full((1, 1, 1), w_i), dp, mu, drift)
    batch.x[0, 0] = x_i
    _advance_step(batch, 0, np.inf)
    _, _, k, d = batch.drift_step(0)
    assert (k[0, 0], d[0, 0], batch.x[0, 1, 0]) == (k_i, d_i, x_i + k_i + w_i)
    return dp, mu, batch


class TestEstimateTargets:
    def test_drifted_noiseless_hand_case(self):
        # L=0.2, V(x)=x^2, x=1, K=1, Sigma=1, D=0.5:
        # 0.2 + 4 + 4*0.5 + 0.5*2*(1 + 0.25) = 7.45
        model = _square_model()
        dp, mu, batch = _hand_case(x_i=1.0, k_i=1.0, w_i=0.3, d_i=0.5, stage_cost=0.2)
        out = estimate_targets(EstimatorKind.TAYLOR_NOISELESS, model, batch, 0)
        assert out[0] == pytest.approx(7.45, rel=1e-10)

    def test_on_policy_noiseless_drops_correction_terms(self):
        model = _square_model()
        dp, mu, batch = _hand_case(x_i=1.0, k_i=1.0, w_i=0.3, d_i=0.0, stage_cost=0.2)
        out = estimate_targets(EstimatorKind.TAYLOR_NOISELESS, model, batch, 0)
        # L + Ybar + tr(Mbar)/2 = 0.2 + 4 + 1
        assert out[0] == pytest.approx(5.2, rel=1e-10)

    def test_reestimate_equals_noiseless_for_quadratic_model(self):
        cp = make_scalar_lqr()
        from fbsde_lsmc import riccati_from_lqr

        n_steps = 8
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        model = model_from_truth(truth, 1, n_steps)
        drift = DriftProcess.feedback(lambda i, x: -0.05 * x * dp.dt)
        batch = sample_forward(dp, mu, drift, 128, seed=31)
        i = 3
        noiseless = estimate_targets(EstimatorKind.TAYLOR_NOISELESS, model, batch, i)
        reest = estimate_targets(EstimatorKind.TAYLOR_REESTIMATE, model, batch, i)
        np.testing.assert_allclose(reest, noiseless, rtol=1e-9, atol=1e-11)

    def test_noiseless_pointwise_exact_for_quadratic_truth(self, scalar_lqr_setup):
        # with the exact quadratic value model, the noiseless target equals
        # V_i(X_i) pointwise, not just in expectation
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps)
        drift = DriftProcess.feedback(lambda i, x: -0.2 * x * dp.dt)
        batch = sample_forward(dp, mu, drift, 256, seed=19)
        for i in (0, dp.n_steps // 2, dp.n_steps - 1):
            out = estimate_targets(EstimatorKind.TAYLOR_NOISELESS, model, batch, i)
            v_true = truth.value(i, batch.x[:, i])
            assert np.max(np.abs(out - v_true)) < 1e-10

    def test_em_gradient_evaluated_at_realized_state(self):
        # the Taylor and end-of-interval gradients must differ when the model
        # has curvature and the step displaces the state
        model = _square_model()
        dp, mu, batch = _hand_case(x_i=1.0, k_i=1.0, w_i=0.7, d_i=0.0)
        em = estimate_targets(EstimatorKind.EM_NOISY, model, batch, 0)
        # Ztil = 2 * X_{i+1} = 2 * 2.7; target = V(2.7) - Ztil * W
        assert em[0] == pytest.approx(2.7**2 - 2 * 2.7 * 0.7, rel=1e-10)

    def test_kind_validation(self):
        model = _square_model()
        dp, mu, batch = _hand_case(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            estimate_targets("taylor_noiseless", model, batch, 0)
        with pytest.raises(ValueError):
            estimate_targets(EstimatorKind.EM_NOISY, model, batch, 5)


class TestDeltaY:
    def test_hand_value(self):
        # D=0, W=0, L=0, Mbar=2 -> delta = -tr(Mbar)/2 = -1
        model = _square_model()
        dp, mu, batch = _hand_case(x_i=1.0, k_i=0.0, w_i=0.0, d_i=0.0)
        assert delta_y_hat(model, batch, 0)[0] == pytest.approx(-1.0, rel=1e-10)

    def test_on_policy_reduction_is_bit_exact(self, scalar_lqr_setup):
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 64, seed=41)
        i = 5
        # the re-estimate target, which Delta Yhat = V~(X_{i+1}) - Yhat reads,
        # equals its D = 0 form bit for bit
        drifted = estimate_targets(EstimatorKind.TAYLOR_REESTIMATE, model, batch, i)
        k_i = batch.drift_step(i)[2]
        tri = taylor_triple(model, i, batch.x[:, i], k_i, dp.Sigma(i, batch.x[:, i]))
        w = batch.w[:, i]
        stage = dp.L(i, batch.x[:, i], mu(i, batch.x[:, i]))
        on_policy_form = (
            model.eval(i + 1, batch.x[:, i + 1])
            + stage
            - np.einsum("mi,mi->m", tri.zbar, w)
            + 0.5
            * (
                np.trace(tri.mbar, axis1=-2, axis2=-1)
                - np.einsum("mi,mij,mj->m", w, tri.mbar, w)
            )
        )
        np.testing.assert_array_equal(drifted, on_policy_form)

    def test_unbiased_even_for_imperfect_model(self, scalar_lqr_setup):
        # mean of (Delta Y - Delta Yhat) ~ 0 regardless of the model used to
        # build the targets; checked by the Monte Carlo oracle against a
        # cubic-perturbed model so the residual has genuine spread
        cp, dp, truth, mu = scalar_lqr_setup
        n_steps = dp.n_steps
        spec = BasisSpec(
            1,
            3,
            scale_lo=np.full((n_steps + 1, 1), -6.0),
            scale_hi=np.full((n_steps + 1, 1), 6.0),
        )
        model = ValueModel.empty(spec, n_steps)
        for i in range(n_steps + 1):
            model.set_coeffs(
                i,
                fit_function(
                    spec, i, lambda pts, i=i: truth.value(i, pts) + 0.2 * pts[..., 0] ** 3
                ),
            )
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 2 * 10**4, seed=43)
        i = 7
        delta_hat = delta_y_hat(model, batch, i)
        delta_true = truth.value(i + 1, batch.x[:, i + 1]) - truth.value(i, batch.x[:, i])
        resid = delta_true - delta_hat
        assert resid.std() > 1e-6  # the check is not vacuous
        stderr = resid.std(ddof=1) / np.sqrt(batch.n_samples)
        assert abs(resid.mean()) < 3 * stderr


class TestStatisticalProperties:
    def test_noiseless_targets_have_zero_variance(self, scalar_lqr_setup):
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps, degree=3)
        batch = pinned_step_batch(dp, mu, 4, np.array([0.8]), np.array([0.1]), 500, seed=3)
        out = estimate_targets(EstimatorKind.TAYLOR_NOISELESS, model, batch, 4)
        assert np.all(out == out[0])

    def test_cubic_remainder_mean_vanishes(self, scalar_lqr_setup):
        # odd-order expansion terms average to zero over the step noise
        cp, dp, truth, mu = scalar_lqr_setup
        n_steps = dp.n_steps
        spec = BasisSpec(
            1,
            3,
            scale_lo=np.full((n_steps + 1, 1), -6.0),
            scale_hi=np.full((n_steps + 1, 1), 6.0),
        )
        model = ValueModel.empty(spec, n_steps)
        for i in range(n_steps + 1):
            model.set_coeffs(i, fit_function(spec, i, lambda pts: pts[..., 0] ** 3))
        i = 2
        batch = pinned_step_batch(dp, mu, i, np.array([0.5]), np.array([0.02]), 4 * 10**4, seed=7)
        # a pinned batch holds its live step i in column 0
        k_i = batch.drift_step(i)[2]
        tri = taylor_triple(model, i, batch.x[:, 0], k_i, dp.Sigma(i, batch.x[:, 0]))
        w = batch.w[:, 0]
        expansion = (
            tri.ybar
            + np.einsum("mi,mi->m", tri.zbar, w)
            + 0.5 * np.einsum("mi,mij,mj->m", w, tri.mbar, w)
        )
        remainder = model.eval(i + 1, batch.x[:, 1]) - expansion
        stderr = remainder.std(ddof=1) / np.sqrt(batch.n_samples)
        assert abs(remainder.mean()) < 3 * stderr

    def test_trace_term_is_centered(self, scalar_lqr_setup):
        cp, dp, truth, mu = scalar_lqr_setup
        model = model_from_truth(truth, 1, dp.n_steps)
        i = 3
        batch = pinned_step_batch(dp, mu, i, np.array([1.2]), np.array([0.0]), 4 * 10**4, seed=11)
        k_i = batch.drift_step(i)[2]
        tri = taylor_triple(model, i, batch.x[:, 0], k_i, dp.Sigma(i, batch.x[:, 0]))
        w = batch.w[:, 0]
        term = 0.5 * (
            np.einsum("mi,mij,mj->m", w, tri.mbar, w)
            - np.trace(tri.mbar, axis1=-2, axis2=-1)
        )
        stderr = term.std(ddof=1) / np.sqrt(batch.n_samples)
        assert abs(term.mean()) < 3 * stderr


def _random_setup(dim, seed, state_sigma, drift="feedback", n_samples=16):
    """Two-step random linear problem, its policy and a batch under ``drift``."""
    # no cap: large corrections are legitimate here and the claims still hold
    dp = discretize(make_linear_problem(dim, seed, state_sigma), 2)
    dp = dataclasses.replace(dp, d_cap=np.inf)
    mu = FeedbackPolicy(np.full((1, dim), -0.5), dp.control_lower, dp.control_upper)
    drifts = {
        "on_policy": DriftProcess.on_policy(mu),
        "feedback": DriftProcess.feedback(lambda i, x: -0.2 * x * dp.dt),
    }
    return dp, mu, sample_forward(dp, mu, drifts[drift], n_samples, seed=seed)


def _random_quadratic(dim, seed):
    """(V, P) for a random quadratic V(x) = x^T P x + b.x + c with symmetric P."""
    rng = np.random.default_rng(seed + 1)
    p = rng.normal(size=(dim, dim))
    p = 0.5 * (p + p.T)
    b = rng.normal(size=dim)
    c = rng.normal()
    return (lambda x: np.einsum("...i,ij,...j->...", x, p, x) + x @ b + c), p


def _pinned_noiseless_variance(dim, state_sigma, seed, n_rep):
    """taylor_noiseless variance at a random pinned pair under a random degree-2 model."""
    dp, mu, batch = _random_setup(dim, seed, state_sigma)
    rng = np.random.default_rng(seed)
    spec = scaling_from_batch(batch, 2)
    model = ValueModel.empty(spec, dp.n_steps)
    model.set_coeffs(1, rng.normal(size=spec.size))
    x_pin, k_pin = rng.normal(size=dim), 0.1 * rng.normal(size=dim)
    _, variance = estimator_bias_variance(
        EstimatorKind.TAYLOR_NOISELESS, dp, mu, model, 0, x_pin, k_pin, n_rep, seed=seed
    )
    return variance


_DIMS = st.integers(1, 4)
_SEEDS = st.integers(0, 2**16)


class TestExactnessProperties:
    """The paper's exact claims over random dimensions, diffusions and drifts."""

    @given(
        dim=_DIMS,
        state_sigma=st.booleans(),
        drift=st.sampled_from(["on_policy", "feedback"]),
        seed=_SEEDS,
    )
    @settings(max_examples=20, deadline=None)
    def test_taylor_targets_are_the_reference_expectation_for_quadratics(
        self, dim, state_sigma, drift, seed
    ):
        # E_ref[V(X_1) | X_0, K_0] for quadratic V: V(mean) + tr(Sigma^T P Sigma)
        # with the reference mean X_0 + F_0(X_0, mu(X_0)), whatever drift sampled K_0
        dp, mu, batch = _random_setup(dim, seed, state_sigma, drift)
        value, p = _random_quadratic(dim, seed)
        i = 1
        spec = scaling_from_batch(batch, 2)
        model = ValueModel.empty(spec, dp.n_steps)
        model.set_coeffs(i + 1, fit_function(spec, i + 1, value))
        x_i = batch.x[:, i]
        sig = dp.Sigma(i, x_i)
        u = mu(i, x_i)
        expected = (
            dp.L(i, x_i, u)
            + value(x_i + dp.F(i, x_i, u))
            + np.einsum("...ki,kl,...li->...", sig, p, sig)
        )
        scale = max(1.0, float(np.max(np.abs(expected))))
        for kind in (EstimatorKind.TAYLOR_NOISELESS, EstimatorKind.TAYLOR_REESTIMATE):
            got = estimate_targets(kind, model, batch, i)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9 * scale)

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_noiseless_variance_at_a_pinned_pair_is_exactly_zero(self, dim, state_sigma, seed):
        assert _pinned_noiseless_variance(dim, state_sigma, seed, 64) == 0.0

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS, n_rep=st.integers(2, 70))
    @settings(max_examples=15, deadline=None)
    def test_noiseless_variance_is_exactly_zero_for_every_rep_count(
        self, dim, state_sigma, seed, n_rep
    ):
        # the expansion is taken once per pinned pair: a value product over
        # many rows rounds its tail rows differently
        assert _pinned_noiseless_variance(dim, state_sigma, seed, n_rep) == 0.0

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_on_policy_sampling_has_exactly_zero_corrections(self, dim, state_sigma, seed):
        _, _, batch = _random_setup(dim, seed, state_sigma, "on_policy")
        for i in range(batch.n_steps):
            assert np.all(batch.drift_step(i)[3] == 0.0)
        assert np.all(batch.log_theta == 0.0)

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_on_policy_delta_y_reduces_bit_for_bit(self, dim, state_sigma, seed):
        dp, mu, batch = _random_setup(dim, seed, state_sigma, "on_policy")
        i = 1
        spec = scaling_from_batch(batch, 2)
        model = ValueModel.empty(spec, dp.n_steps)
        model.set_coeffs(i + 1, np.random.default_rng(seed).normal(size=spec.size))
        drifted = estimate_targets(EstimatorKind.TAYLOR_REESTIMATE, model, batch, i)
        x_i, w = batch.x[:, i], batch.w[:, i]
        tri = taylor_triple(model, i, x_i, batch.drift_step(i)[2], dp.Sigma(i, x_i))
        undrifted = (
            model.eval(i + 1, batch.x[:, i + 1])
            + dp.L(i, x_i, mu(i, x_i))
            - np.einsum("mi,mi->m", tri.zbar, w)
            + 0.5
            * (
                np.trace(tri.mbar, axis1=-2, axis2=-1)
                - np.einsum("mi,mij,mj->m", w, tri.mbar, w)
            )
        )
        np.testing.assert_array_equal(drifted, undrifted)

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_every_target_keeps_its_operand_order(self, dim, state_sigma, seed):
        # each target equals, as bytes, its formula written out in the
        # documented operand order; a reordered sum rounds differently
        dp, mu, batch = _random_setup(dim, seed, state_sigma)
        i = 1
        spec = scaling_from_batch(batch, 2)
        model = ValueModel.empty(spec, dp.n_steps)
        model.set_coeffs(i + 1, np.random.default_rng(seed).normal(size=spec.size))
        x_i, x_next, w = batch.x[:, i], batch.x[:, i + 1], batch.w[:, i]
        _, _, k, d = batch.drift_step(i)
        sig = dp.Sigma(i, x_i)
        stage = dp.L(i, x_i, mu(i, x_i))
        v_next = model.eval(i + 1, x_next)
        tri = taylor_triple(model, i, x_i, k, sig)
        zw, zd = _dot(tri.zbar, w), _dot(tri.zbar, d)
        tr_m = np.trace(tri.mbar, axis1=-2, axis2=-1)
        dmd, wmw = _quad(tri.mbar, d), _quad(tri.mbar, w)
        z_til = np.einsum("...ji,...j->...i", sig, model.grad(i + 1, x_next))
        reference = {
            EstimatorKind.TAYLOR_NOISELESS: stage + tri.ybar + zd + 0.5 * (tr_m + dmd),
            EstimatorKind.TAYLOR_REESTIMATE: (
                v_next + stage - zw + zd + 0.5 * (tr_m + dmd - wmw)
            ),
            EstimatorKind.EM_NOISELESS: v_next + stage + _dot(z_til, d),
            EstimatorKind.EM_NOISY: v_next + stage - _dot(z_til, w) + _dot(z_til, d),
        }
        assert np.any(d != 0.0)
        for kind, ref in reference.items():
            got = estimate_targets(kind, model, batch, i)
            assert got.tobytes() == ref.tobytes(), kind


def _em_against_taylor(dim, state_sigma, seed):
    """EM targets minus taylor_noiseless, the pieces of their closed forms, and
    the rounding allowance, for a random degree-2 model under a feedback drift.

    The identities are exact in real arithmetic.  Each side adds at most ten
    terms, each a product of the model's B = binom(n + 2, 2) features with
    their coefficients (a few roundings per feature) or a quadratic form of
    n^2 products, so each side is within (B + n^2 + 10) eps of the same sums
    taken over absolute values, ``scale``; the allowance covers both sides.
    """
    dp, mu, batch = _random_setup(dim, seed, state_sigma)
    i = 1
    spec = scaling_from_batch(batch, 2)
    model = ValueModel.empty(spec, dp.n_steps)
    coeffs = np.random.default_rng(seed).normal(size=spec.size)
    model.set_coeffs(i + 1, coeffs)
    x_i, x_next, w = batch.x[:, i], batch.x[:, i + 1], batch.w[:, i]
    sig, u, k, d = batch.drift_step(i)
    assert np.all(np.any(d != 0.0, axis=-1))
    tri = taylor_triple(model, i, x_i, k, sig)
    z_til = np.einsum("...ji,...j->...i", sig, model.grad(i + 1, x_next))
    noiseless = estimate_targets(EstimatorKind.TAYLOR_NOISELESS, model, batch, i)
    diffs = {
        kind: estimate_targets(kind, model, batch, i) - noiseless
        for kind in (EstimatorKind.EM_NOISY, EstimatorKind.EM_NOISELESS)
    }
    abs_w, abs_d, abs_m = np.abs(w), np.abs(d), np.abs(tri.mbar)
    scale = (
        np.abs(basis_eval(spec, i + 1, x_next)) @ np.abs(coeffs)
        + np.abs(basis_eval(spec, i + 1, x_i + k)) @ np.abs(coeffs)
        + np.abs(dp.L(i, x_i, u))
        + _dot(np.abs(tri.zbar) + np.abs(z_til), abs_w + abs_d)
        + _quad(abs_m, abs_w + abs_d)
        + np.trace(abs_m, axis1=-2, axis2=-1)
    )
    allowance = 2 * (spec.size + dim**2 + 10) * np.finfo(float).eps * scale
    return tri, w, d, diffs, allowance


class TestEmAgainstTaylor:
    """For a quadratic model, X_{i+1} = Xbar + Sigma W gives V~(X_{i+1}) =
    Ybar + Zbar.W + W^T Mbar W / 2 and Ztil = Zbar + Mbar W, so each EM target
    differs from taylor_noiseless by a closed form quadratic in D and W."""

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_em_noisy_minus_taylor_noiseless(self, dim, state_sigma, seed):
        # -[(W - D)^T Mbar (W - D) + tr Mbar] / 2
        tri, w, d, diffs, allowance = _em_against_taylor(dim, state_sigma, seed)
        closed = -0.5 * (_quad(tri.mbar, w - d) + np.trace(tri.mbar, axis1=-2, axis2=-1))
        assert np.all(np.abs(diffs[EstimatorKind.EM_NOISY] - closed) <= allowance)

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_em_noiseless_minus_taylor_noiseless(self, dim, state_sigma, seed):
        # Zbar.W + (W + D)^T Mbar (W + D) / 2 - D^T Mbar D - tr Mbar / 2
        tri, w, d, diffs, allowance = _em_against_taylor(dim, state_sigma, seed)
        closed = (
            _dot(tri.zbar, w)
            + 0.5 * _quad(tri.mbar, w + d)
            - _quad(tri.mbar, d)
            - 0.5 * np.trace(tri.mbar, axis1=-2, axis2=-1)
        )
        assert np.all(np.abs(diffs[EstimatorKind.EM_NOISELESS] - closed) <= allowance)


class TestMbarRounding:
    """Mbar = Sigma^T H Sigma as two matrix products stays within rounding of
    the single three-operand contraction."""

    @given(dim=_DIMS, state_sigma=st.booleans(), seed=_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_within_rounding_of_the_three_operand_einsum(self, dim, state_sigma, seed):
        dp, _, batch = _random_setup(dim, seed, state_sigma)
        i = 1
        spec = scaling_from_batch(batch, 2)
        model = ValueModel.empty(spec, dp.n_steps)
        model.set_coeffs(i + 1, np.random.default_rng(seed).normal(size=spec.size))
        x_i, k_i = batch.x[:, i], batch.drift_step(i)[2]
        sig = dp.Sigma(i, x_i)
        if not state_sigma:
            sig = sig[0]  # one 2-D diffusion broadcast against the batched Hessian
        mbar = taylor_triple(model, i, x_i, k_i, sig).mbar
        hess = model.hessian(i + 1, x_i + k_i)
        ref = np.einsum("...ki,...kl,...lj->...ij", sig, hess, sig)
        ref = 0.5 * (ref + np.swapaxes(ref, -1, -2))
        scale = np.einsum("...ki,...kl,...lj->...ij", np.abs(sig), np.abs(hess), np.abs(sig))
        assert mbar.shape == ref.shape == (batch.n_samples, dim, dim)
        assert np.all(np.abs(mbar - ref) <= 4 * dim * np.finfo(float).eps * scale)
        np.testing.assert_array_equal(mbar, np.swapaxes(mbar, -1, -2))
        if dim == 1:
            np.testing.assert_array_equal(mbar, ref)


def _avx2_openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS on a CPU that can run its Haswell kernel."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (ImportError, KeyError, TypeError):
        return False
    return bool(__cpu_features__.get("AVX2")) and "openblas" in blas.lower()


@pytest.mark.skipif(not _avx2_openblas(), reason="needs numpy's OpenBLAS on an AVX2 CPU")
def test_exactness_holds_under_a_second_blas_kernel():
    # OpenBLAS picks its kernels at run time; the exactness properties and
    # criteria 1 and 4 run again under the Haswell kernel, set for a child
    # process only.  Prescott is left out: in about a quarter of dimension-4
    # pinned cases its generic kernel rounds the tail rows of the policy
    # product differently, and the noiseless variance is 1e-31 to 1e-29
    # instead of 0, so the properties would fail only now and then
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=path)
    selections = [
        "tests/test_estimators.py::TestExactnessProperties",
        "tests/test_acceptance.py::TestCriterion1LqrNearExactness",
        "tests/test_acceptance.py::TestCriterion4ZeroVariance",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selections],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
