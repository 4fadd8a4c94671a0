"""Backward pass: terminal fit, per-step regression, end-to-end accuracy."""

import warnings

import numpy as np
import pytest

from fbsde_lsmc import (
    ConstantPolicy,
    ContinuousProblem,
    DriftProcess,
    EstimatorKind,
    backward_pass,
    confidence_region,
    discretize,
    rae,
    sample_forward,
    scaling_from_batch,
)
from fbsde_lsmc.errors import RankDeficientWarning

from conftest import make_scalar_lqr


def _constant_cost_problem(c=3.5):
    return ContinuousProblem(
        dim_x=1,
        dim_u=1,
        horizon=1.0,
        f=lambda t, x, u: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=lambda t, x: 0.5 * np.ones(np.shape(x)[:-1] + (1, 1)),
        ell=lambda t, x, u: np.zeros(np.shape(x)[:-1]),
        g=lambda x: np.full(np.shape(x)[:-1], c),
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
        x0=np.array([0.2]),
    )


def _lqr_pieces(n_steps=12, n_samples=192, seed=2):
    from fbsde_lsmc import riccati_from_lqr

    cp = make_scalar_lqr()
    dp = discretize(cp, n_steps)
    truth = riccati_from_lqr(cp.lqr, cp.horizon, n_steps)
    mu = truth.policy(dp.control_lower, dp.control_upper)
    drift = DriftProcess.feedback(lambda i, x: -0.1 * x * dp.dt)
    batch = sample_forward(dp, mu, drift, n_samples, seed=seed)
    return dp, truth, mu, batch


class TestBackwardPass:
    def test_constant_value_function(self):
        cp = _constant_cost_problem(c=3.5)
        dp = discretize(cp, 6)
        mu = ConstantPolicy([0.0], dp.control_lower, dp.control_upper)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 64, seed=1)
        spec = scaling_from_batch(batch, 2)
        probe = np.linspace(-1.5, 2.0, 9)[:, None]
        for kind in EstimatorKind:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", category=RankDeficientWarning)
                model = backward_pass(dp, mu, batch, kind, spec, ridge=0.0)
            for i in range(1, dp.n_steps + 1):
                np.testing.assert_allclose(model.eval(i, probe), 3.5, atol=1e-10)
            # step 0 sees a single repeated state; only the value there is
            # identifiable
            np.testing.assert_allclose(model.eval(0, dp.x0), 3.5, atol=1e-10)

    def test_lqr_matches_riccati_oracle_at_every_fitted_step(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        model = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec, ridge=0.0)
        region = confidence_region(batch)
        for i in range(1, dp.n_steps + 1):
            assert rae(model, truth, region, i) < 1e-6

    def test_taylor_beats_em_estimators(self):
        dp, truth, mu, batch = _lqr_pieces(n_samples=256)
        spec = scaling_from_batch(batch, 2)
        region = confidence_region(batch)

        def mean_rae(kind):
            with np.errstate(over="ignore", invalid="ignore"):
                model = backward_pass(dp, mu, batch, kind, spec, ridge=0.0)
                return np.mean([rae(model, truth, region, i) for i in range(1, dp.n_steps + 1)])

        taylor = mean_rae(EstimatorKind.TAYLOR_NOISELESS)
        assert taylor < mean_rae(EstimatorKind.EM_NOISELESS)
        assert taylor < mean_rae(EstimatorKind.EM_NOISY)

    def test_terminal_step_reproduces_terminal_cost(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        model = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec, ridge=0.0)
        xn = batch.x[:, dp.n_steps]
        g = dp.g(xn)
        np.testing.assert_allclose(model.eval(dp.n_steps, xn), g, rtol=1e-10, atol=1e-12)

    def test_bitwise_deterministic(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        a = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_REESTIMATE, spec, ridge=1e-10)
        b = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_REESTIMATE, spec, ridge=1e-10)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_more_samples_do_not_hurt_on_average(self):
        # one-sided statistical check over 10 seeds with a noisy estimator
        from fbsde_lsmc import riccati_from_lqr

        cp = make_scalar_lqr()
        n_steps = 10
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(cp.lqr, cp.horizon, n_steps)
        mu = truth.policy(dp.control_lower, dp.control_upper)
        drift = DriftProcess.feedback(lambda i, x: -0.1 * x * dp.dt)

        def run(n_samples, seed):
            batch = sample_forward(dp, mu, drift, n_samples, seed=seed)
            spec = scaling_from_batch(batch, 2)
            model = backward_pass(dp, mu, batch, EstimatorKind.EM_NOISY, spec, ridge=1e-10)
            region = confidence_region(batch)
            return np.mean([rae(model, truth, region, i) for i in range(1, n_steps + 1)])

        diffs = np.array([run(64, s) - run(128, s) for s in range(10)])
        stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
        # doubling the sample count should not increase the error
        assert diffs.mean() > -3 * stderr

    def test_mismatched_batch_rejected(self):
        dp, truth, mu, batch = _lqr_pieces(n_steps=12)
        short = discretize(make_scalar_lqr(), 5)
        spec = scaling_from_batch(batch, 2)
        with pytest.raises(ValueError):
            backward_pass(short, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec)

    def test_failure_is_annotated_with_step(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        batch.x[:, 7] = np.inf  # poisons the step-7 regression inputs
        with pytest.raises(FloatingPointError) as err:
            backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_REESTIMATE, spec)
        assert err.value.failing_step == 7
