"""Backward pass: terminal fit, per-step regression, end-to-end accuracy."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_lsmc import (
    ContinuousProblem,
    DriftProcess,
    EstimatorKind,
    FeedbackPolicy,
    backward_pass,
    confidence_region,
    discretize,
    rae,
    sample_forward,
    scaling_from_batch,
)
from fbsde_lsmc import backward as backward_module
from fbsde_lsmc.backward import backward_sweep
from fbsde_lsmc.errors import NotFittedError, RankDeficientWarning
from fbsde_lsmc.metrics import shared_rae
from fbsde_lsmc.sampling import pinned_step_batch

from conftest import ConstantPolicy, make_linear_problem, make_scalar_lqr


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
    truth = riccati_from_lqr(dp)
    mu = truth.policy()
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
                model = backward_pass(dp, mu, batch, kind, spec)
            for i in range(1, dp.n_steps + 1):
                np.testing.assert_allclose(model.eval(i, probe), 3.5, atol=1e-10)
            # step 0 sees a single repeated state; only the value there is
            # identifiable
            np.testing.assert_allclose(model.eval(0, dp.x0), 3.5, atol=1e-10)

    def test_lqr_matches_riccati_oracle_at_every_fitted_step(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        model = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec)
        region = confidence_region(batch)
        for i in range(1, dp.n_steps + 1):
            assert rae(model, truth, region, i) < 1e-6

    def test_taylor_beats_em_estimators(self):
        dp, truth, mu, batch = _lqr_pieces(n_samples=256)
        spec = scaling_from_batch(batch, 2)
        region = confidence_region(batch)

        def mean_rae(kind):
            with np.errstate(over="ignore", invalid="ignore"):
                model = backward_pass(dp, mu, batch, kind, spec)
                return np.mean([rae(model, truth, region, i) for i in range(1, dp.n_steps + 1)])

        taylor = mean_rae(EstimatorKind.TAYLOR_NOISELESS)
        assert taylor < mean_rae(EstimatorKind.EM_NOISELESS)
        assert taylor < mean_rae(EstimatorKind.EM_NOISY)

    def test_terminal_step_reproduces_terminal_cost(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        model = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec)
        xn = batch.x[:, dp.n_steps]
        g = dp.g(xn)
        np.testing.assert_allclose(model.eval(dp.n_steps, xn), g, rtol=1e-10, atol=1e-12)

    def test_bitwise_deterministic(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        a = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_REESTIMATE, spec)
        b = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_REESTIMATE, spec)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_more_samples_do_not_hurt_on_average(self):
        # one-sided statistical check over 10 seeds with a noisy estimator
        from fbsde_lsmc import riccati_from_lqr

        cp = make_scalar_lqr()
        n_steps = 10
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        drift = DriftProcess.feedback(lambda i, x: -0.1 * x * dp.dt)

        def run(n_samples, seed):
            batch = sample_forward(dp, mu, drift, n_samples, seed=seed)
            spec = scaling_from_batch(batch, 2)
            model = backward_pass(dp, mu, batch, EstimatorKind.EM_NOISY, spec)
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
        # a pinned batch at the last step ends at step 12 but starts there too
        pinned = pinned_step_batch(dp, mu, 11, [0.5], [0.0], 64, seed=0)
        with pytest.raises(ValueError, match="steps 11 to 12"):
            backward_pass(dp, mu, pinned, EstimatorKind.TAYLOR_NOISELESS, spec)
        # a basis scaled over fewer steps fails at the terminal step, the sweep's first
        short_batch = sample_forward(short, mu, DriftProcess.on_policy(mu), 8, seed=0)
        short_spec = scaling_from_batch(short_batch, 2)
        with pytest.raises(ValueError, match="step 12 is outside the 6 scaled steps") as err:
            backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, short_spec)
        assert err.value.failing_step == 12

    def test_a_policy_other_than_the_batch_reference_is_rejected(self):
        # the corrections D are formed against the batch's own mu: an equal
        # but distinct policy object is a mismatch too
        dp, truth, mu, batch = _lqr_pieces(n_steps=4)
        spec = scaling_from_batch(batch, 2)
        other = lambda i, x: mu(i, x)
        with pytest.raises(ValueError, match="not the batch's reference policy"):
            backward_pass(dp, other, batch, EstimatorKind.TAYLOR_NOISELESS, spec)
        backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec)

    def test_a_problem_other_than_the_batchs_is_rejected(self):
        # the stage cost and Sigma, K, D all come from the problem the batch
        # was sampled under: another problem object, even an equal copy, is
        # a mismatch, not a second source of the stage cost
        dp, truth, mu, batch = _lqr_pieces(n_steps=4)
        spec = scaling_from_batch(batch, 2)
        costlier = dataclasses.replace(dp, L=lambda i, x, u: 2.0 * dp.L(i, x, u))
        for other in (costlier, dataclasses.replace(dp)):
            with pytest.raises(ValueError, match="dp is not the problem"):
                backward_pass(other, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec)

    def test_failure_is_annotated_with_step(self):
        dp, truth, mu, batch = _lqr_pieces()
        spec = scaling_from_batch(batch, 2)
        batch.x[:, 7] = np.inf  # poisons the step-7 regression inputs
        with pytest.raises(FloatingPointError) as err:
            backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_REESTIMATE, spec)
        assert err.value.failing_step == 7


class _BowlTruth:
    """Ground truth |x|^2 + i, enough to score models against."""

    def value(self, i, x):
        return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1) + i


class TestBackwardSweep:
    @given(
        dim=st.integers(1, 4),
        degree=st.integers(1, 4),
        state_sigma=st.booleans(),
        on_policy=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_lockstep_matches_one_estimator_passes_bit_for_bit(
        self, dim, degree, state_sigma, on_policy, seed
    ):
        dp = discretize(make_linear_problem(dim, seed, state_sigma), 3)
        dp = dataclasses.replace(dp, d_cap=np.inf)
        mu = FeedbackPolicy(np.full((1, dim), -0.5), dp.control_lower, dp.control_upper)
        if on_policy:
            drift = DriftProcess.on_policy(mu)
        else:
            drift = DriftProcess.feedback(lambda i, x: -0.2 * x * dp.dt)
        batch = sample_forward(dp, mu, drift, 48, seed=seed)
        spec = scaling_from_batch(batch, degree)
        kinds = list(EstimatorKind)
        fitted = backward_sweep(batch, kinds, spec)
        for kind in kinds:
            alone = backward_pass(dp, mu, batch, kind, spec)
            assert np.array_equal(fitted[kind].coeffs, alone.coeffs), kind

        models = [fitted[kind] for kind in kinds]
        region = confidence_region(batch, points_per_axis=3)
        for i in range(1, dp.n_steps + 1):
            scores = shared_rae(models, _BowlTruth(), region, i)
            assert scores == [rae(m, _BowlTruth(), region, i) for m in models]

    def test_failure_is_isolated_to_the_failing_estimators(self):
        dp, truth, mu, batch = _lqr_pieces()
        # only the targets that read the noise W see the NaN
        w = batch.w.copy()
        w[3, 5] = np.nan
        batch = dataclasses.replace(batch, w=w)
        spec = scaling_from_batch(batch, 2)
        fitted = backward_sweep(batch, list(EstimatorKind), spec)
        for kind in (EstimatorKind.TAYLOR_REESTIMATE, EstimatorKind.EM_NOISY):
            assert isinstance(fitted[kind], FloatingPointError)
            assert fitted[kind].failing_step == 5
        for kind in (EstimatorKind.TAYLOR_NOISELESS, EstimatorKind.EM_NOISELESS):
            assert fitted[kind].fitted.all()
            alone = backward_pass(dp, mu, batch, kind, spec)
            np.testing.assert_array_equal(fitted[kind].coeffs, alone.coeffs)

    def test_a_non_finite_terminal_cost_fails_every_kind_at_the_terminal_step(self):
        # 1e308 x^2 overflows for |x| > 1: the terminal targets are inf, so
        # the terminal fit, shared by every kind, is never made, and no kind
        # is blamed for step N - 1 instead
        dp = discretize(make_scalar_lqr(g=1e308, x0=5.0, a=0.0), 10)
        mu = ConstantPolicy([0.0], dp.control_lower, dp.control_upper)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 64, seed=3)
        with np.errstate(over="ignore"):
            fitted = backward_sweep(batch, list(EstimatorKind), scaling_from_batch(batch, 2))
        for kind in EstimatorKind:
            assert isinstance(fitted[kind], FloatingPointError), kind
            assert fitted[kind].failing_step == dp.n_steps
            assert "non-finite backward target" in str(fitted[kind])

    def test_models_of_different_bases_are_not_scored_together(self):
        dp, truth, mu, batch = _lqr_pieces(n_steps=4)
        models = [
            backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, scaling_from_batch(batch, d))
            for d in (1, 2)
        ]
        with pytest.raises(ValueError, match="basis"):
            shared_rae(models, truth, confidence_region(batch), 1)


class TestSweepTruncation:
    """A sweep stopped at ``down_to`` keeps the full sweep's later steps."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_fitted_steps_keep_the_full_sweeps_bits(self, fitted_problem, where):
        setup, batch, full = fitted_problem
        n = setup.dp.n_steps
        down_to = {"first": 1, "middle": n // 2, "last": n}[where]
        spec = next(iter(full.values())).basis
        part = backward_sweep(batch, list(full), spec, down_to=down_to)
        for kind, model in part.items():
            assert np.array_equal(model.coeffs[down_to:], full[kind].coeffs[down_to:]), kind
            assert model.fitted[down_to:].all()
            assert not model.fitted[:down_to].any()
            assert np.isnan(model.coeffs[:down_to]).all()
            with pytest.raises(NotFittedError):
                model.eval(down_to - 1, batch.x[:, down_to - 1])

    def test_a_step_outside_the_horizon_is_rejected_before_any_fit(
        self, fitted_problem, monkeypatch
    ):
        setup, batch, full = fitted_problem
        n = setup.dp.n_steps

        def no_fit(*args, **kwargs):
            raise AssertionError("lsmc_fit called")

        monkeypatch.setattr(backward_module, "lsmc_fit", no_fit)
        spec = next(iter(full.values())).basis
        for down_to in (-1, n + 1):
            with pytest.raises(ValueError, match=rf"down_to = {down_to} is outside"):
                backward_sweep(batch, list(full), spec, down_to=down_to)
