"""Forward sampling, drift corrections, and change-of-measure weights."""

import dataclasses
import tracemalloc

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
    bias_bound_check,
    build_cartpole_lqr,
    build_nonlinear_1d,
    discretize,
    estimator_bias_variance,
    riccati_from_lqr,
    sample_forward,
    scaling_from_batch,
)
from fbsde_lsmc.errors import (
    DriftUnboundedError,
    SingularDiffusionError,
    WeightOverflowError,
)
from fbsde_lsmc.backward import backward_sweep
import fbsde_lsmc.sampling as sampling_module
from fbsde_lsmc.sampling import pinned_step_batch

from conftest import (
    ConstantPolicy,
    driftless_lqr,
    full_history_pinned,
    make_linear_problem,
    make_scalar_lqr,
)


def _driftless_problem(sigma=0.8, dim=1, horizon=1.0, x0=None):
    # a scalar sigma scales the identity; a matrix is the diffusion itself
    s = sigma * np.eye(dim) if np.ndim(sigma) == 0 else np.asarray(sigma, dtype=float)
    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    return ContinuousProblem.from_lqr(
        driftless_lqr(s), horizon, x0, np.array([-1.0]), np.array([1.0])
    )


def _zero_policy(dp):
    return ConstantPolicy(np.zeros(dp.dim_u), dp.control_lower, dp.control_upper)


def _steps(batch):
    """Range of the time indices a batch has steps at."""
    return range(batch.first_step, batch.n_steps)


def _drifts(batch):
    """Every step's K_i, stacked as (M, N, n) from the per-step read."""
    return np.stack([batch.drift_step(i)[2] for i in _steps(batch)], axis=1)


def _corrections(batch):
    """Every step's D_i, stacked as (M, N, n) from the per-step read."""
    return np.stack([batch.drift_step(i)[3] for i in _steps(batch)], axis=1)


class TestSampleForward:
    def test_singular_diffusion_rejected(self):
        for sigma in (0.0, -0.0):
            dp = discretize(_driftless_problem(sigma=sigma), 4)
            with pytest.raises(SingularDiffusionError):
                sample_forward(dp, _zero_policy(dp), DriftProcess.feedback(lambda i, x: 0 * x), 2, 0)

    def test_driftless_on_policy_reduction(self):
        cp = _driftless_problem(sigma=0.8)
        dp = discretize(cp, 8)
        mu = _zero_policy(dp)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 3, seed=5)
        # X accumulates the scaled noise exactly; D and the weights collapse
        sig = 0.8 * np.sqrt(dp.dt)
        expected = dp.x0 + sig * np.cumsum(batch.w, axis=1)
        np.testing.assert_allclose(batch.x[:, 1:], expected, atol=1e-15)
        assert np.all(_corrections(batch) == 0.0)
        assert np.all(np.exp(batch.log_theta) == 1.0)

    def test_step_mean_matches_drift(self):
        # Monte Carlo oracle on the defining recursion, M = 1e5
        cp = _driftless_problem(sigma=0.8, horizon=0.05 * 4)
        dp = discretize(cp, 4)  # dt = 0.05
        mu = _zero_policy(dp)
        k_const = 0.3
        drift = DriftProcess.feedback(lambda i, x: np.full_like(x, k_const))
        m_samples = 10**5
        batch = sample_forward(dp, mu, drift, m_samples, seed=9)
        step = batch.x[:, 1, 0] - dp.x0[0]
        tol = 3.0 * (0.8 * np.sqrt(0.05)) / np.sqrt(m_samples)
        assert abs(step.mean() - k_const) < tol

    def test_reproducible_and_prefix_stable(self):
        cp, dp, truth, mu = _scalar_setup()
        drift = DriftProcess.feedback(lambda i, x: -0.1 * x * dp.dt)
        a = sample_forward(dp, mu, drift, 6, seed=123)
        b = sample_forward(dp, mu, drift, 6, seed=123)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.log_theta, b.log_theta)
        # per-trajectory streams: a smaller batch is a prefix of a larger one
        small = sample_forward(dp, mu, drift, 2, seed=123)
        np.testing.assert_array_equal(small.x, a.x[:2])

    def test_stored_fields_rederive_the_recursion(self):
        cp, dp, truth, mu = _scalar_setup()
        drift = DriftProcess.feedback(lambda i, x: -0.15 * x * dp.dt + 0.01)
        batch = sample_forward(dp, mu, drift, 8, seed=77)
        for i in range(dp.n_steps):
            sig = dp.Sigma(i, batch.x[:, i])
            _, _, k_i, d_i = batch.drift_step(i)
            np.testing.assert_array_equal(
                batch.x[:, i + 1],
                batch.x[:, i] + k_i + np.einsum("mij,mj->mi", sig, batch.w[:, i]),
            )
            f = dp.F(i, batch.x[:, i], mu(i, batch.x[:, i]))
            expected_d = np.linalg.solve(sig, (f - k_i)[..., None])[..., 0]
            np.testing.assert_array_equal(d_i, expected_d)
        d = _corrections(batch)
        increments = -0.5 * np.einsum("mki,mki->mk", d, d) + np.einsum("mki,mki->mk", d, batch.w)
        np.testing.assert_allclose(
            batch.log_theta[:, 1:], np.cumsum(increments, axis=1), rtol=1e-13, atol=1e-15
        )

    def test_drift_cap_enforced(self):
        # a hand-built problem keeps the default cap of 10; ||D|| = 5 / sqrt(1e-3)
        cp = _driftless_problem(sigma=0.1, horizon=0.4)
        dp = discretize(cp, 4)
        assert dp.d_cap == 10.0
        mu = _zero_policy(dp)
        drift = DriftProcess.feedback(lambda i, x: np.full_like(x, 5.0))
        with pytest.raises(DriftUnboundedError) as err:
            sample_forward(dp, mu, drift, 3, seed=0)
        assert err.value.step == 0
        assert err.value.traj == 0
        assert err.value.norm == pytest.approx(5.0 / np.sqrt(1e-3), rel=1e-12)
        assert err.value.cap == 10.0

    def test_each_problem_carries_its_cap(self):
        # the cart-pole diffusion is ill-conditioned, so the shipped suboptimal
        # drift's corrections (33.03 at step 0) sample under its 1e9 cap
        assert discretize(build_nonlinear_1d(), 200).d_cap == 10.0
        cp = build_cartpole_lqr()
        dp = discretize(cp, 100)
        assert dp.d_cap == 1e9
        mu = riccati_from_lqr(dp).policy()
        drift = DriftProcess.on_policy(
            FeedbackPolicy([[0, 0, -25, -5]], dp.control_lower, dp.control_upper)
        )
        batch = sample_forward(dp, mu, drift, 64, seed=0)
        assert batch.x.shape == (64, 101, 4)
        with pytest.raises(DriftUnboundedError) as err:
            sample_forward(dataclasses.replace(dp, d_cap=10.0), mu, drift, 64, seed=0)
        assert (err.value.traj, err.value.step) == (0, 0)
        assert err.value.norm == pytest.approx(33.03, abs=0.01)

    def test_nan_correction_is_reported(self):
        # the quadratic drift 0.1 (x - 3)^2 from x0 = 7 overflows before
        # t = 2.5 under a zero control, so F - K becomes inf - inf = NaN;
        # a distinct on-policy object takes the solve and fails at the same place
        dp = discretize(build_nonlinear_1d(), 50)
        mu = _zero_policy(dp)
        for drift in (DriftProcess.on_policy(mu), DriftProcess.on_policy(lambda i, x: mu(i, x))):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DriftUnboundedError) as err:
                    sample_forward(dp, mu, drift, 64, seed=5)
            assert np.isnan(err.value.norm)
            assert (err.value.traj, err.value.step) == (0, 20)

    def test_non_finite_state_is_reported(self):
        # an infinite increment under an infinite cap gives an infinite
        # correction norm, which the cap allows, so the state check fires
        cp = _driftless_problem(sigma=1.0, horizon=4.0)
        dp = dataclasses.replace(discretize(cp, 4), d_cap=np.inf)

        def fn(i, x):
            k = np.zeros_like(x)
            k[2] = np.inf if i == 1 else 0.0
            return k

        drift = DriftProcess.feedback(fn)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="trajectory 2, step 1"):
                sample_forward(dp, _zero_policy(dp), drift, 4, seed=0)

    def test_peak_memory_is_the_stored_arrays(self):
        # a batch stores x and w alone, and the step boxes take no temporary
        # the size of x: sampling and scaling peak within x and w plus 1 MiB
        # (storing the weights, the drifts or the corrections, or a
        # whole-batch std temporary, would each add about 3.3 MB here)
        cp = make_scalar_lqr()
        dp = discretize(cp, 200)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        drift = DriftProcess.feedback(lambda i, x: dp.F(i, x, mu(i, x)) - 0.01)
        scaling_from_batch(sample_forward(dp, mu, drift, 8, seed=0), 4)  # first-call allocations
        tracemalloc.start()
        try:
            batch = sample_forward(dp, mu, drift, 2048, seed=0)
            scaling_from_batch(batch, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = batch.x.nbytes + batch.w.nbytes
        assert peak <= stored + 2**20


def _scalar_setup():
    from fbsde_lsmc import riccati_from_lqr

    cp = make_scalar_lqr()
    dp = discretize(cp, 10)
    truth = riccati_from_lqr(dp)
    mu = truth.policy()
    return cp, dp, truth, mu


def _pinned_d(sigma, k_pin):
    """D at the live step of a one-step pinned batch; F = 0 and dt = 1."""
    k_pin = np.asarray(k_pin, dtype=float)
    dp = discretize(_driftless_problem(sigma=sigma, dim=k_pin.size), 1)
    batch = pinned_step_batch(dp, _zero_policy(dp), 0, np.zeros(k_pin.size), k_pin, 3, seed=0)
    return batch.drift_step(0)[3]


class TestDriftCorrection:
    # D = Sigma^{-1} (F - K) with F = 0, so D = -Sigma^{-1} K
    def test_zero_when_equal(self):
        np.testing.assert_array_equal(_pinned_d(1.0, [0.0, 0.0]), 0.0)

    def test_scalar_case(self):
        np.testing.assert_allclose(_pinned_d(2.0, [-2.0]), 1.0)

    def test_diagonal_solve(self):
        out = _pinned_d(np.diag([2.0, 4.0]), [-2.0, -8.0])
        np.testing.assert_allclose(out, np.broadcast_to([1.0, 2.0], out.shape))
        # a non-symmetric Sigma tells Sigma D = -K from Sigma^T D = -K
        sigma, k_pin = np.array([[2.0, 1.0], [0.0, 4.0]]), np.array([-3.0, -8.0])
        out = _pinned_d(sigma, k_pin)
        np.testing.assert_allclose(out @ sigma.T, np.broadcast_to(-k_pin, out.shape), rtol=1e-15)

    def test_singular_matrix(self):
        # every size goes through LAPACK's LU solve; a -0.0 pivot is zero too
        for sigma, k_pin in [(0.0, [-1.0, 0.0]), (0.0, [-1.0]), (-0.0, [-1.0])]:
            with pytest.raises(SingularDiffusionError):
                _pinned_d(sigma, k_pin)


def _count_solves(monkeypatch):
    """A list that gets one entry per ``_solve_diffusion`` call."""
    solves = []
    original = sampling_module._solve_diffusion

    def counting(sig, rhs):
        solves.append(sig.shape)
        return original(sig, rhs)

    monkeypatch.setattr(sampling_module, "_solve_diffusion", counting)
    return solves


class _CountingPolicy:
    def __init__(self, policy):
        self.policy, self.calls = policy, 0

    def __call__(self, i, x):
        self.calls += 1
        return self.policy(i, x)


class TestOnPolicyShortcut:
    """An on-policy drift around the batch's own ``mu`` reuses F_i(X_i, mu_i(X_i))
    and forms D_i = F_i - K_i without Sigma^{-1}."""

    def test_one_reference_policy_call_per_step(self):
        cp, dp, truth, mu = _scalar_setup()
        counted = _CountingPolicy(mu)
        batch = sample_forward(dp, counted, DriftProcess.on_policy(counted), 7, seed=2)
        assert counted.calls == dp.n_steps
        # each backward step reads mu once more, for Sigma, K, D and the stage
        # cost, but step N - 1 is the one the forward pass left formed
        backward_sweep(batch, list(EstimatorKind), scaling_from_batch(batch, 2))
        assert counted.calls == 2 * dp.n_steps - 1
        counted.calls = 0
        sample_forward(dp, counted, DriftProcess.on_policy(lambda i, x: counted(i, x)), 7, seed=2)
        assert counted.calls == 2 * dp.n_steps

    @given(n_samples=st.integers(1, 48), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=12, deadline=None)
    def test_shared_policy_matches_a_distinct_one(self, fitted_problem, n_samples, seed):
        # the distinct object takes the path that calls mu and F again
        setup = fitted_problem[0]
        dp, mu = setup.dp, setup.mu
        shared = sample_forward(dp, mu, DriftProcess.on_policy(mu), n_samples, seed)
        distinct = sample_forward(
            dp, mu, DriftProcess.on_policy(lambda i, x: mu(i, x)), n_samples, seed
        )
        for read in (
            lambda b: b.x, lambda b: b.w, _drifts, _corrections, lambda b: b.log_theta
        ):
            got, ref = read(shared), read(distinct)
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.all(_corrections(shared) == 0.0)
        # formed without Sigma^{-1}, they have the bits of LAPACK's solve
        for i in range(dp.n_steps):
            sig, u, k, d = shared.drift_step(i)
            ref = np.linalg.solve(sig, (dp.F(i, shared.x[:, i], u) - k)[..., None])[..., 0]
            np.testing.assert_array_equal(d.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_on_policy_steps_solve_nothing(self, monkeypatch, dim):
        dp = discretize(make_linear_problem(dim, seed=4), 5)
        mu = FeedbackPolicy(np.full((1, dim), -0.5), dp.control_lower, dp.control_upper)
        solves = _count_solves(monkeypatch)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 16, seed=2)
        backward_sweep(batch, list(EstimatorKind), scaling_from_batch(batch, 2))
        assert solves == []
        # a feedback drift solves once per step it forms: the sweep forms
        # again every step but N - 1, which the forward pass left formed
        drift = DriftProcess.feedback(lambda i, x: -0.2 * x * dp.dt)
        batch = sample_forward(dataclasses.replace(dp, d_cap=np.inf), mu, drift, 16, seed=2)
        assert len(solves) == dp.n_steps
        backward_sweep(batch, list(EstimatorKind), scaling_from_batch(batch, 2))
        assert len(solves) == 2 * dp.n_steps - 1

    @pytest.mark.parametrize("sigma", [0.0, -0.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_singular_diffusion_samples_on_policy(self, sigma, dim):
        # nothing inverts Sigma on policy; the solve path still rejects it
        dp = discretize(_driftless_problem(sigma=sigma, dim=dim), 4)
        mu = _zero_policy(dp)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 3, seed=0)
        assert np.all(_corrections(batch) == 0.0)
        assert np.all(batch.log_theta == 0.0)
        np.testing.assert_array_equal(batch.x, 0.0)
        with pytest.raises(SingularDiffusionError):
            sample_forward(dp, mu, DriftProcess.on_policy(lambda i, x: mu(i, x)), 3, seed=0)

    def test_non_finite_diffusion_on_policy_is_a_non_finite_state(self):
        # the solve turns a NaN Sigma into NaN corrections; on policy D stays
        # 0, and the state the NaN Sigma moves to is reported instead
        dp = discretize(_driftless_problem(sigma=np.nan), 4)
        mu = _zero_policy(dp)
        with pytest.raises(FloatingPointError, match="trajectory 0, step 0"):
            sample_forward(dp, mu, DriftProcess.on_policy(mu), 3, seed=0)
        with pytest.raises(DriftUnboundedError) as err:
            sample_forward(dp, mu, DriftProcess.on_policy(lambda i, x: mu(i, x)), 3, seed=0)
        assert (err.value.traj, err.value.step) == (0, 0)


def _stepwise_log_theta(batch):
    """The sampler's former in-step weight lines, kept verbatim as the reference."""
    log_theta = np.zeros(batch.x.shape[:2])
    for c in range(batch.w.shape[1]):
        # the sampler held D_i as the solve's fresh array and W_i as a column view
        d_cur, w_cur = batch.drift_step(batch.first_step + c)[3].copy(), batch.w[:, c]
        log_theta[:, c + 1] = log_theta[:, c] + (
            -0.5 * np.einsum("mi,mi->m", d_cur, d_cur) + np.einsum("mi,mi->m", d_cur, w_cur)
        )
    return log_theta


class TestGirsanovWeights:
    @given(
        dim=st.integers(1, 4),
        state_sigma=st.booleans(),
        drift=st.sampled_from(["own_policy", "other_policy", "feedback"]),
        n_steps=st.integers(1, 6),
        n_samples=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_theta_bytes_match_the_stepwise_accumulation(
        self, dim, state_sigma, drift, n_steps, n_samples, seed
    ):
        dp = discretize(make_linear_problem(dim, seed, state_sigma), n_steps)
        dp = dataclasses.replace(dp, d_cap=np.inf)
        mu = FeedbackPolicy(np.full((1, dim), -0.5), dp.control_lower, dp.control_upper)
        other = FeedbackPolicy(np.full((1, dim), 0.7), dp.control_lower, dp.control_upper)
        drifts = {
            "own_policy": DriftProcess.on_policy(mu),
            "other_policy": DriftProcess.on_policy(other),
            "feedback": DriftProcess.feedback(lambda i, x: -0.2 * x * dp.dt + 0.05),
        }
        batch = sample_forward(dp, mu, drifts[drift], n_samples, seed)
        i = seed % n_steps
        k_pin = batch.drift_step(i)[2][0]
        pinned = pinned_step_batch(dp, mu, i, batch.x[0, i], k_pin, n_samples, seed)
        for b in (batch, pinned):
            assert b.log_theta.shape == b.x.shape[:2]
            assert b.log_theta.tobytes() == _stepwise_log_theta(b).tobytes()

    def test_zero_corrections_give_unit_weights(self):
        cp, dp, truth, mu = _scalar_setup()
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 5, seed=1)
        assert np.all(_corrections(batch) == 0.0)
        assert np.all(np.exp(batch.log_theta) == 1.0)

    def test_single_step_value(self):
        # D = 1 at the pinned step, so Theta_1 = exp(-1/2 + W_0)
        dp = discretize(_driftless_problem(sigma=2.0), 1)
        batch = pinned_step_batch(dp, _zero_policy(dp), 0, [0.0], [-2.0], 5, seed=1)
        np.testing.assert_array_equal(_corrections(batch), 1.0)
        np.testing.assert_allclose(
            np.exp(batch.log_theta[:, 1]), np.exp(-0.5 + batch.w[:, 0, 0]), rtol=1e-15
        )

    def test_weights_are_a_martingale(self):
        # E[Theta_i] = 1 at every step, Monte Carlo oracle
        cp, dp, truth, mu = _scalar_setup()
        drift = DriftProcess.feedback(lambda i, x: dp.F(i, x, mu(i, x)) - 0.5 * np.sqrt(dp.dt) * 0.7)
        batch = sample_forward(dp, mu, drift, 10**5, seed=3)
        theta = np.exp(batch.log_theta)
        for i in (1, 5, 10):
            stderr = theta[:, i].std(ddof=1) / np.sqrt(batch.n_samples)
            assert abs(theta[:, i].mean() - 1.0) < 3 * stderr

    @pytest.mark.parametrize("builder", ["sample_forward", "pinned_step_batch"])
    def test_overflow_reported_with_location(self, builder, monkeypatch):
        # D = 40 at step 3 and W = 60 on trajectory 1 give the increment
        # -800 + 2400 > 709 there only; normal draws never reach |W| = 60
        def normals(seed, n_samples, shape):
            w = np.zeros((n_samples,) + shape)
            w[1] = 60.0
            return w

        monkeypatch.setattr(sampling_module, "_normals", normals)
        dp = discretize(_driftless_problem(sigma=1.0, horizon=6.0), 6)  # Sigma_i = 1
        mu = _zero_policy(dp)
        if builder == "sample_forward":
            drift = DriftProcess.feedback(lambda i, x: np.full_like(x, -40.0 * (i == 3)))
            batch = sample_forward(dataclasses.replace(dp, d_cap=np.inf), mu, drift, 3, seed=0)
        else:
            batch = pinned_step_batch(dp, mu, 3, [0.0], [-40.0], 3, seed=0)
        # building the batch forms no weights; reading them does
        with pytest.raises(WeightOverflowError) as err:
            batch.log_theta
        assert (err.value.traj, err.value.step) == (1, 3)


class TestRecomputedStep:
    """A batch stores X and W; ``drift_step(i)`` forms Sigma_i, mu_i(X_i), K_i
    and D_i again, by the function the forward step used."""

    @given(
        dim=st.integers(1, 4),
        state_sigma=st.booleans(),
        drift=st.sampled_from(["own_policy", "other_policy", "feedback"]),
        pinned=st.booleans(),
        n_steps=st.integers(1, 6),
        n_samples=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_rederive_the_recursion_bit_for_bit(
        self, dim, state_sigma, drift, pinned, n_steps, n_samples, seed
    ):
        dp = discretize(make_linear_problem(dim, seed, state_sigma), n_steps)
        dp = dataclasses.replace(dp, d_cap=np.inf)
        mu = FeedbackPolicy(np.full((1, dim), -0.5), dp.control_lower, dp.control_upper)
        other = FeedbackPolicy(np.full((1, dim), 0.7), dp.control_lower, dp.control_upper)
        drifts = {
            "own_policy": DriftProcess.on_policy(mu),
            "other_policy": DriftProcess.on_policy(other),
            "feedback": DriftProcess.feedback(lambda i, x: -0.2 * x * dp.dt + 0.05),
        }
        batch = sample_forward(dp, mu, drifts[drift], n_samples, seed)
        if pinned:
            i = seed % n_steps
            k_pin = batch.drift_step(i)[2][0]
            batch = pinned_step_batch(dp, mu, i, batch.x[0, i], k_pin, n_samples, seed)
        first = [tuple(a.copy() for a in batch.drift_step(i)) for i in _steps(batch)]
        # read backwards, every step but the last one read is formed again
        for i in reversed(_steps(batch)):
            c = i - batch.first_step
            x_i = batch.x[:, c]
            sig, u, k, d = batch.drift_step(i)
            assert sig.tobytes() == dp.Sigma(i, x_i).tobytes()
            assert u.tobytes() == mu(i, x_i).tobytes()
            x_next = x_i + k + np.einsum("mij,mj->mi", sig, batch.w[:, c])
            assert batch.x[:, c + 1].tobytes() == x_next.tobytes()
            expected_d = sampling_module._solve_diffusion(sig, dp.F(i, x_i, u) - k)
            assert d.tobytes() == expected_d.tobytes()
            for got, kept in zip((sig, u, k, d), first[c]):
                assert got.tobytes() == kept.tobytes()

    def test_each_pinned_batch_solves_its_step_once(self, monkeypatch):
        cp, dp, truth, mu = _scalar_setup()
        drift = DriftProcess.feedback(lambda i, x: -0.1 * x * dp.dt)
        batch = sample_forward(dp, mu, drift, 16, seed=6)
        spec = scaling_from_batch(batch, 2)
        model = backward_pass(dp, mu, batch, EstimatorKind.TAYLOR_NOISELESS, spec)
        solves = _count_solves(monkeypatch)
        i, kind = 4, EstimatorKind.TAYLOR_REESTIMATE
        estimator_bias_variance(kind, dp, mu, model, i, [0.3], [0.01], 50, 1, truth=truth)
        assert len(solves) == 1
        solves.clear()
        # one read of the sampled batch's step i, then one solve per pinned
        # batch: its targets, expansion and weights reuse the step it formed
        bias_bound_check({kind: model}, batch, i, truth, n_cells=3, n_rep=50)
        assert len(solves) == 1 + 3
        solves.clear()
        bias_bound_check({kind: model}, batch, i, truth, n_cells=3, n_rep=50)
        assert len(solves) == 3


class TestPinnedBatch:
    def test_recursion_and_weights(self):
        cp, dp, truth, mu = _scalar_setup()
        x_pin, k_pin = np.array([0.7]), np.array([0.03])
        batch = pinned_step_batch(dp, mu, 4, x_pin, k_pin, 100, seed=2)
        # column 0 is step 4, the live step
        assert batch.first_step == 4
        sig = dp.Sigma(4, batch.x[:, 0])
        _, _, k_4, d_4 = batch.drift_step(4)
        np.testing.assert_allclose(
            batch.x[:, 1],
            batch.x[:, 0] + k_4 + np.einsum("mij,mj->mi", sig, batch.w[:, 0]),
            rtol=1e-14,
        )
        f = dp.F(4, batch.x[:, 0], mu(4, batch.x[:, 0]))
        expected_d = np.linalg.solve(sig, (f - k_4)[..., None])[..., 0]
        np.testing.assert_allclose(d_4, expected_d, rtol=1e-14)
        assert np.all(batch.log_theta[:, 0] == 0.0)

    @pytest.mark.parametrize("n_rep", [2, 7, 64])
    def test_live_columns_match_the_full_history_layout(self, fitted_problem, n_rep):
        setup, batch, _ = fitted_problem
        dp, mu = setup.dp, setup.mu
        n = dp.dim_x
        for i in (0, dp.n_steps // 2, dp.n_steps - 1):
            x_pin, k_pin = batch.x[1, i], batch.drift_step(i)[2][1]
            live = pinned_step_batch(dp, mu, i, x_pin, k_pin, n_rep, seed=3)
            ref = full_history_pinned(dp, mu, i, x_pin, k_pin, n_rep, seed=3)
            assert (live.first_step, live.n_steps) == (i, i + 1)
            assert live.x.shape == (n_rep, 2, n)
            _, _, live_k, live_d = live.drift_step(i)
            assert live.w.shape == (n_rep, 1, n)
            assert live_k.shape == live_d.shape == (n_rep, n)
            assert live.log_theta.shape == (n_rep, 2)
            _, _, ref_k, ref_d = ref.drift_step(i)
            pairs = [
                (live.x[:, 0], ref.x[:, i]),
                (live.x[:, 1], ref.x[:, i + 1]),
                (live.w[:, 0], ref.w[:, i]),
                (live_k, ref_k),
                (live_d, ref_d),
                (live.log_theta[:, 0], ref.log_theta[:, i]),
                (live.log_theta[:, 1], ref.log_theta[:, i + 1]),
            ]
            for got, expected in pairs:
                assert got.tobytes() == expected.tobytes()

    def test_memory_does_not_grow_with_the_step(self):
        cp = build_cartpole_lqr()
        dp = discretize(cp, 100)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        x_pin, k_pin = np.array([0.1, -0.2, 0.05, 0.3]), np.full(4, 1e-3)

        def peak(i):
            tracemalloc.start()
            try:
                pinned_step_batch(dp, mu, i, x_pin, k_pin, 4000, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations are not the batch's
        early, late = peak(1), peak(98)
        # the full-history layout would hold 99 columns at step 98
        assert late <= 1.01 * early

    def test_no_samples_rejected(self):
        dp = discretize(_driftless_problem(), 4)
        with pytest.raises(ValueError, match="n_samples"):
            pinned_step_batch(dp, _zero_policy(dp), 2, [0.0], [0.0], 0, seed=0)

    def test_noise_is_the_first_draw_of_each_sampled_stream(self):
        # pins the per-trajectory layout of the Brownian draws
        dp = discretize(_driftless_problem(sigma=0.5, dim=3), 6)
        mu = _zero_policy(dp)
        seed = 2**63 + 11
        pinned = pinned_step_batch(dp, mu, 4, np.ones(3), np.zeros(3), 40, seed)
        sampled = sample_forward(dp, mu, DriftProcess.on_policy(mu), 40, seed)
        np.testing.assert_array_equal(pinned.w[:, 0], sampled.w[:, 0])


class TestStreams:
    # The stream contract: row k of _normals(seed, M, shape) is the first
    # draw of the Philox stream keyed [seed mod 2**64, 2k].
    @given(
        seed=st.one_of(
            st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1), st.integers(2**64, 2**80)
        ),
        n_samples=st.integers(1, 6),
        shape=st.sampled_from([(1,), (3,), (5,), (7, 4)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_are_fresh_philox_streams(self, seed, n_samples, shape):
        # a call with other arguments first must leave this one unaffected
        sampling_module._normals(seed + 1, 3, (2,))
        out = sampling_module._normals(seed, n_samples, shape)
        assert out.shape == (n_samples,) + shape
        for k in range(n_samples):
            # a list key holding a word >= 2**63 would pass through float64
            key = np.array([seed % 2**64, 2 * k], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)
            assert np.array_equal(out[k], expected)
