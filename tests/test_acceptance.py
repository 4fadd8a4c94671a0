"""Acceptance gate: one test per headline criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Thresholds are fixed here, not configurable.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings

from fbsde_lsmc import (
    BasisSpec,
    ContinuousProblem,
    DriftProcess,
    EstimatorKind,
    FeedbackPolicy,
    GridSpec,
    ValueModel,
    confidence_region,
    discretize,
    estimator_bias_variance,
    bias_bound_check,
    grid_bellman,
    improve_policy,
    riccati_from_lqr,
    sample_forward,
    scaling_from_batch,
    build_cartpole_lqr,
)
from fbsde_lsmc.backward import backward_sweep
from fbsde_lsmc.config import parse_config_text
from fbsde_lsmc.experiments import run_experiment
from fbsde_lsmc.metrics import shared_rae
from fbsde_lsmc.value_model import basis_eval

from conftest import (
    ConstantPolicy,
    delta_y_hat,
    driftless_lqr,
    fit_function,
    make_scalar_lqr,
    model_from_truth,
    random_lqrs,
)


def _verdict(num, label, ok, detail=""):
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _read_mean_rae(results_path):
    import csv

    out = {}
    with open(results_path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["estimator"], int(row["trial"]))
            out[key] = float(row["mean_rae"])
    return out


@pytest.fixture(scope="module")
def lqr4d_run(tmp_path_factory):
    """The 4-D cart-pole comparison: suboptimal drift, 15 basis functions."""
    out = tmp_path_factory.mktemp("lqr4d")
    cfg = parse_config_text(
        f"""
        problem.name = cartpole_lqr
        run.n_steps = 100
        run.seed = 2024
        run.trials = 1
        run.output_dir = {out}
        drift.kind = suboptimal
        sweep.estimators = taylor_noiseless,taylor_reestimate,em_noiseless,em_noisy
        sweep.degrees = 2
        sweep.samples = 1024
        sampling.reference_samples = 1024
        """
    )
    start = time.perf_counter()
    results, _ = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return _read_mean_rae(results), elapsed


@pytest.fixture(scope="module")
def nonlinear1d_run(tmp_path_factory):
    """The scalar benchmark at degree 4, 256 samples, 20 trials, on-policy."""
    out = tmp_path_factory.mktemp("oned")
    cfg = parse_config_text(
        f"""
        problem.name = nonlinear1d
        run.n_steps = 200
        run.seed = 515
        run.trials = 20
        run.output_dir = {out}
        drift.kind = optimal
        sweep.estimators = taylor_noiseless,em_noiseless,em_noisy
        sweep.degrees = 4
        sweep.samples = 256
        sampling.reference_samples = 1024
        """
    )
    start = time.perf_counter()
    results, _ = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return _read_mean_rae(results), elapsed


class TestCriterion1LqrNearExactness:
    def test_taylor_estimators_near_machine_precision(self, lqr4d_run):
        raes, elapsed = lqr4d_run
        noiseless = raes[("taylor_noiseless", 0)]
        reestimate = raes[("taylor_reestimate", 0)]
        _verdict(
            1,
            "LQR near-exactness",
            noiseless < 1e-6 and reestimate < 1e-6 and elapsed < 60.0,
            f"RAE noiseless={noiseless:.2e} re-estimate={reestimate:.2e} "
            f"runtime={elapsed:.1f}s",
        )

    @given(case=random_lqrs())
    @settings(max_examples=30, deadline=None)
    def test_taylor_estimators_at_rounding_level_on_random_lqrs(self, case):
        # the paper's LQR claim on random LQRs, scored as a sweep scores its
        # cells: degree-2 models fitted under a random feedback drift, their
        # mean RAE over steps 1..N against the Riccati truth on an on-policy
        # region
        cp, gain = case
        n_steps, kinds = 20, [EstimatorKind.TAYLOR_NOISELESS, EstimatorKind.TAYLOR_REESTIMATE]
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        drift = DriftProcess.on_policy(FeedbackPolicy(gain, dp.control_lower, dp.control_upper))
        batch = sample_forward(dp, mu, drift, 128, seed=1)
        region = confidence_region(sample_forward(dp, mu, DriftProcess.on_policy(mu), 128, seed=2))
        spec = scaling_from_batch(batch, 2)
        models = backward_sweep(batch, kinds, spec, down_to=1)
        steps = range(1, n_steps + 1)
        scored = [models[kind] for kind in kinds]
        mean_rae = np.mean([shared_rae(scored, truth, region, i) for i in steps], axis=0)

        # The allowance is a rounding bound.  A target's terms are rounded
        # relative to their size, which Zbar.D and D^T Mbar D make at most
        # (1 + |D|)^2 times |V|; least squares multiplies a relative error in
        # its targets by at most the design's condition number; each of the N
        # steps adds its own error to the models the earlier steps read; and
        # RAE divides by the truth's mean absolute deviation, not its size.
        values = [truth.value(i, region.grid_points(i)) for i in steps]
        size_over_spread = max(np.abs(v).max() / np.abs(v - v.mean()).mean() for v in values)
        cond = max(np.linalg.cond(basis_eval(spec, i, batch.x[:, i])) for i in steps)
        d_max = max(np.linalg.norm(batch.drift_step(i)[3], axis=-1).max() for i in range(n_steps))
        eps = np.finfo(float).eps
        allowance = eps * n_steps * cond * size_over_spread * (1.0 + d_max) ** 2
        assert np.all(mean_rae <= allowance), (
            f"n = {dp.dim_x}: mean RAE {mean_rae} over the allowance {allowance:.2e}"
        )


class TestCriterion2EmDivergence:
    def test_em_estimators_fail_on_drifted_lqr(self, lqr4d_run):
        raes, _ = lqr4d_run
        em_noisy = raes[("em_noisy", 0)]
        em_noiseless = raes[("em_noiseless", 0)]
        _verdict(
            2,
            "EM divergence on drifted LQR",
            em_noisy > 1e-1 and em_noiseless > 1e-1,
            f"RAE em_noisy={em_noisy:.2e} em_noiseless={em_noiseless:.2e}",
        )


class TestCriterion3OneDimensionalOrdering:
    def test_taylor_beats_both_em_estimators(self, nonlinear1d_run):
        raes, elapsed = nonlinear1d_run
        trials = range(20)
        taylor = np.array([raes[("taylor_noiseless", t)] for t in trials])
        em_noisy = np.array([raes[("em_noisy", t)] for t in trials])
        em_noiseless = np.array([raes[("em_noiseless", t)] for t in trials])

        def gap_over_stderr(other):
            gaps = other - taylor
            se = gaps.std(ddof=1) / np.sqrt(len(gaps))
            return gaps.mean(), se

        g1, s1 = gap_over_stderr(em_noisy)
        g2, s2 = gap_over_stderr(em_noiseless)
        _verdict(
            3,
            "1-D estimator ordering",
            g1 > 3 * s1 and g2 > 3 * s2 and elapsed < 300.0,
            f"mean RAE taylor={taylor.mean():.3e} em_noisy={em_noisy.mean():.3e} "
            f"em_noiseless={em_noiseless.mean():.3e}; gaps {g1:.3e}>{3*s1:.3e}, "
            f"{g2:.3e}>{3*s2:.3e}; runtime={elapsed:.0f}s",
        )


class TestCriterion4ZeroVariance:
    def test_noiseless_target_variance_is_exactly_zero(self):
        cp = build_cartpole_lqr()
        n_steps = 30
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        model = model_from_truth(truth, 4, n_steps)
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(3):
            x_pin = rng.normal(size=4)
            k_pin = rng.normal(size=4) * 0.05
            _, variance = estimator_bias_variance(
                EstimatorKind.TAYLOR_NOISELESS,
                dp,
                mu,
                model,
                10,
                x_pin,
                k_pin,
                n_rep=1000,
                seed=trial,
                truth=truth,
            )
            worst = max(worst, variance)
        _verdict(4, "zero variance", worst == 0.0, f"max variance={worst!r}")


class TestCriterion5Unbiasedness:
    def test_backward_difference_unbiased_on_scalar_lqr(self):
        cp = make_scalar_lqr()
        n_steps = 20
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        model = model_from_truth(truth, 1, n_steps)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 10**5, seed=41)
        i = 9
        delta_hat = delta_y_hat(model, batch, i)
        delta_true = truth.value(i + 1, batch.x[:, i + 1]) - truth.value(i, batch.x[:, i])
        resid = delta_true - delta_hat
        stderr = resid.std(ddof=1) / np.sqrt(batch.n_samples)
        # with the exact quadratic model the estimator is pointwise exact, so
        # the residual is pure float rounding; the 1e-12 floor absorbs it
        ok = abs(resid.mean()) <= 3 * stderr + 1e-12
        _verdict(
            5,
            "on-policy unbiasedness",
            ok,
            f"|mean|={abs(resid.mean()):.2e} vs 3*stderr={3*stderr:.2e}",
        )


class TestCriterion6DiscreteGirsanov:
    def test_reweighted_noise_moments_are_standard_normal(self):
        dim = 2
        lqr = driftless_lqr(0.8 * np.eye(dim))
        cp = ContinuousProblem.from_lqr(lqr, 0.3, np.zeros(dim), np.array([-1.0]), np.array([1.0]))
        n_steps = 3
        dp = discretize(cp, n_steps)

        mu = ConstantPolicy([0.0], dp.control_lower, dp.control_upper)
        d_vec = np.array([0.6, 0.8])  # ||D|| = 1
        sig_d = 0.8 * np.sqrt(dp.dt)

        def drift_fn(i, x):
            return -sig_d * np.broadcast_to(d_vec, np.shape(x))

        batch = sample_forward(dp, mu, DriftProcess.feedback(drift_fn), 10**5, seed=33)
        np.testing.assert_allclose(
            batch.drift_step(0)[3], np.broadcast_to(d_vec, (batch.n_samples, dim)), rtol=1e-12
        )

        j = 1
        wq = batch.w[:, j] - batch.drift_step(j)[3]
        theta = np.exp(batch.log_theta[:, j + 1])
        sqrt_m = np.sqrt(batch.n_samples)

        # reweighted means of W~ and W~ W~^T, W~ = W - D, with their stderrs
        first_terms = theta[:, None] * wq
        second_terms = theta[:, None, None] * np.einsum("mi,mj->mij", wq, wq)
        first = first_terms.mean(axis=0)
        first_se = first_terms.std(axis=0, ddof=1) / sqrt_m
        second = second_terms.mean(axis=0)
        second_se = second_terms.std(axis=0, ddof=1) / sqrt_m

        ok_first = np.all(np.abs(first) < 3 * first_se)
        ok_second = np.all(np.abs(second - np.eye(dim)) < 3 * second_se)
        _verdict(
            6,
            "discrete change of measure",
            bool(ok_first and ok_second),
            f"max|E W|={np.max(np.abs(first)):.3e}, "
            f"max|E WW^T - I|={np.max(np.abs(second - np.eye(dim))):.3e}",
        )


class TestCriterion7BiasBound:
    def test_bound_holds_across_seeds_and_drift_sizes(self):
        cp = make_scalar_lqr()
        n_steps = 12
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()

        spec = BasisSpec(
            1,
            3,
            scale_lo=np.full((n_steps + 1, 1), -6.0),
            scale_hi=np.full((n_steps + 1, 1), 6.0),
        )
        cubic = ValueModel.empty(spec, n_steps)
        for i in range(n_steps + 1):
            cubic.set_coeffs(
                i,
                fit_function(
                    spec, i, lambda pts, i=i: truth.value(i, pts) + 0.3 * pts[..., 0] ** 3
                ),
            )

        levels = [0.25, 0.5, 1.0]
        all_hold = True
        details = []
        for seed in range(10):
            d0 = levels[seed % 3]
            drift = DriftProcess.feedback(
                lambda i, x, d0=d0: dp.F(i, x, mu(i, x)) - d0 * np.sqrt(dp.dt) * 0.7
            )
            batch = sample_forward(dp, mu, drift, 8, seed=seed)
            (report,) = bias_bound_check(
                {EstimatorKind.TAYLOR_NOISELESS: cubic},
                batch,
                5,
                truth,
                n_cells=3,
                n_rep=3000,
                seed=seed,
            ).values()
            assert all(abs(c.d_norm - d0) < 1e-9 for c in report.cells)
            all_hold &= report.verdict
            details.append(f"seed {seed} |D|={d0}: {'ok' if report.verdict else 'VIOLATED'}")
        _verdict(7, "remainder bias bound", all_hold, "; ".join(details[:3]) + " ...")


class TestCriterion8OracleCrossCheck:
    def test_grid_dp_agrees_with_riccati(self):
        cp = make_scalar_lqr(u_max=20.0)
        n_steps = 20
        dp = discretize(cp, n_steps)
        truth_r = riccati_from_lqr(dp)
        mu = truth_r.policy()
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 1024, seed=7)
        region = confidence_region(batch)
        grid = GridSpec.from_region(region)
        truth_g = grid_bellman(dp, grid)
        worst = 0.0
        for i in range(n_steps + 1):
            pts = region.grid_points(i)
            diff = np.abs(truth_g.value(i, pts) - truth_r.value(i, pts))
            worst = max(worst, float(diff.max()))
        _verdict(8, "oracle cross-check", worst < 1e-3, f"max abs diff={worst:.2e}")


class TestCriterion9PolicyExactness:
    def test_improvement_recovers_riccati_feedback(self):
        cp = build_cartpole_lqr()
        n_steps = 50
        dp = discretize(cp, n_steps)
        truth = riccati_from_lqr(dp)
        model = model_from_truth(truth, 4, n_steps)
        rng = np.random.default_rng(8)
        i = 17
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=4)
            u = improve_policy(model, dp, i, x)
            expect = -truth.gain[i] @ x
            worst = max(worst, float(np.max(np.abs(u - expect))))
        _verdict(9, "policy exactness on LQR", worst < 1e-8, f"max |u - u*|={worst:.2e}")


class TestCriterion10DerivativeChecks:
    def test_gradients_and_hessians_match_finite_differences(self):
        rng = np.random.default_rng(123)
        h = 1e-5
        worst_g, worst_h = 0.0, 0.0
        for case in range(100):
            dim = int(rng.integers(1, 4))
            degree = int(rng.integers(1, 5))
            lo = rng.uniform(-3, -1, dim)
            hi = rng.uniform(1, 3, dim)
            spec = BasisSpec(dim, degree, lo[None, :], hi[None, :])
            model = ValueModel.empty(spec, 0)
            model.set_coeffs(0, rng.normal(size=spec.size))
            x = rng.uniform(lo, hi)

            grad = model.grad(0, x)
            hess = model.hessian(0, x)
            for c in range(dim):
                e = np.zeros(dim)
                e[c] = h
                fd_g = (model.eval(0, x + e) - model.eval(0, x - e)) / (2 * h)
                worst_g = max(worst_g, abs(grad[c] - fd_g) / max(1.0, abs(fd_g)))
                fd_h = (model.grad(0, x + e) - model.grad(0, x - e)) / (2 * h)
                err = np.max(np.abs(hess[:, c] - fd_h)) / max(1.0, np.max(np.abs(fd_h)))
                worst_h = max(worst_h, err)
        _verdict(
            10,
            "derivative consistency",
            worst_g < 1e-6 and worst_h < 1e-4,
            f"worst grad rel err={worst_g:.2e}, worst hess rel err={worst_h:.2e}",
        )
