"""Confidence regions, relative absolute error, and estimator diagnostics."""

import numpy as np
import pytest

from fbsde_lsmc import (
    BasisSpec,
    DriftProcess,
    EstimatorKind,
    ValueModel,
    bias_bound_check,
    confidence_region,
    estimator_bias_variance,
    rae,
    sample_forward,
)
from fbsde_lsmc.backward import backward_sweep
from fbsde_lsmc.errors import DegenerateDenominatorError, NotFittedError
from fbsde_lsmc.metrics import ConfidenceRegion, report_to_csv
from fbsde_lsmc.sampling import TrajectoryBatch, pinned_step_batch

import fbsde_lsmc.metrics as metrics_module

from conftest import fit_function, full_history_pinned, make_scalar_lqr, model_from_truth

NOISELESS = EstimatorKind.TAYLOR_NOISELESS


def _batch_with_states(x):
    """Minimal batch carrying only the state array (for region tests, which
    read no step's drift or correction)."""
    x = np.asarray(x, dtype=float)
    m, steps, n = x.shape
    return TrajectoryBatch(x, np.zeros((m, steps - 1, n)), dp=None, mu=None, drift=None)


class TestConfidenceRegion:
    def test_floor_dominates_small_spread(self):
        rng = np.random.default_rng(0)
        x = 0.1 * rng.standard_normal((4000, 1, 1))
        region = confidence_region(_batch_with_states(x))
        assert region.lower[0, 0] == pytest.approx(-1.0, abs=0.02)
        assert region.upper[0, 0] == pytest.approx(1.0, abs=0.02)

    def test_three_sigma_dominates_wide_spread(self):
        states = np.stack([np.full((2, 1), 1.5), np.full((2, 1), 2.5)])  # mean 2, std 0.5
        region = confidence_region(_batch_with_states(states))
        assert region.lower[0, 0] == pytest.approx(0.5)
        assert region.upper[0, 0] == pytest.approx(3.5)

    def test_single_sample_uses_unit_floor(self):
        x = np.full((1, 3, 1), 0.7)
        region = confidence_region(_batch_with_states(x))
        np.testing.assert_allclose(region.lower, 0.7 - 1.0)
        np.testing.assert_allclose(region.upper, 0.7 + 1.0)

    @pytest.mark.parametrize(
        "grid, message",
        [
            (dict(dx=-0.5), "dx must be finite and > 0"),
            (dict(dx=0.0), "dx must be finite and > 0"),
            (dict(dx=float("nan")), "dx must be finite and > 0"),
            (dict(dx=float("inf")), "dx must be finite and > 0"),
            (dict(points_per_axis=0), "points_per_axis must be >= 2"),
            (dict(points_per_axis=1), "points_per_axis must be >= 2"),
            (dict(), "exactly one of dx or points_per_axis"),
            (dict(dx=0.1, points_per_axis=3), "exactly one of dx or points_per_axis"),
        ],
    )
    def test_a_grid_without_two_points_per_axis_is_rejected(self, grid, message):
        box = dict(lower=np.full((2, 1), -1.0), upper=np.full((2, 1), 1.0))
        with pytest.raises(ValueError, match=message):
            ConfidenceRegion(**box, **grid)
        assert ConfidenceRegion(**box, points_per_axis=2).grid_points(1).shape == (2, 1)

    def test_grid_spacing_modes(self):
        x = np.zeros((8, 2, 2))
        region = confidence_region(_batch_with_states(x))
        assert region.points_per_axis == 9
        assert region.grid_points(0).shape == (81, 2)
        region1 = confidence_region(_batch_with_states(np.zeros((8, 2, 1))))
        assert region1.dx == pytest.approx(1e-2)
        axis = region1.grid_axes(0)[0]
        np.testing.assert_allclose(np.diff(axis), 1e-2)


@pytest.fixture(scope="module")
def lqr_model_truth():
    from fbsde_lsmc import discretize, riccati_from_lqr

    cp = make_scalar_lqr()
    n_steps = 6
    truth = riccati_from_lqr(discretize(cp, n_steps))
    model = model_from_truth(truth, 1, n_steps)
    region = ConfidenceRegion(
        lower=np.full((n_steps + 1, 1), -2.0),
        upper=np.full((n_steps + 1, 1), 2.0),
        dx=0.05,
    )
    return model, truth, region


class TestRae:
    def test_zero_when_model_equals_truth(self, lqr_model_truth):
        model, truth, region = lqr_model_truth
        assert rae(model, truth, region, 2) < 1e-9

    def test_best_constant_predictor_scores_one(self, lqr_model_truth):
        model, truth, region = lqr_model_truth
        pts = region.grid_points(2)
        const = float(np.mean(truth.value(2, pts)))
        spec = model.basis
        flat = ValueModel.empty(spec, truth.n_steps)
        coeffs = np.zeros(spec.size)
        coeffs[0] = const
        flat.set_coeffs(2, coeffs)
        assert rae(flat, truth, region, 2) == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_summation_oracle(self, lqr_model_truth):
        model, truth, region = lqr_model_truth
        rng = np.random.default_rng(5)
        perturbed = model_from_truth(truth, 1, truth.n_steps)
        perturbed.coeffs[2, 1] += 0.37  # linear feature bump
        val = rae(perturbed, truth, region, 2)
        pts = region.grid_points(2)
        vm = perturbed.eval(2, pts)
        vt = truth.value(2, pts)
        oracle = np.sum(np.abs(vm - vt)) / np.sum(np.abs(np.mean(vt) - vt))
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_invariant_under_common_constant_shift(self, lqr_model_truth):
        model, truth, region = lqr_model_truth
        perturbed = model_from_truth(truth, 1, truth.n_steps)
        perturbed.coeffs[2, 1] += 0.19
        base = rae(perturbed, truth, region, 2)
        shifted_model = model_from_truth(truth, 1, truth.n_steps)
        shifted_model.coeffs[2, 1] += 0.19
        shifted_model.coeffs[2, 0] += 123.0
        import dataclasses

        shifted_truth = dataclasses.replace(truth, c=truth.c + 123.0)
        assert rae(shifted_model, shifted_truth, region, 2) == pytest.approx(base, rel=1e-9)

    def test_constant_truth_rejected(self, lqr_model_truth):
        model, truth, region = lqr_model_truth
        import dataclasses

        flat_truth = dataclasses.replace(truth, p=np.zeros_like(truth.p))
        with pytest.raises(DegenerateDenominatorError):
            rae(model, flat_truth, region, 2)


@pytest.fixture(scope="module")
def lqr_setup_with_model():
    from fbsde_lsmc import discretize, riccati_from_lqr

    cp = make_scalar_lqr()
    n_steps = 12
    dp = discretize(cp, n_steps)
    truth = riccati_from_lqr(dp)
    mu = truth.policy()
    model = model_from_truth(truth, 1, n_steps)
    return cp, dp, truth, mu, model


class TestBiasVariance:
    def test_noiseless_estimator_variance_is_exactly_zero(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        bias, variance = estimator_bias_variance(
            EstimatorKind.TAYLOR_NOISELESS,
            dp,
            mu,
            model,
            5,
            np.array([0.9]),
            np.array([0.2]),
            n_rep=1000,
            seed=4,
            truth=truth,
        )
        assert variance == 0.0
        assert abs(bias) < 1e-10

    def test_noisy_estimator_has_positive_variance(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        _, variance = estimator_bias_variance(
            EstimatorKind.EM_NOISY,
            dp,
            mu,
            model,
            5,
            np.array([0.9]),
            np.array([0.2]),
            n_rep=1000,
            seed=4,
        )
        assert variance > 0.0

    def test_reestimate_exact_for_quadratic_model(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        bias, variance = estimator_bias_variance(
            EstimatorKind.TAYLOR_REESTIMATE,
            dp,
            mu,
            model,
            5,
            np.array([0.9]),
            np.array([0.0]),
            n_rep=1000,
            seed=4,
            truth=truth,
        )
        # the expansion is exact, so the target degenerates to a constant
        assert variance < 1e-20
        assert abs(bias) < 1e-9

    def test_bias_unavailable_without_truth(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        bias, variance = estimator_bias_variance(
            EstimatorKind.EM_NOISY,
            dp,
            mu,
            model,
            5,
            np.array([0.9]),
            np.array([0.2]),
            n_rep=100,
            seed=4,
        )
        assert bias is None
        assert variance >= 0.0


class TestBiasBoundCheck:
    def _drifted_batch(self, dp, mu, shift, seed=6):
        drift = DriftProcess.feedback(
            lambda i, x: dp.F(i, x, mu(i, x)) - shift * np.sqrt(dp.dt) * 0.7
        )
        return sample_forward(dp, mu, drift, 16, seed=seed)

    def test_quadratic_model_gives_zero_remainder(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = self._drifted_batch(dp, mu, 0.5)
        (report,) = bias_bound_check(
            {NOISELESS: model}, batch, 4, truth, n_cells=3, n_rep=500
        ).values()
        for cell in report.cells:
            assert cell.lhs < 1e-9
            assert cell.rhs < 1e-9
        assert report.verdict

    def test_on_policy_reduces_to_norm_inequality(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        n_steps = dp.n_steps
        cubic = _cubic_model(truth, n_steps, 0.3)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 16, seed=8)
        (report,) = bias_bound_check(
            {NOISELESS: cubic}, batch, 4, truth, n_cells=4, n_rep=2000
        ).values()
        assert report.verdict
        for cell in report.cells:
            assert cell.d_norm == 0.0

    def test_cubic_model_with_moderate_drift_holds(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        cubic = _cubic_model(truth, dp.n_steps, 0.3)
        for seed in (0, 1):
            batch = self._drifted_batch(dp, mu, 0.5, seed=seed)
            (report,) = bias_bound_check(
                {NOISELESS: cubic}, batch, 4, truth, n_cells=4, n_rep=2000, seed=seed
            ).values()
            assert report.verdict
            assert report.variance >= 0.0
            assert all(cell.rhs >= 0.0 for cell in report.cells)

    def test_bias_and_variance_come_from_the_first_cell_batch(
        self, lqr_setup_with_model, monkeypatch
    ):
        import fbsde_lsmc.metrics as metrics_module

        cp, dp, truth, mu, model = lqr_setup_with_model
        cubic = _cubic_model(truth, dp.n_steps, 0.3)
        batch = self._drifted_batch(dp, mu, 0.5)
        x_pin, k_pin = batch.x[0, 4], batch.drift_step(4)[2][0]
        expect = {
            kind: estimator_bias_variance(kind, dp, mu, cubic, 4, x_pin, k_pin, 500, 7, truth=truth)
            for kind in EstimatorKind
        }
        built = []
        original = metrics_module.pinned_step_batch

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "pinned_step_batch", counting)
        reports = bias_bound_check(
            {kind: cubic for kind in EstimatorKind}, batch, 4, truth, n_cells=3, n_rep=500, seed=7
        )
        # one pinned batch per cell for all four models, none rebuilt
        assert len(built) == 3
        for kind, report in reports.items():
            assert report.kind is kind
            assert (report.bias, report.variance) == expect[kind]
        assert reports[EstimatorKind.EM_NOISY].variance > 0.0

    def test_a_step_outside_the_batch_rejected(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = self._drifted_batch(dp, mu, 0.5)
        n = batch.n_steps
        for step in (-1, n):
            with pytest.raises(ValueError, match=rf"step {step} out of range \[0, {n}\)"):
                bias_bound_check({NOISELESS: model}, batch, step, truth, n_cells=2, n_rep=50)

    def test_zero_cells_rejected(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = self._drifted_batch(dp, mu, 0.5)
        with pytest.raises(ValueError, match="n_cells"):
            bias_bound_check({NOISELESS: model}, batch, 4, truth, n_cells=0, n_rep=50)

    def test_more_cells_than_trajectories_rejected(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = self._drifted_batch(dp, mu, 0.5)
        with pytest.raises(ValueError, match="n_cells = 17 exceeds the batch size of 16"):
            bias_bound_check({NOISELESS: model}, batch, 4, truth, n_cells=17, n_rep=50)

    def test_single_rep_rejected(self, lqr_setup_with_model):
        # one rep leaves the standard error undefined (nan), so no cell holds
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = self._drifted_batch(dp, mu, 0.5)
        k_4 = batch.drift_step(4)[2]
        with pytest.raises(ValueError, match="n_rep"):
            bias_bound_check({NOISELESS: model}, batch, 4, truth, n_cells=2, n_rep=1)
        with pytest.raises(ValueError, match="n_rep"):
            estimator_bias_variance(
                EstimatorKind.EM_NOISY, dp, mu, model, 4, batch.x[0, 4], k_4[0], 1, 0
            )

    def test_csv_serialization(self, lqr_setup_with_model, tmp_path):
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = self._drifted_batch(dp, mu, 0.5)
        reports = bias_bound_check({NOISELESS: model}, batch, 4, truth, n_cells=2, n_rep=200)
        path = tmp_path / "diag.csv"
        report_to_csv(reports.values(), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("step,kind,cell,d_norm,lhs,rhs,stderr,holds")
        assert len(lines) == 3


class TestLockstepCheck:
    """All models of one call are checked on the same pinned cells."""

    def test_each_report_equals_a_one_model_call(self, fitted_problem):
        setup, batch, models = fitted_problem
        i = setup.dp.n_steps // 2
        together = bias_bound_check(models, batch, i, setup.truth, n_cells=3, n_rep=64, seed=11)
        assert list(together) == list(models)
        for kind, model in models.items():
            alone = bias_bound_check(
                {kind: model}, batch, i, setup.truth, n_cells=3, n_rep=64, seed=11
            )
            assert repr(together[kind]) == repr(alone[kind]), kind

    def test_an_unfitted_next_step_is_raised_before_any_pinned_batch(
        self, fitted_problem, monkeypatch
    ):
        setup, batch, models = fitted_problem
        i = setup.dp.n_steps // 2
        spec = next(iter(models.values())).basis
        short = backward_sweep(batch, list(models), spec, down_to=i + 2)

        def no_pin(*args, **kwargs):
            raise AssertionError("pinned_step_batch called")

        monkeypatch.setattr(metrics_module, "pinned_step_batch", no_pin)
        with pytest.raises(NotFittedError) as err:
            bias_bound_check(short, batch, i, setup.truth, n_cells=3, n_rep=64)
        assert err.value.step == i + 1

    def test_models_on_different_bases_rejected(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 16, seed=8)
        mixed = {NOISELESS: model, EstimatorKind.EM_NOISY: _cubic_model(truth, dp.n_steps, 0.3)}
        for models in (mixed, {}):
            with pytest.raises(ValueError, match="sharing one basis"):
                bias_bound_check(models, batch, 4, truth, n_cells=2, n_rep=50)

    def test_a_failed_fit_is_raised(self, lqr_setup_with_model):
        cp, dp, truth, mu, model = lqr_setup_with_model
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 16, seed=8)
        failed = FloatingPointError("non-finite backward target")
        with pytest.raises(FloatingPointError, match="non-finite backward target"):
            bias_bound_check(
                {NOISELESS: model, EstimatorKind.EM_NOISY: failed}, batch, 4, truth, n_cells=2
            )

    @pytest.mark.parametrize("i", [1, 3])
    def test_a_pinned_batch_is_checked_at_its_own_columns(self, i, monkeypatch):
        from fbsde_lsmc import discretize, riccati_from_lqr

        cp = make_scalar_lqr()
        dp = discretize(cp, 6)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        model = model_from_truth(truth, 1, 6)
        pinned = pinned_step_batch(dp, mu, i, [0.5], [0.0], 16, seed=0)
        pins = []
        original = metrics_module.pinned_step_batch

        def recording(dp, mu, i, x_pin, k_pin, *rest):
            pins.append((x_pin.copy(), k_pin.copy()))
            return original(dp, mu, i, x_pin, k_pin, *rest)

        monkeypatch.setattr(metrics_module, "pinned_step_batch", recording)
        (report,) = bias_bound_check(
            {NOISELESS: model}, pinned, i, truth, n_cells=2, n_rep=50
        ).values()
        assert [(list(x), list(k)) for x, k in pins] == [([0.5], [0.0])] * 2
        resid = np.abs(model.eval(i + 1, pinned.x[:, 1]) - truth.value(i + 1, pinned.x[:, 1]))
        assert report.fit_residual_max == float(resid.max())
        for step in (i - 1, i + 1):
            with pytest.raises(ValueError, match=rf"step {step} out of range \[{i}, {i + 1}\)"):
                bias_bound_check({NOISELESS: model}, pinned, step, truth, n_cells=2, n_rep=50)


class TestOneStepPinnedLayout:
    """Diagnostics on one-step pinned batches equal those on the full-history layout."""

    def test_diagnostics_match_the_full_history_layout(self, fitted_problem, monkeypatch):
        setup, batch, models = fitted_problem
        dp, mu, truth = setup.dp, setup.mu, setup.truth

        def diagnose(kind, model, i):
            pair = estimator_bias_variance(
                kind, dp, mu, model, i, batch.x[0, i], batch.drift_step(i)[2][0], 64, 7, truth=truth
            )
            report = bias_bound_check(
                {kind: model}, batch, i, truth, n_cells=2, n_rep=64, seed=7
            )[kind]
            cells = [vars(cell) for cell in report.cells]
            return pair, (report.bias, report.variance), cells, report.fit_residual_max

        for i in (0, dp.n_steps // 2, dp.n_steps - 1):
            for kind, model in models.items():
                got = diagnose(kind, model, i)
                with monkeypatch.context() as patch:
                    patch.setattr(metrics_module, "pinned_step_batch", full_history_pinned)
                    expected = diagnose(kind, model, i)
                assert got == expected, (kind, i)


def _cubic_model(truth, n_steps, strength):
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
                spec, i, lambda pts, i=i: truth.value(i, pts) + strength * pts[..., 0] ** 3
            ),
        )
    return model
