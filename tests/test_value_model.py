"""Chebyshev bases, derivative operators, and least-squares fitting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebder, chebval

from fbsde_lsmc import (
    BasisSpec,
    ValueModel,
    basis_eval,
    fit_function,
    lsmc_fit,
    sample_forward,
    scaling_from_batch,
)
from fbsde_lsmc.errors import NotFittedError, RankDeficientWarning
from fbsde_lsmc.value_model import model_to_json


class TestBasisEval:
    def test_univariate_degree_two(self):
        spec = BasisSpec.with_unit_scaling(1, 2, 0)
        np.testing.assert_allclose(
            basis_eval(spec, 0, np.array([0.5])), [1.0, 0.5, -0.5], rtol=1e-15
        )

    def test_four_dim_degree_two_has_15_features(self):
        spec = BasisSpec.with_unit_scaling(4, 2, 0)
        assert spec.size == 15
        assert basis_eval(spec, 0, np.zeros(4)).shape == (15,)

    def test_bivariate_degree_one_at_origin(self):
        spec = BasisSpec.with_unit_scaling(2, 1, 0)
        np.testing.assert_array_equal(basis_eval(spec, 0, np.zeros(2)), [1.0, 0.0, 0.0])

    def test_extrapolates_outside_unit_box(self):
        spec = BasisSpec.with_unit_scaling(1, 3, 0)
        feats = basis_eval(spec, 0, np.array([2.0]))
        assert np.all(np.isfinite(feats))
        # T_2(2) = 7, T_3(2) = 26
        np.testing.assert_allclose(feats, [1.0, 2.0, 7.0, 26.0], rtol=1e-14)

    @given(dim=st.integers(1, 4), degree=st.integers(0, 5))
    @settings(max_examples=24, deadline=None)
    def test_feature_count_formula(self, dim, degree):
        spec = BasisSpec.with_unit_scaling(dim, degree, 0)
        assert spec.size == math.comb(dim + degree, degree)
        assert basis_eval(spec, 0, np.zeros(dim)).shape == (spec.size,)

    def test_decreasing_scaling_rejected(self):
        with pytest.raises(ValueError):
            BasisSpec(1, 2, np.array([[1.0]]), np.array([[1.0]]))


class TestModelDerivatives:
    def test_square_function_encoding(self):
        # x^2 = (T0 + T2) / 2 under identity scaling
        spec = BasisSpec.with_unit_scaling(1, 2, 0)
        model = ValueModel.empty(spec, 0)
        model.set_coeffs(0, np.array([0.5, 0.0, 0.5]))
        x = np.array([3.0])
        assert model.eval(0, x) == pytest.approx(9.0, rel=1e-14)
        assert model.grad(0, x)[0] == pytest.approx(6.0, rel=1e-14)
        assert model.hessian(0, x)[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_constant_model_has_flat_derivatives(self):
        spec = BasisSpec.with_unit_scaling(3, 2, 0)
        model = ValueModel.empty(spec, 0)
        coeffs = np.zeros(spec.size)
        coeffs[0] = 4.2
        model.set_coeffs(0, coeffs)
        x = np.array([0.3, -0.7, 2.0])
        np.testing.assert_array_equal(model.grad(0, x), np.zeros(3))
        np.testing.assert_array_equal(model.hessian(0, x), np.zeros((3, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        spec = BasisSpec(
            2, 4, scale_lo=np.array([[-2.0, -3.0]]), scale_hi=np.array([[4.0, 1.0]])
        )
        model = ValueModel.empty(spec, 0)
        h = 1e-5
        for _ in range(25):
            model.set_coeffs(0, rng.normal(size=spec.size))
            x = rng.uniform(-2.5, 3.0, size=2)
            grad = model.grad(0, x)
            for c in range(2):
                ep = np.zeros(2)
                ep[c] = h
                fd = (model.eval(0, x + ep) - model.eval(0, x - ep)) / (2 * h)
                assert abs(grad[c] - fd) < 1e-6 * max(1.0, abs(fd))

    @given(
        dim=st.integers(1, 4),
        degree=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_operators_match_per_axis_chebder_reference(self, dim, degree, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-5.0, 5.0, size=(1, dim))
        hi = lo + rng.uniform(0.1, 10.0, size=(1, dim))
        spec = BasisSpec(dim, degree, lo, hi)
        coeffs = rng.normal(size=spec.size)
        model = ValueModel.empty(spec, 0)
        model.set_coeffs(0, coeffs)
        # points inside the box and up to one box width outside it
        width = hi - lo
        x = rng.uniform(lo - width, hi + width, size=(32, dim))

        # reference: d^k T_j(z_c) / dz_c^k from the 1-D chebder of e_j,
        # times plain T values on the other axes, chained with the slopes
        z, slope = spec.scaled(0, x)
        eye = np.eye(degree + 1)
        table = np.zeros((3, dim, len(x), spec.size))  # (order, axis, point, feature)
        for k in range(3):
            for c in range(dim):
                for b, j in enumerate(spec.indices[:, c]):
                    table[k, c, :, b] = chebval(z[:, c], chebder(eye[j], k))

        def partial(orders):
            feats = np.prod([table[orders[c], c] for c in range(dim)], axis=0)
            scale = np.prod([slope[c] ** orders[c] for c in range(dim)])
            return scale * feats @ coeffs

        grad_ref = np.stack([partial(np.eye(dim, dtype=int)[c]) for c in range(dim)], -1)
        hess_ref = np.empty((len(x), dim, dim))
        for c in range(dim):
            for e in range(dim):
                orders = np.zeros(dim, dtype=int)
                orders[c] += 1
                orders[e] += 1
                hess_ref[:, c, e] = partial(orders)

        for got, ref in ((model.grad(0, x), grad_ref), (model.hessian(0, x), hess_ref)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_unfitted_step_raises(self):
        spec = BasisSpec.with_unit_scaling(1, 1, 3)
        model = ValueModel.empty(spec, 3)
        with pytest.raises(NotFittedError):
            model.eval(2, np.zeros(1))


class TestLsmcFit:
    def test_recovers_in_span_targets(self):
        rng = np.random.default_rng(11)
        spec = BasisSpec.with_unit_scaling(2, 3, 0)
        alpha0 = rng.normal(size=spec.size)
        xs = rng.uniform(-1, 1, size=(100, 2))
        ys = basis_eval(spec, 0, xs) @ alpha0
        coeffs = lsmc_fit(xs, ys, spec, 0, ridge=0.0)
        resid = basis_eval(spec, 0, xs) @ coeffs - ys
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(ys)
        np.testing.assert_allclose(coeffs, alpha0, rtol=1e-9)

    def test_two_point_line(self):
        spec = BasisSpec.with_unit_scaling(1, 1, 0)
        coeffs = lsmc_fit(
            np.array([[0.0], [1.0]]), np.array([1.0, 3.0]), spec, 0, ridge=0.0
        )
        # phi(x) = 1 + 2x
        np.testing.assert_allclose(coeffs, [1.0, 2.0], atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(13)
        spec = BasisSpec.with_unit_scaling(1, 4, 0)
        xs = rng.uniform(-1, 1, size=(60, 1))
        ys = np.sin(3 * xs[:, 0]) + 0.1 * rng.normal(size=60)
        ridge = 1e-3
        coeffs = lsmc_fit(xs, ys, spec, 0, ridge=ridge)
        phi = basis_eval(spec, 0, xs)
        oracle = np.linalg.solve(phi.T @ phi + ridge * np.eye(spec.size), phi.T @ ys)
        np.testing.assert_allclose(coeffs, oracle, atol=1e-8)

    def test_rank_deficient_warns_and_returns_min_norm(self):
        spec = BasisSpec.with_unit_scaling(1, 2, 0)
        xs = np.zeros((5, 1))
        ys = np.full(5, 2.0)
        with pytest.warns(RankDeficientWarning):
            coeffs = lsmc_fit(xs, ys, spec, 0, ridge=0.0)
        assert basis_eval(spec, 0, np.zeros(1)) @ coeffs == pytest.approx(2.0)

    def test_negative_ridge_rejected(self):
        spec = BasisSpec.with_unit_scaling(1, 1, 0)
        with pytest.raises(ValueError):
            lsmc_fit(np.zeros((2, 1)), np.zeros(2), spec, 0, ridge=-1.0)


class TestScaling:
    def test_equivariance_of_represented_function(self):
        # refitting under a different box reproduces the same polynomial
        rng = np.random.default_rng(17)
        xs = rng.uniform(-2, 5, size=(80, 1))
        ys = 2.0 + xs[:, 0] - 0.3 * xs[:, 0] ** 3
        spec_a = BasisSpec(1, 3, np.array([[-2.0]]), np.array([[5.0]]))
        spec_b = BasisSpec(1, 3, np.array([[-10.0]]), np.array([[10.0]]))
        ca = lsmc_fit(xs, ys, spec_a, 0, ridge=0.0)
        cb = lsmc_fit(xs, ys, spec_b, 0, ridge=0.0)
        probe = rng.uniform(-2, 5, size=(40, 1))
        va = basis_eval(spec_a, 0, probe) @ ca
        vb = basis_eval(spec_b, 0, probe) @ cb
        np.testing.assert_allclose(va, vb, rtol=1e-9, atol=1e-9)

    def test_boxes_track_batch_with_unit_floor(self):
        from conftest import make_scalar_lqr
        from fbsde_lsmc import DriftProcess, discretize, riccati_from_lqr

        cp = make_scalar_lqr()
        dp = discretize(cp, 6)
        truth = riccati_from_lqr(cp.lqr, cp.horizon, 6)
        mu = truth.policy(dp.control_lower, dp.control_upper)
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 64, seed=5)
        spec = scaling_from_batch(batch, 2)
        mean = batch.x.mean(axis=0)
        std = batch.x.std(axis=0)
        half = np.maximum(3 * std, 1.0)
        np.testing.assert_allclose(spec.scale_lo, mean - half)
        np.testing.assert_allclose(spec.scale_hi, mean + half)


class TestFitFunction:
    def test_exact_for_quadratics(self):
        spec = BasisSpec(
            2, 2, scale_lo=np.array([[-3.0, -2.0]]), scale_hi=np.array([[1.0, 4.0]])
        )
        p = np.array([[2.0, 0.5], [0.5, 1.0]])

        def quad(pts):
            return np.einsum("...i,ij,...j->...", pts, p, pts) + 3.0

        coeffs = fit_function(spec, 0, quad)
        rng = np.random.default_rng(23)
        probe = rng.uniform(-3, 4, size=(50, 2))
        np.testing.assert_allclose(
            basis_eval(spec, 0, probe) @ coeffs, quad(probe), rtol=1e-11, atol=1e-11
        )


class TestJsonDump:
    def test_schema(self, tmp_path):
        spec = BasisSpec.with_unit_scaling(1, 2, 1)
        model = ValueModel.empty(spec, 1)
        model.set_coeffs(1, np.array([1.0, 2.0, 3.0]))
        data = model_to_json(model)
        assert data["basis_size"] == 3
        assert data["steps"][0]["step"] == 1
        assert data["steps"][0]["degree"] == 2
        assert data["steps"][0]["coeffs"] == [1.0, 2.0, 3.0]
        assert data["steps"][0]["scaling"]["lo"] == [-1.0]
        path = tmp_path / "model.json"
        from fbsde_lsmc.value_model import save_model_json

        save_model_json(model, path)
        assert json.loads(path.read_text())["steps"][0]["coeffs"] == [1.0, 2.0, 3.0]
