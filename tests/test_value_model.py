"""Chebyshev bases, derivative operators, and least-squares fitting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebder, chebval

from fbsde_lsmc import (
    BasisSpec,
    ValueModel,
    basis_eval,
    lsmc_fit,
    sample_forward,
    scaling_from_batch,
)
from fbsde_lsmc.errors import NotFittedError, RankDeficientWarning
from fbsde_lsmc.value_model import _step_box

from conftest import fit_function, reference_basis_eval, unit_basis


class TestBasisEval:
    def test_univariate_degree_two(self):
        spec = unit_basis(1, 2, 0)
        np.testing.assert_allclose(
            basis_eval(spec, 0, np.array([0.5])), [1.0, 0.5, -0.5], rtol=1e-15
        )

    def test_four_dim_degree_two_has_15_features(self):
        spec = unit_basis(4, 2, 0)
        assert spec.size == 15
        assert basis_eval(spec, 0, np.zeros(4)).shape == (15,)

    def test_bivariate_degree_one_at_origin(self):
        spec = unit_basis(2, 1, 0)
        np.testing.assert_array_equal(basis_eval(spec, 0, np.zeros(2)), [1.0, 0.0, 0.0])

    def test_extrapolates_outside_unit_box(self):
        spec = unit_basis(1, 3, 0)
        feats = basis_eval(spec, 0, np.array([2.0]))
        assert np.all(np.isfinite(feats))
        # T_2(2) = 7, T_3(2) = 26
        np.testing.assert_allclose(feats, [1.0, 2.0, 7.0, 26.0], rtol=1e-14)

    @given(dim=st.integers(1, 4), degree=st.integers(0, 5))
    @settings(max_examples=24, deadline=None)
    def test_feature_count_formula(self, dim, degree):
        spec = unit_basis(dim, degree, 0)
        assert spec.size == math.comb(dim + degree, degree)
        assert basis_eval(spec, 0, np.zeros(dim)).shape == (spec.size,)

    def test_decreasing_scaling_rejected(self):
        with pytest.raises(ValueError):
            BasisSpec(1, 2, np.array([[1.0]]), np.array([[1.0]]))

    def test_wrong_state_width_rejected(self):
        # a (5, 1) state would broadcast onto all four coordinates
        spec = unit_basis(4, 2, 0)
        for x in (np.zeros((5, 1)), np.zeros((5, 5)), np.zeros(3), np.float64(0.0)):
            with pytest.raises(ValueError, match="4 coordinates"):
                basis_eval(spec, 0, x)

    def test_step_outside_the_scaled_steps_rejected(self):
        # step -1 would silently read the last step's box
        spec = unit_basis(2, 2, 3)
        for i in (-1, 4):
            with pytest.raises(ValueError, match="outside the 4 scaled steps"):
                basis_eval(spec, i, np.zeros(2))
        assert basis_eval(spec, 3, np.zeros(2)).shape == (spec.size,)


def _assert_same_array(got, ref):
    assert got.shape == ref.shape
    assert got.strides == ref.strides
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestRecursiveProduct:
    """``basis_eval`` against ``reference_basis_eval``, the product over coordinates."""

    @given(
        dim=st.integers(1, 4),
        degree=st.integers(0, 6),
        lead=st.sampled_from(["scalar", "one", "rows", "grid"]),
        seed=st.integers(0, 2**32 - 1),
        far=st.booleans(),
        bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bits_and_strides_match_the_reference(self, dim, degree, lead, seed, far, bad):
        rng = np.random.default_rng(seed)
        shape = {
            "scalar": (),
            "one": (1,),
            "rows": (int(rng.integers(1, 40)),),
            "grid": tuple(int(n) for n in rng.integers(1, 5, size=2)),
        }[lead]
        lo = rng.uniform(-5.0, 5.0, size=(3, dim))
        hi = lo + rng.uniform(0.1, 10.0, size=(3, dim))
        if rng.random() < 0.5:
            # symmetric boxes send x = 0 to z = 0 exactly, where T_3(0) = -0.0
            hi = 0.5 * (hi - lo)
            lo = -hi
        spec = BasisSpec(dim, degree, lo, hi)
        i = int(rng.integers(0, 3))
        # inside the box, or up to a thousand box widths outside it
        width = (hi[i] - lo[i]) * (1e3 if far else 1.0)
        x = 0.5 * (lo[i] + hi[i]) + width * rng.uniform(-1.0, 1.0, size=shape + (dim,))
        x[rng.random(x.shape) < 0.2] = 0.0
        if bad is not None:
            x.reshape(-1)[rng.integers(x.size)] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_same_array(basis_eval(spec, i, x), reference_basis_eval(spec, i, x))

    def test_cartpole_sized_fit_and_queries_are_bit_equal(self):
        # 1,024 states of a degree-4 basis on 4 coordinates: B = 70
        rng = np.random.default_rng(29)
        lo = np.array([[-3.0, -2.0, -1.5, -4.0]])
        spec = BasisSpec(4, 4, lo, lo + np.array([[6.0, 5.0, 2.5, 7.0]]))
        xs = lo + rng.uniform(-0.2, 1.2, size=(1024, 4)) * (spec.scale_hi - lo)
        ys = np.sin(xs).sum(axis=1) + 0.1 * rng.normal(size=1024)
        phi, ref = basis_eval(spec, 0, xs), reference_basis_eval(spec, 0, xs)
        _assert_same_array(phi, ref)
        assert phi.shape == (1024, 70)
        coeffs = lsmc_fit(xs, ys, spec, 0)
        _assert_same_array(coeffs, lsmc_fit(xs, ys, spec, 0, phi=ref))
        # a full-rank design: the fit is the minimum-norm least-squares solution
        _assert_same_array(coeffs, np.linalg.lstsq(phi, ys, rcond=None)[0])
        model = ValueModel.empty(spec, 0)
        model.set_coeffs(0, coeffs)
        for order in range(3):
            _assert_same_array(model.from_features(0, phi, order), model.from_features(0, ref, order))


class TestModelDerivatives:
    def test_square_function_encoding(self):
        # x^2 = (T0 + T2) / 2 under identity scaling
        spec = unit_basis(1, 2, 0)
        model = ValueModel.empty(spec, 0)
        model.set_coeffs(0, np.array([0.5, 0.0, 0.5]))
        x = np.array([3.0])
        assert model.eval(0, x) == pytest.approx(9.0, rel=1e-14)
        assert model.grad(0, x)[0] == pytest.approx(6.0, rel=1e-14)
        assert model.hessian(0, x)[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_constant_model_has_flat_derivatives(self):
        spec = unit_basis(3, 2, 0)
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
        z, slope = spec.scaled(0, x), 2.0 / (hi[0] - lo[0])
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
        spec = unit_basis(1, 1, 3)
        model = ValueModel.empty(spec, 3)
        with pytest.raises(NotFittedError):
            model.eval(2, np.zeros(1))

    @pytest.mark.parametrize("order", [-1, 3, 1.5, None])
    def test_from_features_rejects_an_order_other_than_0_1_2(self, order):
        spec = unit_basis(2, 2, 0)
        model = ValueModel.empty(spec, 0)
        model.set_coeffs(0, np.ones(spec.size))
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            model.from_features(0, basis_eval(spec, 0, np.zeros(2)), order)

    def test_set_coeffs_rejects_a_step_outside_the_model(self):
        model = ValueModel.empty(unit_basis(1, 1, 2), 2)
        for step in (-1, 3):
            with pytest.raises(ValueError, match=rf"step {step} is outside the model's steps 0\.\.2"):
                model.set_coeffs(step, np.zeros(2))
        assert not model.fitted.any()


class TestLsmcFit:
    def test_recovers_in_span_targets(self):
        rng = np.random.default_rng(11)
        spec = unit_basis(2, 3, 0)
        alpha0 = rng.normal(size=spec.size)
        xs = rng.uniform(-1, 1, size=(100, 2))
        ys = basis_eval(spec, 0, xs) @ alpha0
        coeffs = lsmc_fit(xs, ys, spec, 0)
        resid = basis_eval(spec, 0, xs) @ coeffs - ys
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(ys)
        np.testing.assert_allclose(coeffs, alpha0, rtol=1e-9)

    def test_two_point_line(self):
        spec = unit_basis(1, 1, 0)
        coeffs = lsmc_fit(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]), spec, 0)
        # phi(x) = 1 + 2x
        np.testing.assert_allclose(coeffs, [1.0, 2.0], atol=1e-12)

    def test_rank_deficient_warns_and_returns_min_norm(self):
        spec = unit_basis(1, 2, 0)
        xs = np.zeros((5, 1))
        ys = np.full(5, 2.0)
        with pytest.warns(RankDeficientWarning, match="rank 1 < 3"):
            coeffs = lsmc_fit(xs, ys, spec, 0)
        assert basis_eval(spec, 0, np.zeros(1)) @ coeffs == pytest.approx(2.0)
        phi = basis_eval(spec, 0, xs)
        _assert_same_array(coeffs, np.linalg.lstsq(phi, ys, rcond=None)[0])

    @pytest.mark.parametrize("rows", [8, 14, 15, 40])
    def test_fewer_rows_than_basis_functions_warns_at_any_ridge(self, rows):
        # degree 4 on 2 coordinates: B = 15; with 15 or more random rows the
        # design has full rank, so only the short designs warn
        spec = unit_basis(2, 4, 3)
        rng = np.random.default_rng(rows)
        xs = rng.uniform(-1, 1, size=(rows, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lsmc_fit(xs, xs.sum(axis=1), spec, 3)
        messages = [str(w.message) for w in caught if w.category is RankDeficientWarning]
        if rows < spec.size:
            assert messages == [
                f"design matrix at step 3 has {rows} rows for 15 basis functions; "
                "the fit is underdetermined"
            ]
        else:
            assert messages == []


class TestScaling:
    def test_equivariance_of_represented_function(self):
        # refitting under a different box reproduces the same polynomial
        rng = np.random.default_rng(17)
        xs = rng.uniform(-2, 5, size=(80, 1))
        ys = 2.0 + xs[:, 0] - 0.3 * xs[:, 0] ** 3
        spec_a = BasisSpec(1, 3, np.array([[-2.0]]), np.array([[5.0]]))
        spec_b = BasisSpec(1, 3, np.array([[-10.0]]), np.array([[10.0]]))
        ca = lsmc_fit(xs, ys, spec_a, 0)
        cb = lsmc_fit(xs, ys, spec_b, 0)
        probe = rng.uniform(-2, 5, size=(40, 1))
        va = basis_eval(spec_a, 0, probe) @ ca
        vb = basis_eval(spec_b, 0, probe) @ cb
        np.testing.assert_allclose(va, vb, rtol=1e-9, atol=1e-9)

    def test_boxes_track_batch_with_unit_floor(self):
        from conftest import make_scalar_lqr
        from fbsde_lsmc import DriftProcess, discretize, riccati_from_lqr

        cp = make_scalar_lqr()
        dp = discretize(cp, 6)
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
        batch = sample_forward(dp, mu, DriftProcess.on_policy(mu), 64, seed=5)
        spec = scaling_from_batch(batch, 2)
        mean = batch.x.mean(axis=0)
        std = batch.x.std(axis=0)
        half = np.maximum(3 * std, 1.0)
        np.testing.assert_allclose(spec.scale_lo, mean - half)
        np.testing.assert_allclose(spec.scale_hi, mean + half)


class TestStepBox:
    """The boxes are reduced in blocks of about 512 KB of whole rows, each
    carrying the running sum in as its first row.

    The examples keep the shapes whose last column chunk was one column wide
    when the reduction went by column chunks (4,096 paths with n = 1 and 17
    or 65 columns, 5,000 with n = 1 and 66, 2,000 with n = 2 and 49, 5,000
    with n = 4 and 70).  They add one path, rows one element wide (which numpy
    sums pairwise, so they take one whole-array reduction), one column with
    n = 3, and a last block of one row (1,025 rows of 512 B against
    1,024-row blocks).
    """

    @given(
        n_samples=st.integers(1, 5000),
        n_cols=st.integers(1, 70),
        dim=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @example(n_samples=4096, n_cols=17, dim=1, seed=0)
    @example(n_samples=4096, n_cols=65, dim=1, seed=1)
    @example(n_samples=5000, n_cols=66, dim=1, seed=2)
    @example(n_samples=2000, n_cols=49, dim=2, seed=3)
    @example(n_samples=5000, n_cols=70, dim=4, seed=4)
    @example(n_samples=1, n_cols=30, dim=2, seed=5)
    @example(n_samples=1, n_cols=1, dim=1, seed=6)
    @example(n_samples=4096, n_cols=1, dim=1, seed=7)
    @example(n_samples=5000, n_cols=1, dim=3, seed=8)
    @example(n_samples=1025, n_cols=64, dim=1, seed=9)
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_whole_array_reductions(self, n_samples, n_cols, dim, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5) + rng.uniform(0.01, 10) * rng.standard_normal(
            (n_samples, n_cols, dim)
        )
        lo, hi = _step_box(x)
        mean = x.mean(axis=0)
        half = np.maximum(3.0 * x.std(axis=0), 1.0)
        assert lo.tobytes() == (mean - half).tobytes()
        assert hi.tobytes() == (mean + half).tobytes()


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

