"""Ground-truth oracles: gridded dynamic programming and Riccati recursion."""

import csv
import dataclasses
import io
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from fbsde_lsmc import (
    ContinuousProblem,
    GridSpec,
    discretize,
    grid_bellman,
    oracles,
    riccati_from_lqr,
)
from fbsde_lsmc.errors import GridEscapeWarning, OutOfDomainError, SingularRecursionError
from fbsde_lsmc.oracles import export_grid_csv, export_riccati_json
from fbsde_lsmc.problems import DiscreteProblem, LqrStructure

from conftest import driftless_lqr, make_scalar_lqr, reference_grid_bellman


def _unit_step_riccati(a_d, b_d, q, r, g_mat, sigma_d, n_steps):
    """Riccati truth for a problem holding these discrete-time matrices.

    The recursion reads only ``lqr``, ``n_steps`` and the control box, so the
    problem's callables are left out.
    """
    n, m = b_d.shape
    dp = DiscreteProblem(
        n_steps=n_steps, dt=1.0, dim_x=n, dim_u=m, F=None, Sigma=None, L=None, g=None,
        control_lower=np.full(m, -np.inf), control_upper=np.full(m, np.inf), x0=np.zeros(n),
        lqr=LqrStructure(a=a_d, b=b_d, q=q, r=r, g_mat=g_mat, sigma_mat=sigma_d),
    )
    return riccati_from_lqr(dp)


class TestRiccati:
    def test_scalar_one_step_hand_values(self):
        out = _unit_step_riccati(
            a_d=np.array([[1.0]]),
            b_d=np.array([[1.0]]),
            q=np.array([[0.0]]),
            r=np.array([[1.0]]),
            g_mat=np.array([[1.0]]),
            sigma_d=np.array([[1.0]]),
            n_steps=1,
        )
        assert out.gain[0, 0, 0] == pytest.approx(0.5)
        assert out.p[0, 0, 0] == pytest.approx(0.5)
        assert out.c[0] == pytest.approx(1.0)
        assert out.c[1] == 0.0

    def test_pure_propagation_without_control_or_noise(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        g = rng.normal(size=(3, 3))
        g = g @ g.T
        out = _unit_step_riccati(
            a_d=a,
            b_d=np.zeros((3, 1)),
            q=np.zeros((3, 3)),
            r=np.eye(1),
            g_mat=g,
            sigma_d=np.zeros((3, 3)),
            n_steps=4,
        )
        expect = g.copy()
        for _ in range(4):
            expect = a.T @ expect @ a
        np.testing.assert_allclose(out.p[0], expect, rtol=1e-12)
        assert np.all(out.c == 0.0)

    def test_cartpole_value_matrices_are_psd(self):
        from fbsde_lsmc import build_cartpole_lqr

        cp = build_cartpole_lqr()
        truth = riccati_from_lqr(discretize(cp, 100))
        for i in range(0, 101, 10):
            eigs = np.linalg.eigvalsh(truth.p[i])
            assert np.min(eigs) > -1e-12

    def test_noise_constant_nonincreasing_in_step(self):
        cp = make_scalar_lqr()
        truth = riccati_from_lqr(discretize(cp, 30))
        assert np.all(np.diff(truth.c) <= 1e-15)
        assert truth.c[-1] == 0.0

    def test_singular_curvature_raises(self):
        with pytest.raises(SingularRecursionError):
            _unit_step_riccati(
                a_d=np.eye(1),
                b_d=np.zeros((1, 1)),
                q=np.eye(1),
                r=np.zeros((1, 1)),
                g_mat=np.eye(1),
                sigma_d=np.eye(1),
                n_steps=1,
            )


def _uncontrolled_problem(g_fn, sigma=0.5, horizon=0.5):
    return ContinuousProblem(
        dim_x=1,
        dim_u=1,
        horizon=horizon,
        f=lambda t, x, u: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=lambda t, x: sigma * np.broadcast_to(np.eye(1), np.shape(x)[:-1] + (1, 1)),
        ell=lambda t, x, u: np.zeros(np.shape(x)[:-1]),
        g=g_fn,
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
        x0=np.zeros(1),
    )


class TestGridBellman:
    def test_linear_terminal_is_preserved_in_expectation(self):
        cp = _uncontrolled_problem(lambda x: np.asarray(x, dtype=float)[..., 0], sigma=0.01)
        dp = discretize(cp, 5)
        grid = GridSpec(lo=np.array([-2.0]), hi=np.array([2.0]), n_state_nodes=401,
                        n_control_nodes=3, n_quad_nodes=11)
        truth = grid_bellman(dp, grid)
        probe = np.linspace(-1, 1, 11)[:, None]
        for i in range(6):
            np.testing.assert_allclose(truth.value(i, probe), probe[:, 0], atol=1e-6)

    def test_square_terminal_gains_one_step_variance(self):
        # closed form: V_{N-1}(x) = x^2 + Sigma_d^2
        cp = _uncontrolled_problem(lambda x: np.asarray(x, dtype=float)[..., 0] ** 2, sigma=0.5)
        dp = discretize(cp, 5)
        sig_d2 = 0.5**2 * dp.dt
        grid = GridSpec(lo=np.array([-3.0]), hi=np.array([3.0]), n_state_nodes=2001,
                        n_control_nodes=3, n_quad_nodes=15)
        truth = grid_bellman(dp, grid)
        probe = np.linspace(-1, 1, 9)[:, None]
        np.testing.assert_allclose(
            truth.value(4, probe), probe[:, 0] ** 2 + sig_d2, atol=1e-5
        )

    def test_agrees_with_riccati_on_scalar_lqr(self):
        cp = make_scalar_lqr(u_max=20.0)
        n_steps = 10
        dp = discretize(cp, n_steps)
        truth_r = riccati_from_lqr(dp)
        grid = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]), n_state_nodes=2001,
                        n_control_nodes=201, n_quad_nodes=21)
        truth_g = grid_bellman(dp, grid)
        probe = np.linspace(-2, 2, 81)[:, None]
        for i in range(n_steps + 1):
            diff = np.abs(truth_g.value(i, probe) - truth_r.value(i, probe))
            assert diff.max() < 1e-3

    def test_quadrature_and_grid_convergence(self):
        cp = make_scalar_lqr(u_max=20.0)
        dp = discretize(cp, 6)
        probe = np.linspace(-1.5, 1.5, 41)[:, None]

        def values(nodes, quad):
            grid = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]), n_state_nodes=nodes,
                            n_control_nodes=101, n_quad_nodes=quad)
            truth = grid_bellman(dp, grid)
            return truth.value(0, probe)

        base = values(2001, 21)
        np.testing.assert_allclose(values(2001, 42), base, atol=1e-6)
        np.testing.assert_allclose(values(4001, 21), base, atol=1e-4)

    @pytest.mark.parametrize(
        "dim_x, dim_u", [(2, 1), (3, 1), (1, 2)], ids=["dim_x=2", "dim_x=3", "dim_u=2"]
    )
    def test_unsupported_dimensions_rejected(self, dim_x, dim_u):
        lqr = driftless_lqr(np.eye(dim_x), dim_u)
        cp = ContinuousProblem.from_lqr(lqr, 1.0, np.zeros(dim_x), -np.ones(dim_u), np.ones(dim_u))
        dp = discretize(cp, 2)
        with pytest.raises(ValueError, match="one state and one control"):
            grid_bellman(dp, GridSpec(lo=-np.ones(dim_x), hi=np.ones(dim_x)))

    def test_escape_counter_warns_on_tight_grid(self):
        cp = _uncontrolled_problem(lambda x: np.asarray(x, dtype=float)[..., 0] ** 2, sigma=2.0)
        dp = discretize(cp, 3)
        grid = GridSpec(lo=np.array([-0.5]), hi=np.array([0.5]), n_state_nodes=51,
                        n_control_nodes=3, n_quad_nodes=11)
        with pytest.warns(GridEscapeWarning):
            truth = grid_bellman(dp, grid)
        assert truth.escape_count > 0

    @pytest.mark.parametrize("budget", [1, 4 * 5 * 7])
    def test_tables_do_not_depend_on_the_chunk_budget(self, budget, monkeypatch):
        # budgets giving 1-row blocks and blocks that do not divide the state
        # count (main pass and one-control refinement), against one block for
        # all; the diffusion depends on the state, so each block needs its rows
        cp = dataclasses.replace(
            make_scalar_lqr(u_max=2.0), sigma=lambda t, x: 0.5 + 0.3 * np.abs(x)[..., None]
        )
        dp = discretize(cp, 4)
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]), n_state_nodes=37,
                        n_control_nodes=5, n_quad_nodes=7)
        tables = []
        for b in (budget, 10**9):
            monkeypatch.setattr(oracles, "_BUDGET", b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GridEscapeWarning)
                tables.append(grid_bellman(dp, grid))
        truth, ref = tables
        assert ref.escape_count > 0
        np.testing.assert_array_equal(truth.values, ref.values)
        np.testing.assert_array_equal(truth.u_star, ref.u_star)
        assert truth.escape_count == ref.escape_count

    def test_shipped_grid_step_memory_is_bounded(self):
        # 2001 x 201 x 21 points per step: a whole-step pass holds several
        # 67 MB temporaries at once; row blocks need the tables plus a few
        # 512 KB chunk temporaries
        dp = discretize(make_scalar_lqr(u_max=20.0), 2)
        grid = GridSpec(lo=np.array([-4.0]), hi=np.array([4.0]))
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GridEscapeWarning)
                truth = grid_bellman(dp, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert truth.values.shape == (3, 2001)
        assert peak < 64 * 2**20


def _hand_built_problem(kind, n_steps, coef, sigma):
    """Scalar ``DiscreteProblem`` whose drift or noise varies as ``kind`` says.

    ``invariant``: nothing depends on the step; ``sign_flip``: the drift
    changes sign at mid-horizon; ``drift_t``: the drift grows with the step;
    ``sigma_t``: the noise grows with the step; ``sigma_x``: the noise depends
    on the state only.
    """

    def F(i, x, u):
        drift = coef * (x - 0.3) ** 2 + 0.5 * u
        if kind == "sign_flip" and i >= n_steps // 2:
            return -drift
        if kind == "drift_t":
            return drift * (1.0 + 0.25 * i)
        return drift

    def Sigma(i, x):
        base = np.full(np.shape(x)[:-1] + (1, 1), sigma)
        if kind == "sigma_t":
            return base * (1.0 + 0.25 * i)
        if kind == "sigma_x":
            return base * (1.0 + 0.5 * np.abs(x)[..., None])
        return base

    return DiscreteProblem(
        n_steps=n_steps,
        dt=1.0 / n_steps,
        dim_x=1,
        dim_u=1,
        F=F,
        Sigma=Sigma,
        L=lambda i, x, u: np.abs(x[..., 0] - 0.2) + 0.4 * u[..., 0] ** 2,
        g=lambda x: np.asarray(x, dtype=float)[..., 0] ** 2,
        control_lower=np.array([-1.0]),
        control_upper=np.array([1.0]),
        x0=np.zeros(1),
    )


class TestStepReuse:
    """Cells and fractions reused across steps leave every table bit unchanged."""

    @given(
        kind=st.sampled_from(["invariant", "sign_flip", "sigma_t", "sigma_x"]),
        kept=st.sampled_from(["none", "one block", "unbounded"]),
        budget=st.sampled_from([1, oracles._BUDGET]),
        n_steps=st.integers(1, 6),
        n_states=st.integers(2, 30),
        n_controls=st.integers(1, 7),
        n_quad=st.integers(1, 7),
        coef=st.floats(-2.0, 2.0),
        sigma=st.floats(0.05, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_match_the_per_step_reference(
        self, kind, kept, budget, n_steps, n_states, n_controls, n_quad, coef, sigma
    ):
        dp = _hand_built_problem(kind, n_steps, coef, sigma)
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.5]), n_state_nodes=n_states,
                        n_control_nodes=n_controls, n_quad_nodes=n_quad)
        rows = max(1, budget // (n_controls * n_quad))
        block_bytes = rows * n_controls * n_quad * (np.dtype(np.intp).itemsize + 8)
        cache_bytes = {"none": 0, "one block": block_bytes, "unbounded": 2**62}[kept]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridEscapeWarning)
            ref = reference_grid_bellman(dp, grid)
            with mock.patch.object(oracles, "_BUDGET", budget), \
                    mock.patch.object(oracles, "_CACHE_BYTES", cache_bytes):
                truth = grid_bellman(dp, grid)
        np.testing.assert_array_equal(truth.values, ref.values)
        np.testing.assert_array_equal(truth.u_star, ref.u_star)
        assert truth.escape_count == ref.escape_count

    @pytest.mark.parametrize("kind, builds", [("invariant", 1), ("drift_t", 6)])
    def test_cells_are_built_once_unless_the_drift_changes(self, kind, builds, monkeypatch):
        # one row block per pass; the refinement pass (one control column)
        # builds its own cells at every step and is not counted
        dp = _hand_built_problem(kind, 6, 0.7, 0.4)
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.5]), n_state_nodes=41,
                        n_control_nodes=5, n_quad_nodes=7)
        shapes = []
        cells = oracles._cells

        def counted(nodes, x):
            shapes.append(x.shape)
            return cells(nodes, x)

        monkeypatch.setattr(oracles, "_cells", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridEscapeWarning)
            grid_bellman(dp, grid)
        assert sum(shape[1] == 5 for shape in shapes) == builds
        assert sum(shape[1] == 1 for shape in shapes) == 6


class TestInterp:
    @given(n_nodes=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_uniform_path_matches_regular_grid_interpolator(self, n_nodes, seed):
        rng = np.random.default_rng(seed)
        # both methods round the position to about eps |x| / spacing cells,
        # so the axes keep that small against the 1e-12 tolerance
        lo = rng.uniform(-2.0, 2.0)
        span = rng.uniform(1.0, 20.0)
        nodes = np.linspace(lo, lo + span, n_nodes)
        columns = rng.normal(scale=rng.uniform(0.1, 100.0), size=(n_nodes, 3))
        # points inside the axis and up to one grid margin beyond both edges
        margin = oracles._MARGIN_FRACTION * span
        x = rng.uniform(lo - margin, lo + span + margin, size=(40, 1))
        x[:2, 0] = lo - margin, lo + span + margin
        # a strided column view and a plain table
        for table in (columns[:, 1], np.ascontiguousarray(columns[:, 1])):
            ref = RegularGridInterpolator(
                (nodes,), table, method="linear", bounds_error=False, fill_value=None
            )
            tol = 1e-12 * np.max(np.abs(table))
            got = oracles._interp(nodes, table, x)
            assert got.shape == (40,)
            assert np.max(np.abs(got - ref(x))) <= tol
            one = oracles._interp(nodes, table, x[0])
            assert np.shape(one) == ()
            assert abs(one - ref(x[:1])[0]) <= tol


class TestGtEval:
    def test_riccati_origin_gives_noise_constant(self):
        cp = make_scalar_lqr()
        truth = riccati_from_lqr(discretize(cp, 10))
        assert truth.value(3, np.zeros(1)) == pytest.approx(truth.c[3])

    def test_grid_node_and_midpoint_queries(self):
        cp = _uncontrolled_problem(lambda x: np.abs(np.asarray(x, dtype=float)[..., 0]))
        dp = discretize(cp, 2)
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]), n_state_nodes=11,
                        n_control_nodes=3, n_quad_nodes=7)
        truth = grid_bellman(dp, grid)
        nodes = truth.nodes
        # node query returns the table entry (up to one ulp from the index
        # division)
        k = 3
        assert truth.value(2, np.array([nodes[k]])) == pytest.approx(
            truth.values[2, k], rel=1e-13
        )
        # midpoint query averages the neighbors
        mid = 0.5 * (nodes[4] + nodes[5])
        expect = 0.5 * (truth.values[2, 4] + truth.values[2, 5])
        assert truth.value(2, np.array([mid])) == pytest.approx(expect, rel=1e-12)

    def test_a_step_outside_the_tables_is_rejected_not_wrapped(self):
        cp = make_scalar_lqr()
        riccati = riccati_from_lqr(discretize(cp, 2))
        dp = discretize(_uncontrolled_problem(lambda x: np.asarray(x, dtype=float)[..., 0] ** 2), 2)
        grid = grid_bellman(dp, GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]),
                                         n_state_nodes=11, n_control_nodes=3, n_quad_nodes=7))
        x = np.zeros(1)
        queries = [(riccati.value, -1, 3), (riccati.value, 3, 3), (grid.value, -1, 3),
                   (grid.value, 3, 3), (grid.control, -1, 2), (grid.control, 2, 2)]
        for query, step, end in queries:
            with pytest.raises(ValueError, match=rf"step {step} out of range \[0, {end}\)"):
                query(step, x)
        for query, _, end in queries:
            query(0, x)
            query(end - 1, x)

    def test_grid_policy_clips_the_margin_extrapolation_to_the_control_box(self):
        # the edge cells' slopes carry the tabulated controls out of [-1, 1]
        # in the extrapolation margin; the policy's controls stay admissible
        truth = oracles.GridTruth(
            nodes=np.array([0.0, 1.0, 2.0]),
            values=np.zeros((2, 3)),
            u_star=np.array([[-0.9, 0.0, 0.9]]),
            lo=np.array([0.0]),
            hi=np.array([2.0]),
            margin=np.array([1.0]),
            control_lower=np.array([-1.0]),
            control_upper=np.array([1.0]),
        )
        policy = oracles.GridPolicy(truth)
        x = np.array([[-0.5], [0.5], [1.5], [2.5]])
        raw = truth.control(0, x)
        assert raw.min() < -1.0 and raw.max() > 1.0
        u = policy(0, x)
        assert u.shape == raw.shape == (4, 1)
        assert np.all((u >= -1.0) & (u <= 1.0))
        np.testing.assert_array_equal(u, np.clip(raw, -1.0, 1.0))

    def test_far_outside_grid_rejected(self):
        cp = _uncontrolled_problem(lambda x: np.asarray(x, dtype=float)[..., 0] ** 2)
        dp = discretize(cp, 2)
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]), n_state_nodes=11,
                        n_control_nodes=3, n_quad_nodes=7)
        truth = grid_bellman(dp, grid)
        with pytest.raises(OutOfDomainError):
            truth.value(0, np.array([5.0]))


class TestExports:
    def test_grid_csv_columns(self, tmp_path):
        cp = _uncontrolled_problem(lambda x: np.asarray(x, dtype=float)[..., 0] ** 2)
        dp = discretize(cp, 2)
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]), n_state_nodes=5,
                        n_control_nodes=3, n_quad_nodes=7)
        truth = grid_bellman(dp, grid)
        path = tmp_path / "grid.csv"
        export_grid_csv(truth, path)
        header = path.read_text().splitlines()[0]
        assert header == "step,x_0,value,u_star_0"

    def test_grid_csv_bytes_match_a_per_row_writer(self, tmp_path):
        # reference: one writerow per node, the terminal step's control nan
        cp = make_scalar_lqr(u_max=2.0)
        dp = discretize(cp, 3)
        grid = GridSpec(lo=np.array([-1.0]), hi=np.array([1.0]), n_state_nodes=7,
                        n_control_nodes=5, n_quad_nodes=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridEscapeWarning)
            truth = grid_bellman(dp, grid)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step", "x_0", "value", "u_star_0"])
        for i in range(truth.n_steps + 1):
            uflat = truth.u_star[i] if i < truth.n_steps else np.full(len(truth.nodes), np.nan)
            for row, x in enumerate(truth.nodes):
                writer.writerow(
                    [i, repr(float(x)), repr(float(truth.values[i, row])), repr(float(uflat[row]))]
                )
        path = tmp_path / "grid.csv"
        export_grid_csv(truth, path)
        written = path.read_bytes()
        assert written == buf.getvalue().encode()
        lines = written.decode().splitlines()
        assert len(lines) == 1 + 4 * 7
        assert lines[-1] == "3,1.0," + repr(float(truth.values[3, -1])) + ",nan"

    def test_riccati_json_round_trip(self, tmp_path):
        cp = make_scalar_lqr()
        truth = riccati_from_lqr(discretize(cp, 4))
        path = tmp_path / "riccati.json"
        export_riccati_json(truth, path)
        data = json.loads(path.read_text())
        assert len(data["steps"]) == 5
        np.testing.assert_allclose(data["steps"][0]["p"], truth.p[0].ravel())
        assert "gain" not in data["steps"][4]
