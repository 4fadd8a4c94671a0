"""Configuration parsing, experiment sweeps, heatmaps, and the CLI surface."""

import csv
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fbsde_lsmc import backward as backward_module
from fbsde_lsmc import cli as cli_module
from fbsde_lsmc import config
from fbsde_lsmc import experiments as experiments_module
from fbsde_lsmc import sampling as sampling_module
from fbsde_lsmc.backward import backward_sweep
from fbsde_lsmc.cli import main
from fbsde_lsmc.config import load_config, parse_config_text
from fbsde_lsmc.errors import (
    ConfigError,
    GridEscapeWarning,
    OutOfDomainError,
    RankDeficientWarning,
    SchemaError,
)
from fbsde_lsmc.estimators import EstimatorKind
from fbsde_lsmc.experiments import build_setup, emit_heatmap, run_experiment, subseed
from fbsde_lsmc.metrics import bias_bound_check, report_to_csv, shared_rae
from fbsde_lsmc.problems import FeedbackPolicy
from fbsde_lsmc.sampling import DriftProcess, sample_forward
from fbsde_lsmc.value_model import scaling_from_batch

TINY_LQR = """
problem.name = cartpole_lqr
run.n_steps = 8
run.seed = 99
run.trials = 20
run.output_dir = {out}
drift.kind = suboptimal
sweep.estimators = taylor_noiseless,em_noisy
sweep.degrees = 1,2
sweep.samples = 32,64
sampling.reference_samples = 64
"""


# The smallest scalar run that builds, exports and samples through the grid.
TINY_SCALAR = """
problem.name = nonlinear1d
run.n_steps = 20
run.seed = 99
run.output_dir = {out}
sweep.estimators = taylor_noiseless,em_noisy
sweep.degrees = 2
sweep.samples = 64
sampling.reference_samples = 256
oracle.state_nodes = 401
oracle.control_nodes = 41
oracle.quad_nodes = 11
"""


# Scalar sweep on a tiny oracle grid whose quadrature states leave it (a
# GridEscapeWarning).  Under the feedback drift u = -1.5 x of
# ``_escaping_drift`` the paths leave it too.
ESCAPING_SCALAR = """
problem.name = nonlinear1d
run.n_steps = 20
run.seed = 1
run.trials = 2
run.output_dir = {out}
sweep.estimators = taylor_noiseless,em_noisy
sweep.degrees = 1,2
sweep.samples = 2,256
sampling.reference_samples = 64
oracle.state_lo = -8
oracle.state_hi = 14
oracle.state_nodes = 41
oracle.control_nodes = 11
oracle.quad_nodes = 5
metrics.dx = 0.05
"""


# Two cells of 200 reps at degree 2: a diagnose that runs in well under a second.
DIAGNOSE_KNOBS = "diagnose.cells = 2\ndiagnose.reps = 200\nsweep.degrees = 2\n"


def _escaping_drift(cfg, dp, mu):
    """The feedback drift u = -1.5 x, in place of ``experiments.build_drift``.

    It holds back the quadratic drift too weakly: about one path in ten climbs
    out of the grid, which the 2-path batches of seed 1 avoid and the 256-path
    batches never do.
    """
    return DriftProcess.on_policy(FeedbackPolicy([[-1.5]], dp.control_lower, dp.control_upper))


def _override(text, extra):
    """Config ``text`` with the keys that ``extra`` sets taken from ``extra``.

    A key may appear once in a config, so ``extra`` replaces its keys' lines.
    """
    keys = {line.split("=")[0].strip() for line in extra.splitlines() if "=" in line}
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _strip_runtime(path):
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in _read_rows(path)]


ROOT = Path(__file__).resolve().parents[1]


def _readme_key_table():
    """{key: read-by cell} from the README table, group rows expanded."""
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| `") or len(cells) != 4:
            continue
        names = [n.strip(" `") for n in re.split("[,/]", cells[0])]
        section = names[0].split(".")[0]
        for name in names:
            table[name if "." in name else f"{section}.{name}"] = cells[2]
    return table


def _scope_cell(key):
    problems, kinds = config._SCOPES.get(key, (config._VALID_PROBLEMS, config._VALID_DRIFTS))
    names = [p for p in problems if problems != config._VALID_PROBLEMS]
    names += [k for k in kinds if kinds != config._VALID_DRIFTS]
    return " + ".join(f"`{n}`" for n in names) or "any"


class TestConfigParsing:
    def test_defaults_per_problem(self):
        # the horizon is the problem builder's, not a config key
        cfg = parse_config_text("problem.name = nonlinear1d")
        dp = experiments_module._build_problem(cfg)
        assert cfg.n_steps == 200 and dp.n_steps * dp.dt == 10.0 and dp.d_cap == 10.0
        cfg = parse_config_text("problem.name = cartpole_lqr")
        dp = experiments_module._build_problem(cfg)
        assert cfg.n_steps == 100 and dp.n_steps * dp.dt == 5.0 and dp.d_cap == 1e9
        # the drift-correction cap is the problem's, not a config key
        with pytest.raises(ConfigError, match="unknown key 'sampling.d_cap'"):
            parse_config_text("sampling.d_cap = inf")

    def test_lists_and_booleans(self):
        # a "#" starts a comment only at the start of a line or after whitespace
        cfg = parse_config_text(
            "# a comment line\n"
            "problem.name = cartpole_lqr\n"
            "sweep.degrees = 2, 3\n"
            "sweep.samples = 16,64 # two counts\n"
            "run.seed = 3\t# after a tab\n"
            "run.output_dir = results/run#2\n"
        )
        assert cfg.degrees == [2, 3]
        assert cfg.samples == [16, 64]
        assert cfg.seed == 3
        assert cfg.output_dir == "results/run#2"

    def test_fixed_cartpole_keys_are_unknown(self):
        # the cart-pole instance is fixed: its constants, cost diagonals and
        # diffusion patch are not configurable
        for name in ("a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2",
                     "q_diag", "r_diag", "g_diag", "sigma_patch"):
            key = f"problem.{name}"
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config_text(f"problem.name = cartpole_lqr\n{key} = 1")

    @pytest.mark.parametrize(
        "head, extra, named",
        [
            ("problem.name = cartpole_lqr", "problem.u_max = 5", "cartpole_lqr"),
            ("problem.name = cartpole_lqr", "oracle.state_lo = -5", "cartpole_lqr"),
            ("problem.name = cartpole_lqr", "oracle.state_nodes = 11", "cartpole_lqr"),
            ("problem.name = cartpole_lqr", "oracle.quad_nodes = 5", "cartpole_lqr"),
            ("problem.name = nonlinear1d\ndrift.kind = suboptimal", "drift.k1 = -25", "nonlinear1d"),
            ("problem.name = cartpole_lqr\ndrift.kind = optimal", "drift.k2 = -5", "optimal"),
            ("problem.name = cartpole_lqr\ndrift.kind = optimal", "drift.k1 = -25", "optimal"),
            ("problem.name = nonlinear1d\ndrift.kind = suboptimal", "drift.k2 = -5", "nonlinear1d"),
        ],
        ids=["u_max_on_cartpole", "state_lo_on_cartpole", "state_nodes_on_cartpole",
             "quad_nodes_on_cartpole", "k1_on_scalar", "k2_under_optimal",
             "gains_under_optimal", "gains_under_suboptimal"],
    )
    def test_key_outside_its_scope_rejected(self, head, extra, named):
        key = extra.split(" =")[0]
        with pytest.raises(ConfigError, match=f"{re.escape(key)} is not read .* = {named}$"):
            parse_config_text(f"{head}\n{extra}")

    def test_shipped_configs_and_workloads_parse(self, tmp_path, monkeypatch):
        shipped = sorted((ROOT / "configs").glob("*.cfg"))
        assert len(shipped) == 2
        for path in shipped:
            load_config(path)
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
        spec.loader.exec_module(workloads)
        assert len(workloads.WORKLOADS) == 3
        for w in workloads.WORKLOADS.values():
            cfg = parse_config_text(w.config_text(w.default_seed, str(tmp_path)))
            assert (cfg.seed, cfg.output_dir) == (w.default_seed, str(tmp_path))

    def test_readme_key_table_matches_the_parser(self):
        keys = [*config._KEYS, *config._RETIRED]
        assert _readme_key_table() == {key: _scope_cell(key) for key in keys}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("problem.nmae = nonlinear1d")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("run.trials = soon")

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("sweep.degrees =")

    @pytest.mark.parametrize(
        "extra",
        [
            "metrics.dx = 0.1\nmetrics.points_per_axis = 5",
            "metrics.dx = 0",
            "metrics.points_per_axis = 1",
            "diagnose.cells = 0",
            "diagnose.reps = 1",
            "oracle.state_nodes = 1",
            "oracle.control_nodes = 0",
            "oracle.quad_nodes = 0",
            "sweep.samples = 16,0",
            "sweep.degrees = -1,2",
            "sampling.reference_samples = 0",
            "sweep.estimators = taylor_noiseless,taylor_noiseless,em_noisy",
            "sweep.degrees = 2,2",
            "sweep.samples = 64,64",
            "diagnose.step = -1",
            "diagnose.step = 100",
            "run.n_steps = 10\ndiagnose.step = 10",
            "run.ridge = nan",
            "run.ridge = inf",
            "run.ridge = -1",
            "run.horizon = nan",
            "run.horizon = inf",
            "run.horizon = 0",
            "drift.kind = custom",
            "drift.gains = 0,0,-25,-5",
            "run.seed = 1\nrun.seed = 2",
            "sweep.degrees = 2\nsweep.degrees = 4",
            "drift.k1 = -25\ndrift.kind = suboptimal\ndrift.k1 = -30",
            "drift.k1 = nan\ndrift.kind = suboptimal",
            "drift.k2 = inf\ndrift.kind = suboptimal",
            "metrics.dx = inf",
            "metrics.dx = nan",
            "problem.u_max = 0",
            "problem.u_max = inf",
            "oracle.state_lo = 12\noracle.state_hi = -5",
            "oracle.state_lo = 3\noracle.state_hi = 3",
            "oracle.state_lo = -5,0\noracle.state_hi = 12,1",
            "oracle.state_lo =\noracle.state_hi = 12",
            "oracle.state_lo = nan\noracle.state_hi = 12",
        ],
        ids=[
            "both_metric_keys",
            "zero_dx",
            "one_point_per_axis",
            "zero_cells",
            "one_rep",
            "one_state_node",
            "zero_control_nodes",
            "zero_quad_nodes",
            "zero_samples",
            "negative_degree",
            "zero_reference_samples",
            "repeated_estimator",
            "repeated_degree",
            "repeated_samples",
            "negative_step",
            "step_at_default_n_steps",
            "step_at_n_steps",
            "nan_ridge",
            "inf_ridge",
            "negative_ridge",
            "nan_horizon",
            "inf_horizon",
            "zero_horizon",
            "custom_drift",
            "gains_key",
            "repeated_seed_key",
            "repeated_degrees_key",
            "repeated_scoped_key",
            "nan_k1",
            "inf_k2",
            "inf_dx",
            "nan_dx",
            "zero_u_max",
            "inf_u_max",
            "reversed_span",
            "empty_span",
            "two_entry_span",
            "missing_lo",
            "nan_lo",
        ],
    )
    def test_metric_and_diagnose_keys_validated(self, extra):
        # the control box and the oracle grid are read by the scalar problem only
        scalar = extra.startswith(("problem.u_max", "oracle."))
        problem = "nonlinear1d" if scalar else "cartpole_lqr"
        with pytest.raises(ConfigError, match=re.escape(extra.split(" =")[0])):
            parse_config_text(f"problem.name = {problem}\n" + extra)

    def test_repeated_key_names_both_lines(self):
        # a key given twice is an error, not a silent override by the later line
        with pytest.raises(ConfigError, match=r"^line 4: key 'run.seed' repeats line 2$"):
            parse_config_text("# seeds\nrun.seed = 1\nrun.trials = 3\nrun.seed = 2")

    def test_scalar_span_checked_against_its_default(self):
        cfg = parse_config_text("problem.name = nonlinear1d")
        assert (cfg.oracle_state_lo, cfg.oracle_state_hi) == (-5.0, 12.0)
        assert parse_config_text("problem.name = cartpole_lqr").oracle_state_lo is None
        with pytest.raises(ConfigError, match="oracle.state_lo"):
            parse_config_text("problem.name = nonlinear1d\noracle.state_lo = 12")

    def test_scope_checked_on_every_construction_path(self):
        cart = parse_config_text("problem.name = cartpole_lqr")
        with pytest.raises(ConfigError, match="problem.u_max is not read by .* = cartpole_lqr"):
            dataclasses.replace(cart, u_max=5.0, oracle_state_nodes=7)
        with pytest.raises(ConfigError, match="oracle.state_nodes is not read by"):
            config.ExperimentConfig(problem="cartpole_lqr", oracle_state_nodes=7)
        with pytest.raises(ConfigError, match="drift.k1 is not read with drift.kind = optimal"):
            dataclasses.replace(cart, drift_k1=-25.0)
        # in scope, an unset key takes its default
        assert dataclasses.replace(cart, drift="suboptimal").drift_k1 == -25.0
        assert config.ExperimentConfig().u_max == 20.0

    @pytest.mark.parametrize(
        "text, unread",
        [
            ("problem.name = cartpole_lqr",
             {"u_max", "drift_k1", "drift_k2", "oracle_state_lo", "oracle_state_hi",
              "oracle_state_nodes", "oracle_control_nodes", "oracle_quad_nodes"}),
            ("problem.name = cartpole_lqr\ndrift.kind = suboptimal",
             {"u_max", "oracle_state_lo", "oracle_state_hi", "oracle_state_nodes",
              "oracle_control_nodes", "oracle_quad_nodes"}),
            ("problem.name = nonlinear1d", {"drift_k1", "drift_k2"}),
        ],
        ids=["cartpole_optimal", "cartpole_suboptimal", "scalar_optimal"],
    )
    def test_resolved_leaves_out_unread_keys(self, text, unread):
        cfg = parse_config_text(text)
        out = cfg.resolved()
        assert set(out) == {f.name for f in dataclasses.fields(cfg)} - unread
        assert config.ExperimentConfig(**out) == cfg

    def test_last_diagnose_step_accepted(self):
        assert parse_config_text("run.n_steps = 10\ndiagnose.step = 9").diagnose_step == 9

    def test_env_seed_override(self, tmp_path, monkeypatch):
        # the config file is the seed's only source: FBSDE_SEED is not read,
        # by the parser or anywhere in a run
        path = tmp_path / "c.cfg"
        path.write_text("run.seed = 5")
        monkeypatch.setenv("FBSDE_SEED", "77")
        assert load_config(path).seed == 5
        monkeypatch.setenv("FBSDE_SEED", "x")
        assert load_config(path).seed == 5
        path.write_text(_override(TINY_LQR.format(out=tmp_path / "env"), "run.trials = 1\n"))
        monkeypatch.setenv("FBSDE_SEED", "7")
        assert main(["run", str(path)]) == 0
        monkeypatch.delenv("FBSDE_SEED")
        assert main(["run", str(path), "--output", str(tmp_path / "plain")]) == 0
        env, plain = (_strip_runtime(tmp_path / d / "results.csv") for d in ("env", "plain"))
        assert env and env == plain


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = parse_config_text(TINY_LQR.format(out=out))
    results, manifest = run_experiment(cfg)
    return cfg, results, manifest


def _mean_raes_written(results):
    """``mean_rae`` of ``results.csv`` per (estimator, basis_count, samples, trial)."""
    keys = ("estimator", "basis_count", "samples", "trial")
    return {tuple(r[k] for k in keys): r["mean_rae"] for r in _read_rows(results)}


def _mean_raes_by_hand(cfg):
    """The ``mean_rae`` column as its definition gives it, keyed as
    :func:`_mean_raes_written`: each degree swept on its group's batch, then
    ``np.mean`` of the ``shared_rae`` of steps 1..N."""
    setup = build_setup(cfg)
    kinds = [EstimatorKind(est) for est in cfg.estimators]
    out = {}
    for samples, trial in itertools.product(cfg.samples, range(cfg.trials)):
        batch = sample_forward(
            setup.dp, setup.mu, setup.drift, samples, subseed(cfg.seed, f"trial-{trial}")
        )
        for deg in cfg.degrees:
            spec = scaling_from_batch(batch, deg)
            models = list(backward_sweep(batch, kinds, spec, down_to=1).values())
            per_step = [
                shared_rae(models, setup.truth, setup.region, i)
                for i in range(1, cfg.n_steps + 1)
            ]
            basis_count = str(math.comb(setup.dp.dim_x + deg, deg))
            for est, vals in zip(cfg.estimators, zip(*per_step)):
                out[(est, basis_count, str(samples), str(trial))] = repr(float(np.mean(vals)))
    return out


class TestRunExperiment:
    def test_row_count_and_uniqueness(self, tiny_run):
        cfg, results, _ = tiny_run
        rows = _read_rows(results)
        assert len(rows) == 2 * 2 * 2 * 20  # estimators x degrees x samples x trials
        keys = {(r["estimator"], r["basis_count"], r["samples"], r["trial"]) for r in rows}
        assert len(keys) == len(rows)

    def test_row_order_seed_and_basis_count(self, tmp_path):
        cfg = dataclasses.replace(parse_config_text(TINY_LQR.format(out=tmp_path)), trials=2)
        results, _ = run_experiment(cfg)
        with open(results, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == experiments_module.RESULT_COLUMNS
        cells = list(itertools.product(cfg.estimators, cfg.degrees, cfg.samples, range(2)))
        assert len(rows) == len(cells) == 2 * 2 * 2 * 2
        for row, (est, deg, samples, trial) in zip(rows, cells):
            got = dict(zip(header, row))
            assert (got["estimator"], got["samples"], got["trial"]) == (est, str(samples), str(trial))
            assert got["basis_count"] == str(math.comb(4 + deg, deg))
            assert got["seed"] == str(subseed(cfg.seed, f"trial-{trial}"))
            assert (got["problem"], got["drift"]) == ("cartpole_lqr", "suboptimal")

    def test_basis_count_column(self, tiny_run, tmp_path):
        scalar = parse_config_text(ESCAPING_SCALAR.format(out=tmp_path))
        scalar = dataclasses.replace(scalar, samples=[2])
        with pytest.warns(GridEscapeWarning):
            scalar_run = (scalar,) + run_experiment(scalar)
        for (cfg, results, _), dim in ((tiny_run, 4), (scalar_run, 1)):
            rows = _read_rows(results)
            counts = {int(r["basis_count"]) for r in rows}
            assert counts == {math.comb(dim + deg, deg) for deg in cfg.degrees}

    def test_grid_escape_is_recorded_as_failed_cells(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments_module, "build_drift", _escaping_drift)
        cfg = parse_config_text(ESCAPING_SCALAR.format(out=tmp_path))
        with pytest.warns(GridEscapeWarning):
            results, _ = run_experiment(cfg)
        with pytest.warns(GridEscapeWarning):
            setup = build_setup(cfg)
        with pytest.raises(OutOfDomainError):
            sample_forward(setup.dp, setup.mu, setup.drift, 256, subseed(cfg.seed, "trial-0"))
        rows = _read_rows(results)
        assert len(rows) == 2 * 2 * 2 * 2  # estimators x degrees x samples x trials
        escaped = [r["mean_rae"] for r in rows if r["samples"] == "256"]
        finished = [float(r["mean_rae"]) for r in rows if r["samples"] == "2"]
        assert escaped == ["inf"] * len(escaped)
        assert len(finished) == 8 and all(math.isfinite(v) for v in finished)

    def test_failing_estimator_gets_its_own_inf_cell(self, tmp_path, monkeypatch):
        from fbsde_lsmc import experiments

        def poisoned(*args, **kwargs):
            batch = sample_forward(*args, **kwargs)
            batch.w[0, 3] = np.nan  # only the targets that read W see it
            return batch

        monkeypatch.setattr(experiments, "sample_forward", poisoned)
        text = TINY_LQR.format(out=tmp_path).replace(
            "taylor_noiseless,em_noisy",
            "taylor_noiseless,taylor_reestimate,em_noiseless,em_noisy",
        )
        cfg = dataclasses.replace(parse_config_text(text), trials=1, degrees=[2], samples=[32])
        results, _ = run_experiment(cfg)
        got = {r["estimator"]: float(r["mean_rae"]) for r in _read_rows(results)}
        assert got["taylor_reestimate"] == got["em_noisy"] == math.inf
        assert math.isfinite(got["taylor_noiseless"]) and math.isfinite(got["em_noiseless"])

    def test_metric_grid_keys_reach_the_region(self, tmp_path):
        # either key applies to either problem; unset, the region's defaults hold
        cart = parse_config_text(TINY_LQR.format(out=tmp_path))
        region = build_setup(cart).region
        assert (region.dx, region.points_per_axis) == (None, 9)
        region = build_setup(dataclasses.replace(cart, metrics_dx=0.5)).region
        assert (region.dx, region.points_per_axis) == (0.5, None)
        scalar = parse_config_text(ESCAPING_SCALAR.format(out=tmp_path))
        for points, expect in ((None, (0.01, None)), (40, (None, 40))):
            cfg = dataclasses.replace(scalar, metrics_dx=None, metrics_points_per_axis=points)
            with pytest.warns(GridEscapeWarning):
                region = build_setup(cfg).region
            assert (region.dx, region.points_per_axis) == expect
        assert len(region.grid_points(3)) == 40

    def test_manifest_echoes_config(self, tiny_run):
        cfg, _, manifest = tiny_run
        data = json.loads(Path(manifest).read_text())
        assert data["config"]["seed"] == 99
        assert data["config"]["estimators"] == ["taylor_noiseless", "em_noisy"]
        assert data["config"]["drift_k1"] == -25.0 and "u_max" not in data["config"]

    def test_rerun_is_deterministic_outside_runtime(self, tiny_run, tmp_path):
        cfg, results, _ = tiny_run
        cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path / "again"))
        results2, _ = run_experiment(cfg2)
        assert _strip_runtime(results) == _strip_runtime(results2)

    def test_parallel_matches_serial(self, tiny_run, tmp_path):
        cfg, results, _ = tiny_run
        cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path / "par"))
        results2, _ = run_experiment(cfg2, jobs=2)
        assert _strip_runtime(results) == _strip_runtime(results2)
        # degree 4 forms the benchmark's cart-pole feature products (70
        # features, more than the 32 paths); each scalar worker rebuilds the
        # on-policy drift and the reference policy from one unpickled GridPolicy
        degree4 = _override(TINY_LQR, "sweep.degrees = 4\nsweep.samples = 32\nrun.trials = 2\n")
        for name, text in (("degree4", degree4), ("scalar", TINY_SCALAR)):
            cfg = parse_config_text(text.format(out=tmp_path / name))
            serial, _ = run_experiment(cfg)
            parallel, _ = run_experiment(
                dataclasses.replace(cfg, output_dir=str(tmp_path / f"{name}_par")), jobs=2
            )
            rows = _strip_runtime(serial)
            assert rows and all(math.isfinite(float(r["mean_rae"])) for r in rows), name
            assert _strip_runtime(parallel) == rows, name

    @pytest.mark.parametrize("text", [TINY_LQR, TINY_SCALAR], ids=["cartpole", "scalar"])
    def test_mean_rae_is_the_mean_of_shared_rae_over_steps_1_to_n(self, tmp_path, text):
        # the paper's averaged error, bit for bit: step 0 is left out, step N is not
        cfg = dataclasses.replace(parse_config_text(text.format(out=tmp_path)), trials=2)
        results, _ = run_experiment(cfg)
        written = _mean_raes_written(results)
        assert all(math.isfinite(float(v)) for v in written.values())
        assert written == _mean_raes_by_hand(cfg)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_is_released_before_scoring(self, tmp_path, monkeypatch, jobs):
        # a score reads only the fitted models: every batch sampled so far is
        # freed before any degree of its group is scored
        cfg = dataclasses.replace(parse_config_text(TINY_LQR.format(out=tmp_path)), trials=2)
        assert len(cfg.degrees) == 2
        sampled, scored = [], []
        real_sample, real_scores = experiments_module.sample_forward, experiments_module._mean_raes

        def sampling(*args):
            batch = real_sample(*args)
            sampled.append(weakref.ref(batch.x))
            return batch

        def scoring(*args):
            assert sampled and all(ref() is None for ref in sampled)
            scored.append(None)
            return real_scores(*args)

        monkeypatch.setattr(experiments_module, "sample_forward", sampling)
        monkeypatch.setattr(experiments_module, "_mean_raes", scoring)
        results, _ = run_experiment(cfg, jobs=jobs)
        if jobs == 1:  # workers score in their own processes
            assert len(scored) == len(cfg.samples) * cfg.trials * len(cfg.degrees)
        assert _mean_raes_written(results) == _mean_raes_by_hand(cfg)

    def test_on_policy_run_matches_parallel_and_solved(self, tmp_path, monkeypatch):
        # an optimal drift forms its corrections without Sigma^{-1}; the same
        # drift as a distinct object takes the solve, and must give the same
        # results.csv bytes outside runtime_ms
        text = _override(TINY_LQR, "drift.kind = optimal\nrun.trials = 2\n")
        solves = []
        solve = sampling_module._solve_diffusion

        def counting(sig, rhs):
            solves.append(sig.shape)
            return solve(sig, rhs)

        monkeypatch.setattr(sampling_module, "_solve_diffusion", counting)
        serial, _ = run_experiment(parse_config_text(text.format(out=tmp_path / "serial")))
        assert solves == []
        parallel, _ = run_experiment(parse_config_text(text.format(out=tmp_path / "par")), jobs=2)
        monkeypatch.setattr(
            experiments_module,
            "build_drift",
            lambda cfg, dp, mu: DriftProcess.on_policy(lambda i, x: mu(i, x)),
        )
        solved, _ = run_experiment(parse_config_text(text.format(out=tmp_path / "solved")))
        assert solves
        rows = _strip_runtime(serial)
        assert rows and all(math.isfinite(float(r["mean_rae"])) for r in rows)
        assert _strip_runtime(parallel) == rows
        assert _strip_runtime(solved) == rows


def _count_grid_builds(monkeypatch):
    """A list that gets one entry per ``grid_bellman`` call in ``build_setup``."""
    calls = []
    build = experiments_module.grid_bellman

    def counted(*args, **kwargs):
        calls.append(None)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments_module, "grid_bellman", counted)
    return calls


# On TINY_SCALAR this span leaves out part of the reference confidence region
# widened by half, [-3.38031, 10.2761].
NARROW_SPAN = "oracle.state_lo = -2\noracle.state_hi = 10\n"


class TestOracleSpan:
    """The gridded oracle is built once, on the configured span."""

    def test_default_span_is_built_once(self, tmp_path, monkeypatch):
        builds = _count_grid_builds(monkeypatch)
        cfg = parse_config_text(TINY_SCALAR.format(out=tmp_path))
        nodes = build_setup(cfg).truth.nodes
        assert len(builds) == 1
        assert (nodes[0], nodes[-1]) == (cfg.oracle_state_lo, cfg.oracle_state_hi)

    def test_span_short_of_the_region_names_both_keys(self, tmp_path, monkeypatch):
        builds = _count_grid_builds(monkeypatch)
        cfg = parse_config_text(_override(TINY_SCALAR.format(out=tmp_path), NARROW_SPAN))
        with pytest.raises(ConfigError) as err:
            build_setup(cfg)
        assert str(err.value) == (
            "oracle.state_lo = -2 and oracle.state_hi = 10 must contain the reference "
            "confidence region widened by half, [-3.38031, 10.2761]"
        )
        assert len(builds) == 1

    @pytest.mark.parametrize("command", ["run", "oracle", "diagnose"])
    def test_span_short_of_the_region_exits_1(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_override(TINY_SCALAR.format(out=tmp_path / "out"), NARROW_SPAN))
        assert main([command, str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "oracle.state_lo = -2 and oracle.state_hi = 10" in err
        assert "[-3.38031, 10.2761]" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestHeatmap:
    def test_matrix_shape_and_group_mean(self, tiny_run, tmp_path):
        cfg, results, _ = tiny_run
        paths = emit_heatmap(results, output_dir=tmp_path)
        assert sorted(p.name for p in paths) == [
            "heatmap_em_noisy.csv",
            "heatmap_taylor_noiseless.csv",
        ]
        rows = _read_rows(results)
        with open(tmp_path / "heatmap_taylor_noiseless.csv", newline="") as fh:
            matrix = list(csv.reader(fh))
        assert matrix[0] == ["basis_count\\samples", "32", "64"]
        assert len(matrix) == 3  # header + two basis counts
        # independent group-by-mean oracle
        for line in matrix[1:]:
            basis = line[0]
            for col, samples in zip(line[1:], ("32", "64")):
                group = [
                    float(r["mean_rae"])
                    for r in rows
                    if r["estimator"] == "taylor_noiseless"
                    and r["basis_count"] == basis
                    and r["samples"] == samples
                ]
                assert float(col) == pytest.approx(np.mean(group), rel=1e-12)

    def test_inf_sentinel_passthrough(self, tmp_path):
        path = tmp_path / "r.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["problem", "drift", "estimator", "basis_count", "samples", "trial",
                 "mean_rae", "runtime_ms", "seed"]
            )
            writer.writerow(["p", "d", "em_noisy", "3", "16", "0", "inf", "1.0", "0"])
            writer.writerow(["p", "d", "em_noisy", "3", "16", "1", "inf", "1.0", "0"])
        (out,) = emit_heatmap(path, output_dir=tmp_path)
        body = out.read_text().splitlines()[1]
        assert body == "3,inf"

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("estimator,samples,trial,mean_rae\n")
        with pytest.raises(SchemaError) as err:
            emit_heatmap(path, output_dir=tmp_path)
        assert err.value.column == "basis_count"


class TestCliEntry:
    def test_run_and_heatmap_commands(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_LQR.format(out=tmp_path / "out"))
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert main(["heatmap", str(tmp_path / "out" / "results.csv")]) == 0
        assert (tmp_path / "out" / "heatmap_em_noisy.csv").exists()

    def test_oracle_command_riccati(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_LQR.format(out=tmp_path / "out"))
        assert main(["oracle", str(cfg_path)]) == 0
        data = json.loads((tmp_path / "out" / "riccati_truth.json").read_text())
        assert len(data["steps"]) == 9

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("problem.name = pendulum")
        assert main(["run", str(cfg_path)]) == 1

    def test_diagnose_without_cells_exits_1(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_LQR.format(out=tmp_path / "out") + "diagnose.cells = 0\n")
        assert main(["diagnose", str(cfg_path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_diagnose_with_more_cells_than_samples_exits_1(self, tmp_path, capsys, monkeypatch):
        # the default diagnose.cells = 5 pins one trajectory per cell; the
        # check comes before the oracle, sampling and backward sweep
        def no_setup(cfg):
            raise AssertionError("build_setup called")

        monkeypatch.setattr(cli_module, "build_setup", no_setup)
        cfg_path = tmp_path / "exp.cfg"
        text = TINY_LQR.format(out=tmp_path / "out")
        cfg_path.write_text(text.replace("sweep.samples = 32,64", "sweep.samples = 3"))
        assert main(["diagnose", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "n_cells = 5 exceeds the batch size of 3" in err
        assert "diagnose.cells" in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize(
        "command, extra, key",
        [
            ("run", "sweep.degrees = 2,2\n", "sweep.degrees"),
            ("diagnose", "sweep.estimators = em_noisy,em_noisy\n", "sweep.estimators"),
            ("diagnose", "diagnose.step = 8\n", "diagnose.step"),
            ("run", "run.ridge = nan\n", "run.ridge"),
            ("run", "run.ridge = -1\n", "run.ridge"),
            ("run", "run.horizon = inf\n", "run.horizon"),
            ("run", "run.horizon = 5\n", "run.horizon"),
            ("diagnose", "metrics.dx = inf\n", "metrics.dx"),
            ("oracle", "problem.name = nonlinear1d\noracle.state_lo = 12\n", "oracle.state_lo"),
            ("oracle", "problem.u_max = 5\n", "problem.u_max"),
            ("run", "drift.kind = custom\ndrift.gains = 1,2\n", "drift.gains"),
            ("run", "drift.kind = custom\n", "drift.kind"),
            ("run", "sampling.d_cap = inf\n", "sampling.d_cap"),
        ],
        ids=[
            "repeated_degree",
            "repeated_estimator",
            "step_past_horizon",
            "nan_ridge",
            "negative_ridge",
            "inf_horizon",
            "finite_horizon",
            "inf_dx",
            "scalar_span_past_default_hi",
            "u_max_on_cartpole",
            "short_custom_gains",
            "custom_drift",
            "d_cap",
        ],
    )
    def test_rejected_before_any_work_exits_1(self, tmp_path, capsys, command, extra, key):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_override(TINY_LQR.format(out=tmp_path / "out"), extra))
        assert main([command, str(cfg_path)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_state_node_exits_1_without_traceback(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        extra = "run.n_steps = 2\noracle.state_nodes = 1\n"
        cfg_path.write_text(_override(ESCAPING_SCALAR.format(out=tmp_path / "out"), extra))
        assert main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "oracle.state_nodes must be >= 2" in err
        assert "Traceback" not in err

    def test_oracle_and_run_without_scipy(self, tmp_path):
        # scipy is a test dependency only; a None entry makes any import of it fail
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_SCALAR.format(out=tmp_path / "out"))
        code = (
            "import sys, warnings\n"
            "sys.modules['scipy'] = None\n"
            "warnings.simplefilter('ignore')\n"
            "from fbsde_lsmc import cli\n"
            f"cfg = {str(cfg_path)!r}\n"
            "sys.exit(cli.main(['oracle', cfg]) or cli.main(['run', cfg]))\n"
        )
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "out" / "grid_truth.csv").read_text().splitlines()
        assert lines[0] == "step,x_0,value,u_star_0"
        assert len(lines) == 21 * 401 + 1
        assert len(_read_rows(tmp_path / "out" / "results.csv")) == 2
        # the tables do not depend on which optional packages are importable
        assert main(["oracle", str(cfg_path), "--output", str(tmp_path / "here")]) == 0
        here = (tmp_path / "here" / "grid_truth.csv").read_bytes()
        assert here == (tmp_path / "out" / "grid_truth.csv").read_bytes()

    def test_scalar_suboptimal_drift_run(self, tmp_path):
        # the scalar problem's comparison drift is the rate -0.2 x, scaled by dt
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_SCALAR.format(out=tmp_path / "out") + "drift.kind = suboptimal\n")
        cfg = parse_config_text(cfg_path.read_text())
        setup = build_setup(cfg)
        batch = sample_forward(setup.dp, setup.mu, setup.drift, 8, seed=0)
        steps = [batch.drift_step(i) for i in range(batch.n_steps)]
        k_drift = np.stack([k for _, _, k, _ in steps], axis=1)
        np.testing.assert_array_equal(k_drift, -0.2 * batch.x[:, :-1] * setup.dp.dt)
        assert np.any(np.stack([d for _, _, _, d in steps], axis=1) != 0.0)
        assert main(["run", str(cfg_path)]) == 0
        rows = _read_rows(tmp_path / "out" / "results.csv")
        assert len(rows) == 2
        assert all(math.isfinite(float(r["mean_rae"])) for r in rows)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_run_with_fewer_than_one_job_exits_1(self, tmp_path, capsys, monkeypatch, jobs):
        # rejected before the oracle is built or the output directory made;
        # no worker process is started
        def no_setup(cfg):
            raise AssertionError("build_setup called")

        monkeypatch.setattr(experiments_module, "build_setup", no_setup)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_LQR.format(out=tmp_path / "out"))
        assert main(["run", str(cfg_path), "--jobs", str(jobs)]) == 1
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_experiment(parse_config_text(cfg_path.read_text()), jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_diagnose_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_override(TINY_LQR.format(out=tmp_path / "out"), DIAGNOSE_KNOBS))
        assert main(["diagnose", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("step,kind,cell")
        assert len(lines) == 1 + 2 * 2  # two estimators x two cells

    @pytest.mark.parametrize(
        "text, drift, vacuous",
        [
            (_override(TINY_LQR, DIAGNOSE_KNOBS), "suboptimal", 2),
            (_override(TINY_LQR, DIAGNOSE_KNOBS), "optimal", 0),
            (TINY_SCALAR, "optimal", 0),
        ],
        ids=["suboptimal-2", "optimal-0", "scalar-optimal-0"],
    )
    def test_diagnose_counts_vacuous_cells(self, tmp_path, capsys, text, drift, vacuous):
        # the suboptimal drift's corrections (norms near 1e4 here) underflow
        # every weight: lhs is 0, rhs is inf and the cell holds whatever its
        # remainder; an on-policy drift has D = 0, and every cell's lhs, rhs
        # and stderr are finite and its bound holds
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_override(text.format(out=tmp_path / "out"), f"drift.kind = {drift}\n"))
        assert main(["diagnose", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        rows = _read_rows(tmp_path / "out" / "diagnostics.csv")
        n_cells = load_config(cfg_path).diagnose_cells
        for kind in ("taylor_noiseless", "em_noisy"):
            cells = [r for r in rows if r["kind"] == kind]
            assert len(cells) == n_cells
            assert sum(math.isinf(float(r["rhs"])) for r in cells) == vacuous
            assert f"{kind}: bound holds ({vacuous} of {n_cells} cells vacuous: rhs = inf)" in out
        if not vacuous:
            finite = [math.isfinite(float(r[k])) for r in rows for k in ("lhs", "rhs", "stderr")]
            assert all(finite) and all(r["holds"] == "1" for r in rows)

    def test_diagnose_checks_every_estimator_on_one_set_of_cells(self, tmp_path):
        # one bias_bound_check call of all the fitted estimators, seeded with
        # the "diagnose-cells" subseed, writes the command's exact bytes
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_override(TINY_LQR.format(out=tmp_path / "out"), DIAGNOSE_KNOBS))
        assert main(["diagnose", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        setup = build_setup(cfg)
        batch = sample_forward(setup.dp, setup.mu, setup.drift, 64, subseed(cfg.seed, "diagnose"))
        kinds = [EstimatorKind(est) for est in cfg.estimators]
        models = backward_sweep(batch, kinds, scaling_from_batch(batch, 2))
        seed = subseed(cfg.seed, "diagnose-cells")
        reports = bias_bound_check(models, batch, 4, setup.truth, n_cells=2, n_rep=200, seed=seed)
        report_to_csv(reports.values(), tmp_path / "expected.csv")
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "out" / "diagnostics.csv").read_bytes() == expected

    def test_diagnose_is_deterministic(self, tmp_path):
        # every step is formed again on read; on the scalar problem through
        # the GridPolicy
        for text in (_override(TINY_LQR, DIAGNOSE_KNOBS), TINY_SCALAR):
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(text.format(out=tmp_path / "a"))
            written = []
            for name in ("a", "b"):
                assert main(["diagnose", str(cfg_path), "--output", str(tmp_path / name)]) == 0
                written.append((tmp_path / name / "diagnostics.csv").read_bytes())
            assert written[0] == written[1]


class TestDiagnoseSweepDepth:
    """diagnose fits steps N down to diagnose.step + 1, the ones its check
    reads, and keeps only the batch's step diagnose.step for the check."""

    @pytest.mark.parametrize("text", [TINY_LQR, TINY_SCALAR], ids=["cartpole", "scalar"])
    def test_full_sweep_bytes_from_n_minus_step_fits_per_estimator(
        self, tmp_path, monkeypatch, text
    ):
        text = _override(text.format(out=tmp_path / "out"), DIAGNOSE_KNOBS)
        cfg = parse_config_text(text)
        setup = build_setup(cfg)
        batch = sample_forward(
            setup.dp, setup.mu, setup.drift, max(cfg.samples), subseed(cfg.seed, "diagnose")
        )
        kinds = [EstimatorKind(est) for est in cfg.estimators]
        full = backward_sweep(batch, kinds, scaling_from_batch(batch, 2))
        fitted_steps = []
        real_fit = backward_module.lsmc_fit

        def counting(x, ys, spec, i, **kwargs):
            fitted_steps.append(i)
            return real_fit(x, ys, spec, i, **kwargs)

        monkeypatch.setattr(backward_module, "lsmc_fit", counting)
        # the check reads the batch's step i alone: it gets copies of state
        # columns i and i + 1 and noise column i, the sampled batch freed
        sampled, checked = [], []
        real_sample, real_check = cli_module.sample_forward, cli_module.bias_bound_check

        def sampling(*args):
            batch = real_sample(*args)
            sampled.append(weakref.ref(batch.x))
            return batch

        def check(models, batch, *args, **kwargs):
            released = bool(sampled) and all(ref() is None for ref in sampled)
            checked.append(
                (batch.first_step, batch.x.shape, batch.w.shape, batch.x.base is None, released)
            )
            return real_check(models, batch, *args, **kwargs)

        monkeypatch.setattr(cli_module, "sample_forward", sampling)
        monkeypatch.setattr(cli_module, "bias_bound_check", check)
        m, dim = batch.n_samples, batch.dim
        n = cfg.n_steps
        for step in (0, n // 2, n - 1):
            reports = bias_bound_check(
                full, batch, step, setup.truth, n_cells=2, n_rep=200,
                seed=subseed(cfg.seed, "diagnose-cells"),
            )
            report_to_csv(reports.values(), tmp_path / "expected.csv")
            cfg_path = tmp_path / f"step{step}.cfg"
            cfg_path.write_text(_override(text, f"diagnose.step = {step}\n"))
            fitted_steps.clear()
            out = tmp_path / f"out{step}"
            assert main(["diagnose", str(cfg_path), "--output", str(out)]) == 0
            expected = (tmp_path / "expected.csv").read_bytes()
            assert (out / "diagnostics.csv").read_bytes() == expected, step
            # steps N - 1 .. step + 1 once per estimator, the shared terminal step once
            assert len(fitted_steps) == (n - step - 1) * len(kinds) + 1
            assert sorted(set(fitted_steps)) == list(range(step + 1, n + 1))
            assert checked[-1] == (step, (m, 2, dim), (m, 1, dim), True, True), step

    def test_only_a_failure_above_the_checked_step_exits_3(self, tmp_path, monkeypatch, capsys):
        step = 4
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_override(
            TINY_LQR.format(out=tmp_path / "out"), DIAGNOSE_KNOBS + f"diagnose.step = {step}\n"
        ))
        assert main(["diagnose", str(cfg_path), "--output", str(tmp_path / "clean")]) == 0
        real_targets = backward_module.estimate_targets

        def failing_at(steps):
            def targets(kind, m, batch, i, shared=None):
                if i in steps:
                    raise FloatingPointError("poisoned backward target")
                return real_targets(kind, m, batch, i, shared)

            return targets

        # no reported number reads a step at or below the checked one
        monkeypatch.setattr(backward_module, "estimate_targets", failing_at(range(step + 1)))
        assert main(["diagnose", str(cfg_path), "--output", str(tmp_path / "below")]) == 0
        clean = (tmp_path / "clean" / "diagnostics.csv").read_bytes()
        assert (tmp_path / "below" / "diagnostics.csv").read_bytes() == clean

        monkeypatch.setattr(backward_module, "estimate_targets", failing_at({step + 2}))
        capsys.readouterr()
        assert main(["diagnose", str(cfg_path), "--output", str(tmp_path / "above")]) == 3
        err = capsys.readouterr().err
        assert "poisoned backward target" in err
        assert f"backward pass failed at step {step + 2}" in err


def _full_sweeps(monkeypatch):
    """Make ``run`` fit every step down to 0: the reference its sweep must match."""
    real_sweep = experiments_module.backward_sweep
    monkeypatch.setattr(
        experiments_module, "backward_sweep",
        lambda batch, kinds, spec, down_to=0: real_sweep(batch, kinds, spec),
    )


class TestRunSweepDepth:
    """run fits steps N down to 1: no score reads step 0."""

    def test_n_fits_per_estimator_and_group(self, tmp_path, monkeypatch):
        cfg = dataclasses.replace(parse_config_text(TINY_LQR.format(out=tmp_path)), trials=2)
        fitted_steps = []
        real_fit = backward_module.lsmc_fit

        def counting(x, ys, spec, i, **kwargs):
            fitted_steps.append(i)
            return real_fit(x, ys, spec, i, **kwargs)

        monkeypatch.setattr(backward_module, "lsmc_fit", counting)
        run_experiment(cfg)
        groups = len(cfg.samples) * cfg.trials * len(cfg.degrees)
        # steps N - 1 .. 1 once per estimator, the shared terminal step once
        assert len(fitted_steps) == groups * ((cfg.n_steps - 1) * len(cfg.estimators) + 1)
        assert sorted(set(fitted_steps)) == list(range(1, cfg.n_steps + 1))

    @pytest.mark.parametrize("text", [TINY_LQR, TINY_SCALAR], ids=["cartpole", "scalar"])
    def test_results_equal_a_full_sweep_apart_from_runtime(self, tmp_path, monkeypatch, text):
        cfg = dataclasses.replace(parse_config_text(text.format(out=tmp_path / "a")), trials=2)
        results, _ = run_experiment(cfg)
        _full_sweeps(monkeypatch)
        full, _ = run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "full")))
        assert _strip_runtime(results) == _strip_runtime(full)

    def test_no_rank_warning_when_only_step_0_is_rank_deficient(self, tmp_path, monkeypatch):
        cfg = dataclasses.replace(parse_config_text(TINY_LQR.format(out=tmp_path)), trials=1)

        def rank_warnings(out):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / out)))
            return {str(w.message) for w in caught if w.category is RankDeficientWarning}

        assert rank_warnings("stopped") == set()
        # a full sweep shows that step 0 is this config's one rank-deficient design
        _full_sweeps(monkeypatch)
        full = rank_warnings("full")
        assert full and all(m.startswith("design matrix at step 0 ") for m in full)


class TestReferenceRegion:
    """The set-up samples the reference region only where something reads it."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (TINY_LQR, {"run": 1, "diagnose": 0, "oracle": 0}),
            # the gridded oracle's span check reads the region on every command
            (TINY_SCALAR, {"run": 1, "diagnose": 1, "oracle": 1}),
        ],
        ids=["cartpole", "scalar"],
    )
    def test_region_formed_once_where_read(self, tmp_path, monkeypatch, text, expected):
        calls = []
        real_region = experiments_module._reference_region

        def counted(*args):
            calls.append(None)
            return real_region(*args)

        monkeypatch.setattr(experiments_module, "_reference_region", counted)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_override(
            text.format(out=tmp_path / "out"), DIAGNOSE_KNOBS + "run.trials = 1\n"
        ))
        got = {}
        for command in expected:
            calls.clear()
            assert main([command, str(cfg_path)]) == 0
            got[command] = len(calls)
        assert got == expected

    def test_cartpole_outputs_do_not_read_the_reference_samples(self, tmp_path):
        text = _override(TINY_LQR.format(out=tmp_path / "out"), DIAGNOSE_KNOBS)
        assert build_setup(parse_config_text(text), scoring=False).region is None
        written = {}
        for samples in (64, 1):
            cfg_path = tmp_path / f"ref{samples}.cfg"
            cfg_path.write_text(_override(text, f"sampling.reference_samples = {samples}\n"))
            out = tmp_path / f"out{samples}"
            for command in ("diagnose", "oracle"):
                assert main([command, str(cfg_path), "--output", str(out)]) == 0
            written[samples] = [
                (out / name).read_bytes() for name in ("diagnostics.csv", "riccati_truth.json")
            ]
        assert written[1] == written[64]
