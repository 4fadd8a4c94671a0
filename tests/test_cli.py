"""Configuration parsing, experiment sweeps, heatmaps, and the CLI surface."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from fbsde_lsmc.cli import main
from fbsde_lsmc.config import load_config, parse_config_text
from fbsde_lsmc.errors import ConfigError, GridEscapeWarning, OutOfDomainError, SchemaError
from fbsde_lsmc.experiments import build_setup, emit_heatmap, run_experiment, subseed
from fbsde_lsmc.sampling import sample_forward

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


# Scalar sweep on a tiny oracle grid.  The feedback drift u = -1.5 x holds
# back the quadratic drift too weakly: about one path in ten climbs out of the
# grid, which the 2-path batches of this seed avoid and the 256-path batches
# never do.
ESCAPING_SCALAR = """
problem.name = nonlinear1d
run.n_steps = 20
run.seed = 1
run.trials = 2
run.output_dir = {out}
drift.kind = custom
drift.gains = -1.5
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


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_defaults_per_problem(self):
        cfg = parse_config_text("problem.name = nonlinear1d")
        assert cfg.n_steps == 200 and cfg.horizon == 10.0 and cfg.d_cap == 10.0
        cfg = parse_config_text("problem.name = cartpole_lqr")
        assert cfg.n_steps == 100 and cfg.horizon == 5.0 and cfg.d_cap == 1e9

    def test_lists_and_booleans(self):
        cfg = parse_config_text(
            "problem.name = cartpole_lqr\n"
            "problem.sigma_patch = true\n"
            "sweep.degrees = 2, 3\n"
            "sweep.samples = 16\n"
        )
        assert cfg.sigma_patch is True
        assert cfg.degrees == [2, 3]
        assert cfg.samples == [16]

    def test_lqr_constant_overrides(self):
        cfg = parse_config_text("problem.name = cartpole_lqr\nproblem.a5 = 7.0\n")
        assert cfg.lqr_overrides == {"a5": 7.0}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("problem.nmae = nonlinear1d")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("run.trials = soon")

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("sweep.degrees =")

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.cfg"
        path.write_text("run.seed = 5")
        monkeypatch.setenv("FBSDE_SEED", "77")
        assert load_config(path).seed == 77
        monkeypatch.setenv("FBSDE_SEED", "x")
        with pytest.raises(ConfigError):
            load_config(path)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = parse_config_text(TINY_LQR.format(out=out))
    results, manifest = run_experiment(cfg)
    return cfg, results, manifest


@pytest.fixture(scope="module")
def escaping_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("escaping")
    cfg = parse_config_text(ESCAPING_SCALAR.format(out=out))
    with pytest.warns(GridEscapeWarning):
        results, manifest = run_experiment(cfg)
    return cfg, results, manifest


class TestRunExperiment:
    def test_row_count_and_uniqueness(self, tiny_run):
        cfg, results, _ = tiny_run
        rows = _read_rows(results)
        assert len(rows) == 2 * 2 * 2 * 20  # estimators x degrees x samples x trials
        keys = {(r["estimator"], r["basis_count"], r["samples"], r["trial"]) for r in rows}
        assert len(keys) == len(rows)

    def test_basis_count_column(self, tiny_run, tmp_path):
        scalar = parse_config_text(ESCAPING_SCALAR.format(out=tmp_path))
        scalar = dataclasses.replace(scalar, samples=[2])
        with pytest.warns(GridEscapeWarning):
            scalar_run = (scalar,) + run_experiment(scalar)
        for (cfg, results, _), dim in ((tiny_run, 4), (scalar_run, 1)):
            rows = _read_rows(results)
            counts = {int(r["basis_count"]) for r in rows}
            assert counts == {math.comb(dim + deg, deg) for deg in cfg.degrees}

    def test_grid_escape_is_recorded_as_failed_cells(self, escaping_run):
        cfg, results, _ = escaping_run
        with pytest.warns(GridEscapeWarning):
            setup = build_setup(cfg)
        with pytest.raises(OutOfDomainError):
            sample_forward(
                setup.dp, setup.mu, setup.drift, 256, subseed(cfg.seed, "trial-0"), cfg.d_cap
            )
        rows = _read_rows(results)
        assert len(rows) == 2 * 2 * 2 * 2  # estimators x degrees x samples x trials
        escaped = [r["mean_rae"] for r in rows if r["samples"] == "256"]
        finished = [float(r["mean_rae"]) for r in rows if r["samples"] == "2"]
        assert escaped == ["inf"] * len(escaped)
        assert len(finished) == 8 and all(math.isfinite(v) for v in finished)

    def test_manifest_echoes_config(self, tiny_run):
        cfg, _, manifest = tiny_run
        data = json.loads(open(manifest).read())
        assert data["config"]["seed"] == 99
        assert data["config"]["estimators"] == ["taylor_noiseless", "em_noisy"]

    def test_rerun_is_deterministic_outside_runtime(self, tiny_run, tmp_path):
        cfg, results, _ = tiny_run
        cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path / "again"))
        results2, _ = run_experiment(cfg2)

        def strip_runtime(path):
            rows = _read_rows(path)
            return [
                {k: v for k, v in row.items() if k != "runtime_ms"} for row in rows
            ]

        assert strip_runtime(results) == strip_runtime(results2)

    def test_parallel_matches_serial(self, tiny_run, tmp_path):
        cfg, results, _ = tiny_run
        cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path / "par"))
        results2, _ = run_experiment(cfg2, jobs=2)

        def strip_runtime(path):
            rows = _read_rows(path)
            return [
                {k: v for k, v in row.items() if k != "runtime_ms"} for row in rows
            ]

        assert strip_runtime(results) == strip_runtime(results2)


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

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_diagnose_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            TINY_LQR.format(out=tmp_path / "out")
            + "diagnose.cells = 2\ndiagnose.reps = 200\nsweep.degrees = 2\n"
        )
        assert main(["diagnose", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("step,kind,cell")
        assert len(lines) == 1 + 2 * 2  # two estimators x two cells
