"""Experiment orchestration: sweeps, result emission, heatmap reduction.

One experiment cell is a tuple (estimator, degree, samples, trial).  Cells
sharing (samples, trial) reuse a single forward pass; each then runs one
backward pass and scores the fitted model by its relative absolute error
against the configured ground truth, averaged over timesteps 1..N.  Step 0
is excluded from the average: the initial state is deterministic, so its
regression sees a single repeated state and cannot identify the value away
from it.

Numerical divergence inside a cell, including a sampled path leaving the
gridded oracle's domain, is recorded as a ``+inf`` error and the sweep
continues.  All emitted bytes except the ``runtime_ms`` column are a
deterministic function of (config, seed).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .backward import backward_pass
from .config import ExperimentConfig
from .errors import (
    DegenerateDenominatorError,
    DriftUnboundedError,
    OutOfDomainError,
    SchemaError,
    SingularDiffusionError,
    WeightOverflowError,
)
from .estimators import EstimatorKind
from .metrics import confidence_region, rae
from .oracles import (
    GridPolicy,
    GridSpec,
    grid_bellman,
    riccati_from_lqr,
)
from .problems import (
    FeedbackPolicy,
    LqrParams,
    build_cartpole_lqr,
    build_nonlinear_1d,
    discretize,
)
from .sampling import DriftProcess, sample_forward

__all__ = ["ExperimentSetup", "build_setup", "run_experiment", "emit_heatmap"]

RESULT_COLUMNS = [
    "problem",
    "drift",
    "estimator",
    "basis_count",
    "samples",
    "trial",
    "mean_rae",
    "runtime_ms",
    "seed",
]

_NUMERIC_FAILURES = (
    np.linalg.LinAlgError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
    SingularDiffusionError,
    DriftUnboundedError,
    WeightOverflowError,
    DegenerateDenominatorError,
    OutOfDomainError,
)


def subseed(base: int, tag: str) -> int:
    """Stable 64-bit sub-seed for a named purpose."""
    digest = hashlib.blake2b(f"{base}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(eq=False)
class ExperimentSetup:
    """Everything a sweep cell needs besides the forward batch."""

    cfg: ExperimentConfig
    cp: object
    dp: object
    truth: object
    mu: object
    region: object
    drift: DriftProcess


def _build_problem(cfg: ExperimentConfig):
    if cfg.problem == "nonlinear1d":
        cp = build_nonlinear_1d(u_max=cfg.u_max)
    else:
        kwargs = dict(cfg.lqr_overrides)
        kwargs["sigma_patch"] = cfg.sigma_patch
        kwargs["horizon"] = cfg.horizon
        if cfg.q_diag is not None:
            kwargs["q"] = np.diag(cfg.q_diag)
        if cfg.r_diag is not None:
            kwargs["r"] = np.diag(cfg.r_diag)
        if cfg.g_diag is not None:
            kwargs["g_mat"] = np.diag(cfg.g_diag)
        cp = build_cartpole_lqr(LqrParams(**kwargs))
    if cfg.horizon is not None and cp.horizon != cfg.horizon:
        cp = dataclasses.replace(cp, horizon=cfg.horizon)
    return cp, discretize(cp, cfg.n_steps)


def _grid_spec_from_cfg(cfg: ExperimentConfig, lo, hi) -> GridSpec:
    return GridSpec(
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
        n_state_nodes=cfg.oracle_state_nodes,
        n_control_nodes=cfg.oracle_control_nodes,
        n_quad_nodes=cfg.oracle_quad_nodes,
    )


def build_drift(cfg: ExperimentConfig, dp, mu) -> DriftProcess:
    """Forward drift process named by the config."""
    if cfg.drift == "optimal":
        return DriftProcess.on_policy(mu)
    if cfg.drift == "custom":
        if cfg.drift_custom_gains is None:
            raise ValueError("drift.gains required for drift.kind = custom")
        gains = np.asarray(cfg.drift_custom_gains, dtype=float).reshape(1, dp.dim_x)
        pol = FeedbackPolicy(gains, dp.control_lower, dp.control_upper)
        return DriftProcess.on_policy(pol)
    if cfg.problem == "nonlinear1d":
        dt = dp.dt
        # comparison drift -0.2 x, treated as a rate and scaled by dt
        return DriftProcess.feedback(lambda i, x: -0.2 * np.asarray(x, dtype=float) * dt)
    gains = np.array([[0.0, 0.0, cfg.drift_k1, cfg.drift_k2]])
    pol = FeedbackPolicy(gains, dp.control_lower, dp.control_upper)
    return DriftProcess.on_policy(pol)


def build_setup(cfg: ExperimentConfig) -> ExperimentSetup:
    """Problem, ground truth, reference policy, region and drift for a config.

    For the gridded oracle the state span starts from the configured bounds
    and is rebuilt once if the measured confidence region (widened 50%)
    escapes it.
    """
    cp, dp = _build_problem(cfg)
    ref_seed = subseed(cfg.seed, "reference")

    if cfg.problem == "cartpole_lqr":
        truth = riccati_from_lqr(cp.lqr, cp.horizon, cfg.n_steps)
        mu = truth.policy(dp.control_lower, dp.control_upper)
        ref = sample_forward(
            dp, mu, DriftProcess.on_policy(mu), cfg.reference_samples, ref_seed, cfg.d_cap
        )
        region = confidence_region(
            ref, dx=cfg.metrics_dx, points_per_axis=cfg.metrics_points_per_axis or 9
        )
    else:
        lo = cfg.oracle_state_lo if cfg.oracle_state_lo is not None else [-5.0]
        hi = cfg.oracle_state_hi if cfg.oracle_state_hi is not None else [12.0]
        spec = _grid_spec_from_cfg(cfg, lo, hi)
        truth = grid_bellman(dp, spec)
        mu = GridPolicy(truth, dp.control_lower, dp.control_upper)
        ref = sample_forward(
            dp, mu, DriftProcess.on_policy(mu), cfg.reference_samples, ref_seed, cfg.d_cap
        )
        region = confidence_region(ref, dx=cfg.metrics_dx or 1e-2)
        want = GridSpec.from_region(region, widen=0.5)
        if np.any(want.lo < spec.lo) or np.any(want.hi > spec.hi):
            merged = _grid_spec_from_cfg(
                cfg, np.minimum(want.lo, spec.lo), np.maximum(want.hi, spec.hi)
            )
            truth = grid_bellman(dp, merged)
            mu = GridPolicy(truth, dp.control_lower, dp.control_upper)
            ref = sample_forward(
                dp, mu, DriftProcess.on_policy(mu), cfg.reference_samples, ref_seed, cfg.d_cap
            )
            region = confidence_region(ref, dx=cfg.metrics_dx or 1e-2)

    drift = build_drift(cfg, dp, mu)
    return ExperimentSetup(cfg=cfg, cp=cp, dp=dp, truth=truth, mu=mu, region=region, drift=drift)


def _mean_rae(model, truth, region, n_steps) -> float:
    vals = [rae(model, truth, region, i) for i in range(1, n_steps + 1)]
    out = float(np.mean(vals))
    return out if math.isfinite(out) else float("inf")


def _run_group(setup: ExperimentSetup, samples: int, trial: int) -> dict:
    """All cells sharing one forward pass; returns {(estimator, degree): row}."""
    from .value_model import scaling_from_batch

    cfg = setup.cfg
    trial_seed = subseed(cfg.seed, f"trial-{trial}")
    rows = {}
    try:
        batch = sample_forward(
            setup.dp, setup.mu, setup.drift, samples, trial_seed, cfg.d_cap
        )
    except _NUMERIC_FAILURES:
        for est in cfg.estimators:
            for deg in cfg.degrees:
                rows[(est, deg)] = _row(setup, est, deg, samples, trial, float("inf"), 0.0, trial_seed)
        return rows

    for deg in cfg.degrees:
        spec = scaling_from_batch(batch, deg)
        for est in cfg.estimators:
            start = time.perf_counter()
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    model = backward_pass(
                        setup.dp, setup.mu, batch, EstimatorKind(est), spec, cfg.ridge
                    )
                    mean_rae = _mean_rae(model, setup.truth, setup.region, cfg.n_steps)
            except _NUMERIC_FAILURES:
                mean_rae = float("inf")
            elapsed_ms = (time.perf_counter() - start) * 1e3
            rows[(est, deg)] = _row(setup, est, deg, samples, trial, mean_rae, elapsed_ms, trial_seed)
    return rows


def _row(setup, est, deg, samples, trial, mean_rae, runtime_ms, seed) -> dict:
    cfg = setup.cfg
    return {
        "problem": cfg.problem,
        "drift": cfg.drift,
        "estimator": est,
        "basis_count": math.comb(setup.dp.dim_x + deg, deg),
        "samples": samples,
        "trial": trial,
        "mean_rae": mean_rae,
        "runtime_ms": runtime_ms,
        "seed": seed,
    }


_WORKER_SETUP = None


def _init_worker(cfg_dict, truth, mu, region):
    """Rebuild the unpicklable problem closures once per worker process."""
    global _WORKER_SETUP
    cfg = ExperimentConfig(**cfg_dict)
    cp, dp = _build_problem(cfg)
    drift = build_drift(cfg, dp, mu)
    _WORKER_SETUP = ExperimentSetup(
        cfg=cfg, cp=cp, dp=dp, truth=truth, mu=mu, region=region, drift=drift
    )


def _worker_group(args):
    samples, trial = args
    return _run_group(_WORKER_SETUP, samples, trial)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple:
    """Run the configured sweep; returns (results_csv_path, manifest_path).

    ``jobs`` > 1 distributes forward-pass groups over processes; the output
    is identical to a serial run.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = build_setup(cfg)

    groups = [(samples, trial) for samples in cfg.samples for trial in range(cfg.trials)]
    if jobs > 1:
        cfg_dict = cfg.resolved()
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(cfg_dict, setup.truth, setup.mu, setup.region),
        ) as pool:
            group_rows = list(pool.map(_worker_group, groups))
    else:
        group_rows = [_run_group(setup, samples, trial) for samples, trial in groups]

    by_cell = {}
    for (samples, trial), rows in zip(groups, group_rows):
        for (est, deg), row in rows.items():
            by_cell[(est, deg, samples, trial)] = row

    results_path = out_dir / "results.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for est in cfg.estimators:
            for deg in cfg.degrees:
                for samples in cfg.samples:
                    for trial in range(cfg.trials):
                        row = dict(by_cell[(est, deg, samples, trial)])
                        row["mean_rae"] = repr(row["mean_rae"])
                        row["runtime_ms"] = repr(row["runtime_ms"])
                        writer.writerow(row)

    manifest_path = out_dir / "manifest.json"
    manifest = {"version": __version__, "config": _jsonable(cfg.resolved())}
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return results_path, manifest_path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def emit_heatmap(results_csv, output_dir=None) -> list:
    """Reduce a results file to one (basis_count x samples) matrix per estimator.

    Cells are arithmetic means of ``mean_rae`` over trials; ``inf`` sentinels
    pass through.  Returns the written file paths.

    Raises
    ------
    SchemaError
        Naming the first missing required column.
    """
    results_csv = Path(results_csv)
    out_dir = Path(output_dir) if output_dir is not None else results_csv.parent
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(results_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in ("estimator", "basis_count", "samples", "trial", "mean_rae"):
            if col not in header:
                raise SchemaError(col)
        rows = list(reader)

    cells = {}
    for row in rows:
        key = (row["estimator"], int(row["basis_count"]), int(row["samples"]))
        cells.setdefault(key, []).append(float(row["mean_rae"]))

    estimators = sorted({k[0] for k in cells})
    paths = []
    for est in estimators:
        bases = sorted({k[1] for k in cells if k[0] == est})
        counts = sorted({k[2] for k in cells if k[0] == est})
        path = out_dir / f"heatmap_{est}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["basis_count\\samples"] + [str(c) for c in counts])
            for b in bases:
                row = [str(b)]
                for c in counts:
                    vals = cells.get((est, b, c))
                    row.append(repr(float(np.mean(vals))) if vals else "")
                writer.writerow(row)
        paths.append(path)
    return paths
