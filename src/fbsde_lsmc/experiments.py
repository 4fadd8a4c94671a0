"""Experiment orchestration: sweeps, result emission, heatmap reduction.

One experiment cell is a tuple (estimator, degree, samples, trial).  Cells
sharing (samples, trial) reuse a single forward pass.  For each degree, the
estimators are fitted together in one lockstep backward sweep, and each
fitted model is scored by its relative absolute error against the
configured ground truth, averaged over timesteps 1..N; the grid features
and truth values of a step are computed once for all of them.  Step 0
is excluded from the average: the initial state is deterministic, so its
regression sees a single repeated state and cannot identify the value away
from it.  No score reads step 0, so the sweep stops at step 1.  A score
reads only the fitted models, so a group's batch is released once every
degree's sweep is done, before any of them is scored.

The gridded oracle is built once, on the configured span, which must
contain the reference confidence region widened by half.  That region is
the domain of the scores; the set-up samples it only for a caller that
scores against it, or for the gridded oracle's span check.  Numerical
divergence inside a cell, including a sampled path leaving the gridded
oracle's domain, is recorded as a ``+inf`` error and the sweep
continues.  All emitted bytes except the ``runtime_ms`` column are a
deterministic function of (config, seed).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .backward import backward_sweep
from .config import ExperimentConfig
from .errors import _NUMERIC_FAILURES, ConfigError, SchemaError
from .estimators import EstimatorKind
from .metrics import confidence_region, shared_rae
from .oracles import (
    GridPolicy,
    GridSpec,
    grid_bellman,
    riccati_from_lqr,
)
from .problems import (
    FeedbackPolicy,
    build_cartpole_lqr,
    build_nonlinear_1d,
    discretize,
)
from .sampling import DriftProcess, sample_forward
from .value_model import scaling_from_batch

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

def subseed(base: int, tag: str) -> int:
    """Stable 64-bit sub-seed for a named purpose."""
    digest = hashlib.blake2b(f"{base}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(eq=False)
class ExperimentSetup:
    """Everything a sweep cell needs besides the forward batch.

    ``region`` is ``None`` when the set-up formed no reference region (see
    :func:`build_setup`).
    """

    cfg: ExperimentConfig
    dp: object
    truth: object
    mu: object
    region: object
    drift: DriftProcess


def _build_problem(cfg: ExperimentConfig):
    if cfg.problem == "nonlinear1d":
        cp = build_nonlinear_1d(u_max=cfg.u_max)
    else:
        cp = build_cartpole_lqr()
    return discretize(cp, cfg.n_steps)


def build_drift(cfg: ExperimentConfig, dp, mu) -> DriftProcess:
    """Forward drift process named by the config."""
    if cfg.drift == "optimal":
        return DriftProcess.on_policy(mu)
    if cfg.drift == "suboptimal" and cfg.problem == "nonlinear1d":
        dt = dp.dt
        # comparison drift -0.2 x, treated as a rate and scaled by dt
        return DriftProcess.feedback(lambda i, x: -0.2 * np.asarray(x, dtype=float) * dt)
    # cart-pole: feedback on the pole angle and its rate
    gains = [[0, 0, cfg.drift_k1, cfg.drift_k2]]
    return DriftProcess.on_policy(FeedbackPolicy(gains, dp.control_lower, dp.control_upper))


def _reference_region(cfg: ExperimentConfig, dp, mu):
    """Confidence region of an on-policy reference batch under ``mu``."""
    ref = sample_forward(
        dp,
        mu,
        DriftProcess.on_policy(mu),
        cfg.reference_samples,
        subseed(cfg.seed, "reference"),
    )
    return confidence_region(
        ref, dx=cfg.metrics_dx, points_per_axis=cfg.metrics_points_per_axis
    )


def build_setup(cfg: ExperimentConfig, *, scoring: bool = True) -> ExperimentSetup:
    """Problem, ground truth, reference policy, region and drift for a config.

    The gridded oracle is built once, on the configured span
    [``oracle.state_lo``, ``oracle.state_hi``].  That span must contain the
    reference confidence region widened by half (``GridSpec.from_region``);
    otherwise ``ConfigError`` names both keys and the span needed.

    The reference region is sampled only where something reads it: when the
    caller scores against it (``scoring``, the default) or for the gridded
    oracle's span check.  A caller that scores nothing passes
    ``scoring=False``; on the Riccati truth its ``region`` is then ``None``.
    """
    dp = _build_problem(cfg)

    if cfg.problem == "cartpole_lqr":
        truth = riccati_from_lqr(dp)
        mu = truth.policy()
    else:
        spec = GridSpec(
            lo=np.array([cfg.oracle_state_lo], dtype=float),
            hi=np.array([cfg.oracle_state_hi], dtype=float),
            n_state_nodes=cfg.oracle_state_nodes,
            n_control_nodes=cfg.oracle_control_nodes,
            n_quad_nodes=cfg.oracle_quad_nodes,
        )
        truth = grid_bellman(dp, spec)
        mu = GridPolicy(truth)
    gridded = cfg.problem == "nonlinear1d"
    region = _reference_region(cfg, dp, mu) if scoring or gridded else None
    if gridded:
        lo, hi = cfg.oracle_state_lo, cfg.oracle_state_hi
        need = GridSpec.from_region(region)
        if need.lo[0] < lo or need.hi[0] > hi:
            raise ConfigError(
                f"oracle.state_lo = {lo:g} and oracle.state_hi = {hi:g} must contain the "
                f"reference confidence region widened by half, [{need.lo[0]:g}, {need.hi[0]:g}]"
            )

    drift = build_drift(cfg, dp, mu)
    return ExperimentSetup(cfg=cfg, dp=dp, truth=truth, mu=mu, region=region, drift=drift)


def _mean_raes(models: dict, truth, region, n_steps) -> dict:
    """Mean RAE over steps 1..N of each fitted ``{kind: model}``; +inf where the scoring failed."""
    out = dict.fromkeys(models, float("inf"))
    if not models:
        return out
    scored = list(models.values())
    try:
        per_step = [shared_rae(scored, truth, region, i) for i in range(1, n_steps + 1)]
    except _NUMERIC_FAILURES:
        return out
    for kind, vals in zip(models, zip(*per_step)):
        mean = float(np.mean(vals))
        out[kind] = mean if math.isfinite(mean) else float("inf")
    return out


def _run_group(setup: ExperimentSetup, samples: int, trial: int) -> dict:
    """All cells sharing one forward pass; returns {(estimator, degree): (mean_rae, runtime_ms)}.

    The estimators of each degree are fitted in one lockstep sweep, every
    degree's sweep first.  A score reads only the fitted models, so the batch
    is released before any degree is scored; a failed fit's cell stays
    ``inf`` and its exception, whose traceback frames hold the batch, is
    dropped.  Each of a degree's cells gets an equal share of that degree's
    sweep and scoring wall time.  The fields that do not vary per cell are
    left to ``run_experiment``.
    """
    cfg = setup.cfg
    kinds = [EstimatorKind(est) for est in cfg.estimators]
    try:
        batch = sample_forward(
            setup.dp, setup.mu, setup.drift, samples, subseed(cfg.seed, f"trial-{trial}")
        )
    except _NUMERIC_FAILURES:
        batch = None
    fits = {}
    for deg in cfg.degrees:
        start = time.perf_counter()
        models = {}
        if batch is not None:
            spec = scaling_from_batch(batch, deg)
            with np.errstate(over="ignore", invalid="ignore"):
                fitted = backward_sweep(batch, kinds, spec, down_to=1)
            models = {kind: m for kind, m in fitted.items() if not isinstance(m, Exception)}
        fits[deg] = (models, time.perf_counter() - start)
    batch = fitted = None
    cells = {}
    for deg, (models, elapsed) in fits.items():
        start = time.perf_counter()
        scores = dict.fromkeys(kinds, float("inf"))
        with np.errstate(over="ignore", invalid="ignore"):
            scores.update(_mean_raes(models, setup.truth, setup.region, cfg.n_steps))
        elapsed_ms = (elapsed + time.perf_counter() - start) * 1e3 / len(kinds)
        for est, kind in zip(cfg.estimators, kinds):
            cells[(est, deg)] = (scores[kind], elapsed_ms)
    return cells


_WORKER_SETUP = None


def _init_worker(cfg, truth, mu, region):
    """Rebuild the unpicklable problem closures once per worker process."""
    global _WORKER_SETUP
    dp = _build_problem(cfg)
    drift = build_drift(cfg, dp, mu)
    _WORKER_SETUP = ExperimentSetup(
        cfg=cfg, dp=dp, truth=truth, mu=mu, region=region, drift=drift
    )


def _worker_group(group):
    return _run_group(_WORKER_SETUP, *group)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple:
    """Run the configured sweep; returns (results_csv_path, manifest_path).

    ``jobs`` > 1 distributes forward-pass groups over processes; the output
    is identical to a serial run.  ``jobs`` < 1 raises ``ValueError`` before
    any work.  The output directory is created once the set-up has
    succeeded, before the sweep.  Each group returns only its per-cell
    scores; the rows are formed here, one per (estimator, degree, samples,
    trial) in that order, with the constant fields taken from the config.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    setup = build_setup(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups = list(itertools.product(cfg.samples, range(cfg.trials)))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never load the pool
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(cfg, setup.truth, setup.mu, setup.region),
        ) as pool:
            scores = dict(zip(groups, pool.map(_worker_group, groups)))
    else:
        scores = {group: _run_group(setup, *group) for group in groups}

    results_path = out_dir / "results.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        cells = itertools.product(cfg.estimators, cfg.degrees, cfg.samples, range(cfg.trials))
        for est, deg, samples, trial in cells:
            basis_count = math.comb(setup.dp.dim_x + deg, deg)
            mean_rae, runtime_ms = scores[(samples, trial)][(est, deg)]
            seed = subseed(cfg.seed, f"trial-{trial}")
            writer.writerow(
                [cfg.problem, cfg.drift, est, basis_count, samples, trial, mean_rae, runtime_ms, seed]
            )

    manifest_path = out_dir / "manifest.json"
    manifest = {"version": __version__, "config": cfg.resolved()}
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return results_path, manifest_path


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
