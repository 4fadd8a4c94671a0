"""Accuracy metrics and estimator diagnostics.

The headline metric is the relative absolute error of a fitted model against
a ground truth, summed over a regular evaluation grid inside a per-timestep
confidence region:

    RAE_i = sum_x |V~_i(x) - V*_i(x)|  /  sum_x |mean_y V*_i(y) - V*_i(x)|,

so a model equal to the truth scores 0 and the best constant predictor
scores 1.  The region at step i is the per-coordinate interval
mean +/- max(3 std, 1) of a reference forward distribution.

Diagnostics pin a (state, drift) pair, resample the step noise, and measure
the conditional bias and variance of a backward target, plus the
change-of-measure bound

    |E_ref[delta]| <= exp(||D||^2 / 2) * E_sample[delta^2]^{1/2}

on the second-order remainder delta of the expansion against an exact value
function.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDenominatorError
from .estimators import EstimatorKind, _dot, _quad, _Step, estimate_targets, taylor_triple
from .oracles import GroundTruth
from .problems import DiscreteProblem
from .sampling import TrajectoryBatch, pinned_step_batch
from .value_model import ValueModel, _step_box, basis_eval

__all__ = [
    "ConfidenceRegion",
    "BoundCell",
    "DiagnosticReport",
    "confidence_region",
    "rae",
    "estimator_bias_variance",
    "bias_bound_check",
    "report_to_csv",
]


@dataclass(frozen=True, eq=False)
class ConfidenceRegion:
    """Per-timestep, per-coordinate evaluation intervals with grid spacing.

    Exactly one of ``dx`` (arithmetic-progression spacing per coordinate) or
    ``points_per_axis`` (fixed node count per coordinate) controls the
    evaluation grid.
    """

    lower: np.ndarray
    upper: np.ndarray
    dx: Optional[float] = None
    points_per_axis: Optional[int] = None

    def __post_init__(self):
        if (self.dx is None) == (self.points_per_axis is None):
            raise ValueError("specify exactly one of dx or points_per_axis")
        if self.dx is not None and not (np.isfinite(self.dx) and self.dx > 0):
            raise ValueError(f"dx must be finite and > 0, got {self.dx!r}")
        if self.points_per_axis is not None and self.points_per_axis < 2:
            raise ValueError(f"points_per_axis must be >= 2, got {self.points_per_axis!r}")

    @property
    def dim(self) -> int:
        return self.lower.shape[1]

    def grid_axes(self, i: int) -> list:
        axes = []
        for c in range(self.dim):
            lo, hi = self.lower[i, c], self.upper[i, c]
            if self.dx is not None:
                count = int(np.floor((hi - lo) / self.dx)) + 1
                axes.append(lo + self.dx * np.arange(count))
            else:
                axes.append(np.linspace(lo, hi, self.points_per_axis))
        return axes

    def grid_points(self, i: int) -> np.ndarray:
        mesh = np.meshgrid(*self.grid_axes(i), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)


def confidence_region(
    reference_batch: TrajectoryBatch,
    dx: Optional[float] = None,
    points_per_axis: Optional[int] = None,
) -> ConfidenceRegion:
    """Evaluation region from a reference forward distribution.

    Each interval is mean +/- max(3 std, 1) per step and coordinate.  The
    default grid uses dx = 0.01 in one dimension and 9 points per axis
    otherwise.
    """
    if dx is None and points_per_axis is None:
        if reference_batch.dim == 1:
            dx = 1e-2
        else:
            points_per_axis = 9
    lower, upper = _step_box(reference_batch.x)
    return ConfidenceRegion(lower=lower, upper=upper, dx=dx, points_per_axis=points_per_axis)


def rae(m: ValueModel, gt: GroundTruth, region: ConfidenceRegion, i: int) -> float:
    """Relative absolute error of the model at step ``i`` over the region.

    The one-model case of :func:`shared_rae`.

    Raises
    ------
    DegenerateDenominatorError
        If the truth is (numerically) constant on the region.
    """
    return shared_rae([m], gt, region, i)[0]


def shared_rae(models, gt: GroundTruth, region: ConfidenceRegion, i: int) -> list:
    """:func:`rae` of each model at step ``i``, for models sharing one basis.

    The grid points, their features and the truth values are computed once
    and every model is scored against them.
    """
    if any(m.basis is not models[0].basis for m in models):
        raise ValueError("scored models must share one basis")
    pts = region.grid_points(i)
    # Freeing an untouched mapped array twice the size of the features raises
    # glibc's mmap and trim thresholds (mallopt(3)), as in grid_bellman, so
    # each step's features reuse heap pages instead of faulting in fresh ones
    np.empty(2 * len(pts) * models[0].basis.size)
    phi = basis_eval(models[0].basis, i, pts)
    v_true = np.asarray(gt.value(i, pts), dtype=float)
    denominator = float(np.sum(np.abs(v_true.mean() - v_true)))
    scale = max(1.0, float(np.sum(np.abs(v_true))))
    if denominator <= 1e-15 * scale:
        raise DegenerateDenominatorError(
            f"ground truth is constant on the region at step {i}"
        )
    return [float(np.sum(np.abs(m.from_features(i, phi) - v_true))) / denominator for m in models]


def _centered_variance(values: np.ndarray) -> float:
    """Sample variance, exactly 0.0 for a bitwise-constant sample."""
    shifted = values - values[0]
    return float(np.mean((shifted - shifted.mean()) ** 2))


def estimator_bias_variance(
    kind: EstimatorKind,
    dp: DiscreteProblem,
    mu,
    m: ValueModel,
    i: int,
    x_pin,
    k_pin,
    n_rep: int,
    seed: int,
    truth: Optional[GroundTruth] = None,
) -> tuple:
    """Conditional (bias, variance) of a target at pinned (state, drift).

    Resamples the step noise ``n_rep`` times with (X_i, K_i) held fixed.
    ``bias`` is ``mean(Yhat) - V_i(x_pin)`` against the supplied truth, or
    ``None`` when no truth is available; the variance is returned either way.
    """
    if n_rep < 2:
        raise ValueError(f"n_rep must be >= 2, got {n_rep}")
    step = _pinned_step(m.basis, dp, mu, i, x_pin, k_pin, n_rep, seed)
    return _pinned_bias_variance(kind, m, step, truth)


def _pinned_step(spec, dp, mu, i: int, x_pin, k_pin, n_rep: int, seed: int) -> _Step:
    """Step ``i`` of ``pinned_step_batch(dp, mu, i, x_pin, k_pin, n_rep, seed)``
    with Phi(X + K) on one row: every row shares (X_i, K_i), and a product over
    all rows rounds its tail rows differently, which would make the noiseless
    target vary between rows.  Sigma and the stage cost stay per-row: taken
    from one row they round differently (a broadcast Mbar in the quadratic-form
    einsum, a one-row policy product)."""
    step = _Step(spec, pinned_step_batch(dp, mu, i, x_pin, k_pin, n_rep, seed), i)
    step.phi_bar = basis_eval(spec, i + 1, step.x_i[:1] + step.batch.drift_step(i)[2][:1])
    return step


def _pinned_bias_variance(kind, m, step: _Step, truth):
    """(bias, variance) of a target over the pinned batch of ``step``."""
    yhat = estimate_targets(kind, m, step.batch, step.i, step)
    variance = _centered_variance(yhat)
    if truth is None:
        return None, variance
    v_true = float(truth.value(step.i, step.x_i[0]))
    return float(yhat.mean() - v_true), variance


@dataclass(frozen=True, eq=False)
class BoundCell:
    """One pinned (state, drift) cell of the remainder-bias bound check."""

    d_norm: float
    lhs: float
    rhs: float
    stderr: float
    holds: bool


@dataclass(eq=False)
class DiagnosticReport:
    """Bias/variance/bound measurements of one estimator at one backward step.

    ``bias`` and ``variance`` are those of the first cell's pinned batch, and
    the reports of one :func:`bias_bound_check` call share their cells' pinned
    batches; the fit residual is |V~_{i+1} - V_{i+1}| at the batch's X_{i+1}.
    """

    step: int
    kind: EstimatorKind
    bias: Optional[float]
    variance: float
    cells: list
    fit_residual_mean: float
    fit_residual_max: float

    @property
    def verdict(self) -> bool:
        return all(c.holds for c in self.cells)


def bias_bound_check(
    models: dict,
    batch: TrajectoryBatch,
    i: int,
    truth: GroundTruth,
    n_cells: int = 5,
    n_rep: int = 4000,
    seed: int = 0,
) -> dict:
    """Check the remainder-bias bound of each model on pinned cells of a batch.

    ``models`` is ``{kind: model}`` as :func:`backward_sweep` returns it; the
    models must share one basis, a failed fit's exception is raised, and a
    model without step ``i + 1`` raises ``NotFittedError`` before any pinned
    batch is formed.  Only the step-(i + 1) coefficients are read.  For
    each of the first ``n_cells`` trajectories, the pair (X_i, K_i) is pinned,
    the step noise is resampled ``n_rep`` times, and the remainder

        delta = V_{i+1}(X_{i+1}) - [Ybar + Zbar.W + W.Mbar.W / 2]

    (exact truth minus second-order expansion of the model) is measured.  The
    cell holds when |reweighted mean of delta| <= exp(||D||^2/2) *
    rms(delta) + 3 stderr.  Every model is scored on each cell's one pinned
    batch, so each returned ``{kind: DiagnosticReport}`` entry equals a
    one-model call's with the same ``seed``.  Its bias and variance are those
    of its kind on the first cell's batch, equal to :func:`estimator_bias_variance`
    at trajectory 0's (X_i, K_i) with the same ``n_rep`` and ``seed``.
    """
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    if n_cells > batch.n_samples:
        raise ValueError(f"n_cells = {n_cells} exceeds the batch size of {batch.n_samples}")
    if n_rep < 2:
        raise ValueError(f"n_rep must be >= 2, got {n_rep}")
    for m in models.values():
        if isinstance(m, Exception):
            raise m
    if len({id(m.basis) for m in models.values()}) != 1:
        raise ValueError("checked models must be one or more sharing one basis")
    spec = next(iter(models.values())).basis
    step = _Step(spec, batch, i)  # ValueError for a step the batch does not cover
    for m in models.values():
        m._require(i + 1)  # NotFittedError before any pinned batch is formed
    k_i = batch.drift_step(i)[2]
    pairs, cells = {}, {kind: [] for kind in models}
    for cell_idx in range(n_cells):
        pinned = _pinned_step(
            spec, batch.dp, batch.mu, i, step.x_i[cell_idx], k_i[cell_idx], n_rep, seed + cell_idx
        )
        v_next = np.asarray(truth.value(i + 1, pinned.x_next), dtype=float)
        theta = np.exp(pinned.batch.log_theta[:, i + 1 - pinned.batch.first_step])
        for kind, m in models.items():
            if cell_idx == 0:
                pairs[kind] = _pinned_bias_variance(kind, m, pinned, truth)
            cells[kind].append(_bound_cell(m, pinned, v_next, theta))
        del pinned  # one cell's pinned batch alive at a time

    v_true = np.asarray(truth.value(i + 1, step.x_next), dtype=float)
    reports = {}
    for kind, m in models.items():
        resid = np.abs(m.from_features(i + 1, step.phi_next) - v_true)
        reports[kind] = DiagnosticReport(
            i, kind, *pairs[kind], cells[kind], float(resid.mean()), float(resid.max())
        )
    return reports


def _bound_cell(m: ValueModel, step: _Step, v_next, theta) -> BoundCell:
    """The :class:`BoundCell` of a model on a pinned step, given V_{i+1}(X_{i+1})
    and the weights."""
    i = step.i
    sigma, _, k, d = step.batch.drift_step(i)
    tri = taylor_triple(m, i, step.x_i, k, sigma, step.phi_bar)
    expansion = tri.ybar + _dot(tri.zbar, step.w) + 0.5 * _quad(tri.mbar, step.w)
    delta = v_next - expansion

    weighted = theta * delta
    lhs = float(np.abs(weighted.mean()))
    stderr = float(np.std(weighted, ddof=1) / np.sqrt(delta.shape[0]))
    d_norm = float(np.linalg.norm(d[0]))
    with np.errstate(over="ignore"):
        # an infinite bound is the honest value for very large drifts
        rhs = float(np.exp(0.5 * d_norm**2) * np.sqrt(np.mean(delta**2)))
    return BoundCell(
        d_norm=d_norm, lhs=lhs, rhs=rhs, stderr=stderr, holds=bool(lhs <= rhs + 3.0 * stderr)
    )


def report_to_csv(reports, path) -> None:
    """Serialize bound-check cells: one row per (step, cell).

    Header: step, kind, cell, d_norm, lhs, rhs, stderr, holds, bias,
    variance, fit_residual_mean, fit_residual_max.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "step",
                "kind",
                "cell",
                "d_norm",
                "lhs",
                "rhs",
                "stderr",
                "holds",
                "bias",
                "variance",
                "fit_residual_mean",
                "fit_residual_max",
            ]
        )
        for report in reports:
            for idx, cell in enumerate(report.cells):
                writer.writerow(
                    [
                        report.step,
                        report.kind.value,
                        idx,
                        repr(cell.d_norm),
                        repr(cell.lhs),
                        repr(cell.rhs),
                        repr(cell.stderr),
                        int(cell.holds),
                        "" if report.bias is None else repr(report.bias),
                        repr(report.variance),
                        repr(report.fit_residual_mean),
                        repr(report.fit_residual_max),
                    ]
                )
