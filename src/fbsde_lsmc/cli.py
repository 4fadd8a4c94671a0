"""Command-line entry point.

Subcommands:

    fbsde run <config>       run the configured sweep, write results.csv
    fbsde heatmap <results>  reduce a results file to per-estimator matrices
    fbsde oracle <config>    export the configured ground truth
    fbsde diagnose <config>  bias / variance / remainder-bound report

Exit codes: 0 success, 1 invalid configuration or input schema, 2 I/O
failure, 3 numerical failure outside a sweep (inside a sweep, failed cells
are recorded as +inf and the run succeeds).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .backward import backward_sweep
from .config import load_config
from .errors import _NUMERIC_FAILURES, ConfigError, SchemaError
from .estimators import EstimatorKind
from .experiments import build_setup, emit_heatmap, run_experiment, subseed
from .metrics import bias_bound_check, report_to_csv
from .oracles import GridTruth, export_grid_csv, export_riccati_json
from .sampling import TrajectoryBatch, sample_forward
from .value_model import scaling_from_batch

_INVALID_INPUT = (ConfigError, SchemaError, ValueError)


def _load(args):
    """Load the command's config and apply ``--output``; returns (cfg, out_dir)."""
    cfg = load_config(args.config)
    if args.output is not None:
        cfg.output_dir = args.output
    return cfg, Path(cfg.output_dir)


def _cmd_run(args) -> int:
    cfg, _ = _load(args)
    results, manifest = run_experiment(cfg, jobs=args.jobs)
    print(f"wrote {results}")
    print(f"wrote {manifest}")
    return 0


def _cmd_heatmap(args) -> int:
    paths = emit_heatmap(args.results, output_dir=args.output)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    cfg, out_dir = _load(args)
    setup = build_setup(cfg, scoring=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(setup.truth, GridTruth):
        path = out_dir / "grid_truth.csv"
        export_grid_csv(setup.truth, path)
    else:
        path = out_dir / "riccati_truth.json"
        export_riccati_json(setup.truth, path)
    print(f"wrote {path}")
    return 0


def _cmd_diagnose(args) -> int:
    cfg, out_dir = _load(args)
    samples = max(cfg.samples)
    # each cell pins one trajectory of the diagnosed batch; checked here so
    # that the oracle, sampling and backward sweep are not run in vain
    if cfg.diagnose_cells > samples:
        raise ConfigError(
            "diagnose.cells must not exceed max(sweep.samples): "
            f"n_cells = {cfg.diagnose_cells} exceeds the batch size of {samples}"
        )
    setup = build_setup(cfg, scoring=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    batch = sample_forward(
        setup.dp,
        setup.mu,
        setup.drift,
        samples,
        subseed(cfg.seed, "diagnose"),
    )
    spec = scaling_from_batch(batch, cfg.degrees[0])
    step = cfg.diagnose_step if cfg.diagnose_step is not None else cfg.n_steps // 2
    # the check at step i reads only the step-(i + 1) models: fit no further
    kinds = [EstimatorKind(est) for est in cfg.estimators]
    models = backward_sweep(batch, kinds, spec, down_to=step + 1)
    # and only the batch's step i: keep copies of its columns, freeing the rest
    batch = TrajectoryBatch(
        batch.x[:, step : step + 2].copy(), batch.w[:, step : step + 1].copy(),
        batch.dp, batch.mu, batch.drift, first_step=step,
    )
    reports = bias_bound_check(
        models,
        batch,
        step,
        setup.truth,
        n_cells=cfg.diagnose_cells,
        n_rep=cfg.diagnose_reps,
        seed=subseed(cfg.seed, "diagnose-cells"),
    ).values()
    path = out_dir / "diagnostics.csv"
    report_to_csv(reports, path)
    for report in reports:
        flag = "holds" if report.verdict else "VIOLATED"
        # a cell with an infinite bound holds whatever its remainder
        vacuous = sum(math.isinf(cell.rhs) for cell in report.cells)
        cells = f"{vacuous} of {len(report.cells)} cells vacuous: rhs = inf"
        print(f"{report.kind.value}: bound {flag} ({cells}), variance {report.variance:.3g}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbsde",
        description="Backward-pass estimator experiments for stochastic control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel forward-pass groups")
    p_run.add_argument("--output", default=None, help="override run.output_dir")
    p_run.set_defaults(func=_cmd_run)

    p_hm = sub.add_parser("heatmap", help="reduce results.csv to heatmap matrices")
    p_hm.add_argument("results")
    p_hm.add_argument("--output", default=None)
    p_hm.set_defaults(func=_cmd_heatmap)

    p_or = sub.add_parser("oracle", help="export the configured ground truth")
    p_or.add_argument("config")
    p_or.add_argument("--output", default=None)
    p_or.set_defaults(func=_cmd_oracle)

    p_dg = sub.add_parser("diagnose", help="bias/variance/bound report")
    p_dg.add_argument("config")
    p_dg.add_argument("--output", default=None)
    p_dg.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_FAILURES as exc:
        step = getattr(exc, "failing_step", None)
        where = "" if step is None else f" (backward pass failed at step {step})"
        print(f"numerical failure: {exc}{where}", file=sys.stderr)
        return 3
    except _INVALID_INPUT as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
