"""The benchmark's workloads: their configs, output digests and correctness checks.

Stdlib only, so the driving process never imports the library it measures.
Each workload is one ``fbsde`` CLI call on a config written here; the seed
is the only input that varies between runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

ESTIMATORS = ("taylor_noiseless", "taylor_reestimate", "em_noiseless", "em_noisy")
_SWEEP = f"sweep.estimators = {','.join(ESTIMATORS)}"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fbsde subcommand
    default_seed: int
    config: str  # config text with {seed} and {out} placeholders
    output: str  # file whose content is checked and digested
    operations: int  # sweep cells or diagnose estimators; a raising run fails all

    def config_text(self, seed: int, out_dir: str) -> str:
        return self.config.format(seed=seed, out=out_dir)


# Cart-pole sweep at degree 4 (B = 70): the backward pass (basis Hessian,
# gradient, lstsq) and RAE scoring dominate; the Riccati oracle is cheap.
CARTPOLE_SWEEP = Workload(
    name="cartpole_sweep",
    command="run",
    default_seed=2024,
    output="results.csv",
    operations=4,
    config=f"""\
problem.name = cartpole_lqr
run.n_steps = 100
run.seed = {{seed}}
run.trials = 1
run.ridge = 0
run.output_dir = {{out}}
drift.kind = suboptimal
drift.k1 = -25
drift.k2 = -5
{_SWEEP}
sweep.degrees = 4
sweep.samples = 1024
sampling.reference_samples = 1024
metrics.points_per_axis = 9
""",
)

# Scalar sweep: the gridded oracle (half the shipped grid's states, a quarter
# of its controls; same kernel and 200-step discretisation) dominates set-up,
# sized so that three repetitions fit in under a minute; the sweep is
# 3,200 tiny 1-D backward steps bound by per-call overhead.  The control box
# is widened from 20 to 40: with 20 the control cannot hold back the
# quadratic drift above x = 9.3, so about one 4,096-path batch in 60 blows
# up, leaves the oracle grid and aborts the whole run (seed 104 does).
SCALAR_SWEEP = Workload(
    name="scalar_sweep",
    command="run",
    default_seed=515,
    output="results.csv",
    operations=16,
    config=f"""\
problem.name = nonlinear1d
problem.u_max = 40
run.n_steps = 200
run.seed = {{seed}}
run.trials = 2
run.output_dir = {{out}}
drift.kind = optimal
{_SWEEP}
sweep.degrees = 4
sweep.samples = 256,4096
sampling.reference_samples = 1024
metrics.dx = 0.01
oracle.state_lo = -5
oracle.state_hi = 12
oracle.state_nodes = 1001
oracle.control_nodes = 51
oracle.quad_nodes = 21
""",
)

# The `fbsde diagnose` path on the shipped cart-pole config (degree 2,
# M = 1024): four backward passes, then the bias-bound check at step 50 on
# 4,000-row pinned batches.  The config is copied here so that edits to the
# shipped file cannot change the workload.
CARTPOLE_DIAGNOSE = Workload(
    name="cartpole_diagnose",
    command="diagnose",
    default_seed=2024,
    output="diagnostics.csv",
    operations=4,
    config=f"""\
problem.name = cartpole_lqr
run.n_steps = 100
run.seed = {{seed}}
run.trials = 1
run.ridge = 0
run.output_dir = {{out}}
drift.kind = suboptimal
drift.k1 = -25
drift.k2 = -5
{_SWEEP}
sweep.degrees = 2
sweep.samples = 1024
sampling.reference_samples = 1024
""",
)

WORKLOADS = {w.name: w for w in (CARTPOLE_SWEEP, SCALAR_SWEEP, CARTPOLE_DIAGNOSE)}


def digest(name: str, text: str) -> str:
    """SHA-256 of an output file with the timing column removed.

    For results files only the ``runtime_ms`` column is dropped; every other
    byte, header included, is kept.  Diagnostics files carry no timing and
    are hashed whole.
    """
    if name == "results.csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        drop = rows[0].index("runtime_ms")
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow(row[:drop] + row[drop + 1 :])
        text = buf.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(value: str) -> bool:
    return math.isfinite(float(value))


def check(workload: str, text: str) -> list:
    """Failed operations of one run, as human-readable reasons.

    An operation fails if it recorded a non-finite value or broke one of the
    paper's acceptance properties that the workload exercises.
    """
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    failures = []
    if workload == "cartpole_sweep":
        # criteria 1 and 2: Taylor near machine precision, EM diverges
        for row in rows:
            est, err = row["estimator"], float(row["mean_rae"])
            if not math.isfinite(err):
                failures.append(f"{est}: non-finite RAE")
            elif est == "taylor_noiseless" and not err < 1e-6:
                failures.append(f"{est}: RAE {err!r} >= 1e-6")
            elif est.startswith("em_") and not err > 1e-1:
                failures.append(f"{est}: RAE {err!r} <= 1e-1")
    elif workload == "scalar_sweep":
        by_cell = {(r["estimator"], r["samples"], r["trial"]): r for r in rows}
        for (est, samples, trial), row in sorted(by_cell.items()):
            if not _finite(row["mean_rae"]):
                failures.append(f"{est} M={samples} trial={trial}: non-finite RAE")
            elif est == "taylor_noiseless":
                em = float(by_cell[("em_noisy", samples, trial)]["mean_rae"])
                if not float(row["mean_rae"]) < em:
                    failures.append(
                        f"{est} M={samples} trial={trial}: RAE not below em_noisy {em!r}"
                    )
    elif workload == "cartpole_diagnose":
        # criteria 4 and 7: zero noiseless variance, every bound cell holds
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row["kind"], []).append(row)
        for kind in ESTIMATORS:
            cells = by_kind.get(kind, [])
            if not cells:
                failures.append(f"{kind}: no bound cells")
            elif any(r["holds"] != "1" for r in cells):
                failures.append(f"{kind}: bound violated")
            elif not all(_finite(r["lhs"]) and _finite(r["variance"]) for r in cells):
                failures.append(f"{kind}: non-finite diagnostics")
            elif kind == "taylor_noiseless" and float(cells[0]["variance"]) != 0.0:
                failures.append(f"{kind}: variance {cells[0]['variance']} != 0.0")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return failures
