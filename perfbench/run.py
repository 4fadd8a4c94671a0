"""The repository's benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload cartpole_sweep --seed 2024 --seconds 25 --trace 0

Each repetition runs ``perfbench/worker.py`` in a new process, so every
repetition pays the library's first-call costs as ``fbsde`` does.
Repetitions start until ``--seconds`` have passed and at least three
untraced ones have run.  The output files of each repetition are checked
(``workloads.check``) and digested without their timing column; the digest
must not change between repetitions.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported as
medians over the repetitions.  With ``--trace 1`` one traced repetition
gives the per-layer metrics and the untraced ones the tracing overhead.
The last line of standard output is the JSON result; the lines before it
are the run record (environment, digest, samples) and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, check, digest

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_ROOT = ROOT / ".perfbench_out"
# Serial runs: one BLAS thread keeps repetitions steady on a shared machine.
BLAS_THREADS = "1"
# Every metric is a median of at least this many untraced repetitions.
MIN_REPS = 3
# A run must end within 180 s whatever --seconds and the machine do.
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FBSDE_SEED", None)  # the config carries the seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # set iteration order cannot differ between repetitions
    return env


def run_rep(workload, seed: int, traced: bool, scratch: Path, timeout: float) -> dict:
    """One repetition: its samples, digest and failed operations."""
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    ops = workload.operations
    try:
        log_path = out_dir / "worker.log"
        cmd = [sys.executable, str(WORKER), workload.name, str(seed), str(out_dir), str(int(traced))]
        with open(log_path, "w") as log:
            try:
                proc = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                    cwd=ROOT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return {"failures": [f"timed out after {timeout:.0f} s"] * ops}
        report = out_dir / "worker.json"
        if proc.returncode != 0 or not report.exists():
            tail = log_path.read_text()[-2000:]
            return {"failures": [f"worker exited with {proc.returncode}: {tail}"] * ops}
        rep = json.loads(report.read_text())
        if rep["exit_code"] != 0:
            rep["failures"] = [f"fbsde exited with {rep['exit_code']}"] * ops
            return rep
        text = (out_dir / workload.output).read_bytes().decode()
        rep["digest"] = digest(workload.output, text)
        rep["failures"] = check(workload.name, text)
        return rep
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> tuple:
    """(traced repetition or None, untraced repetitions) over ``seconds``."""
    start = time.monotonic()
    longest = 0.0

    def rep(traced):
        nonlocal longest
        began = time.monotonic()
        out = run_rep(workload, seed, traced, scratch, DEADLINE_S - (began - start))
        longest = max(longest, time.monotonic() - began)
        return out

    traced = rep(True) if trace else None
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        if time.monotonic() - start + longest > DEADLINE_S:
            break
        reps.append(rep(False))
    return traced, reps


def samples(reps) -> dict:
    ok = [r for r in reps if "wall_s" in r]
    return {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
        "work_s": [r["wall_s"] - r["setup_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fbsde_lsmc" / "__init__.py").is_file():
        print(f"no fbsde_lsmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    # turn a termination request into an exception, so the running
    # repetition is killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    try:
        traced, reps = run(workload, seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    everything = reps + ([traced] if traced else [])
    failures = [f for r in everything for f in r["failures"]]
    attempted = workload.operations * len(everything)
    digests = sorted({r["digest"] for r in everything if "digest" in r})
    if len(digests) > 1:
        failures.append(f"output digest differs between repetitions: {digests}")
    measured = samples(reps)
    if not measured["wall_s"] or (traced is not None and "layers" not in traced):
        for reason in failures:
            print(reason, file=sys.stderr)
        return 1

    if args.trace:
        layers = dict(traced["layers"])
        # a span's wrapped children never take longer than the span itself
        failures += [f"{k} is negative" for k, v in layers.items() if k.endswith(".self_s") and v < 0]
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(measured["wall_s"])
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: statistics.median(measured[m["name"]]) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = min(len(failures), attempted)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "reps": len(reps),
        "digest": digests[0] if len(digests) == 1 else None,
        "failed_frac": failed / attempted,
        "failures": failures,
        "samples": measured,
        "env": next((r["env"] for r in everything if "env" in r), None),
    }
    print(json.dumps({"run": record}))
    print(f"{workload.name} seed={seed}: {len(reps)} untraced repetition(s), digest {record['digest']}")
    for name, metric in metrics.items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<52} {record['failed_frac']:>14.6g} ({failed}/{attempted})")
    for reason in failures:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
