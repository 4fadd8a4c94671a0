"""Compare benchmark runs of two commits.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the standard output of ``run.py``, one file per run.
Runs are paired by (workload, seed); run both commits on the same seeds,
alternating which goes first.  For every workload and end-to-end metric
this prints each side's median and quartiles, the new/old ratio of medians,
the pairs the new side won, and a verdict:

- ``better``: the new side wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the old side's interquartile
  range;
- ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the metric's bound, and not every new run beats
  every old run;
- ``worse``: the new median is worse than the old by more than the bound;
- ``same``: none of these.

It also says whether the output digests moved, and prints the per-layer
medians of traced runs when both sides have them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) as ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(old: dict, new: dict, bound: float, better: str) -> dict:
    """Verdict on one metric; ``old`` and ``new`` map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    o_q1, o_med, o_q3 = quartiles(sorted(old.values()))
    n_q1, n_med, n_q3 = quartiles(sorted(new.values()))
    seeds = sorted(old.keys() & new.keys())
    wins = sum(sign * (new[s] - old[s]) < 0 for s in seeds)
    gain = sign * (o_med - n_med)  # positive when the new side is better
    spread = max((o_q3 - o_q1) / abs(o_med), (n_q3 - n_q1) / abs(n_med))
    dominates = max(sign * v for v in new.values()) < min(sign * v for v in old.values())
    if seeds and wins >= 0.9 * len(seeds) and gain > o_q3 - o_q1:
        verdict = "better"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    elif -gain > bound * abs(o_med):
        verdict = "worse"
    else:
        verdict = "same"
    return {
        "old": (o_q1, o_med, o_q3),
        "new": (n_q1, n_med, n_q3),
        "ratio": n_med / o_med,
        "wins": wins,
        "pairs": len(seeds),
        "verdict": verdict,
    }


def load_runs(directory) -> list:
    """(run record, result) of every run output in a directory."""
    runs = []
    for path in sorted(Path(directory).iterdir()):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        records = [json.loads(ln)["run"] for ln in lines if ln.startswith('{"run": ')]
        if records and lines[-1].startswith('{"correct"'):
            runs.append((records[0], json.loads(lines[-1])))
    return runs


def _by(runs, workload: str, trace: int) -> dict:
    """seed -> (record, result) of one workload's runs."""
    return {rec["seed"]: (rec, res) for rec, res in runs
            if rec["workload"] == workload and rec["trace"] == trace}


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def report(old_runs, new_runs, spec) -> list:
    lines = []
    workloads = sorted({rec["workload"] for rec, _ in old_runs + new_runs})
    for workload in workloads:
        old, new = _by(old_runs, workload, 0), _by(new_runs, workload, 0)
        lines.append(f"{workload}: {len(old)} old run(s), {len(new)} new run(s)")
        if old and new:
            shared = old.keys() & new.keys()
            moved = sorted(s for s in shared if old[s][0]["digest"] != new[s][0]["digest"])
            lines.append(f"  output digest: {'moved on seeds ' + str(moved) if moved else 'unchanged'}")
            failed = [sum(res["failed"] for _, res in side.values()) for side in (old, new)]
            lines.append(f"  failed operations: old {failed[0]}, new {failed[1]}")
            lines.append(f"  {'metric':<14} {'old median [q1, q3]':<30} {'new median [q1, q3]':<30} {'new/old':>8} {'wins':>7}  verdict")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                v = judge(
                    {s: r[1]["metrics"][name]["value"] for s, r in old.items()},
                    {s: r[1]["metrics"][name]["value"] for s, r in new.items()},
                    metric["bound"], metric["better"],
                )
                lines.append(
                    f"  {name:<14} {_fmt(v['old']):<30} {_fmt(v['new']):<30} "
                    f"{v['ratio']:>8.4f} {v['wins']:>3}/{v['pairs']:<3}  {v['verdict']}"
                )
        old_t, new_t = _by(old_runs, workload, 1), _by(new_runs, workload, 1)
        if old_t and new_t:
            lines.append("  per-layer medians of traced runs (old -> new):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                o = statistics.median(r[1]["metrics"][name]["value"] for r in old_t.values())
                n = statistics.median(r[1]["metrics"][name]["value"] for r in new_t.values())
                if o or n:
                    ratio = f"{n / o:.4f}" if o else "-"
                    lines.append(f"    {name:<52} {o:>12.4g} -> {n:<12.4g} {ratio}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(report(load_runs(argv[0]), load_runs(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
