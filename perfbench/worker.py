"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR TRACE

Imports the library from the checkout's ``src`` (imports are not timed),
writes the workload's config to OUT_DIR, runs the ``fbsde`` subcommand on it
and writes ``worker.json`` beside the outputs.  ``run.py`` starts this; it
is not meant to be run by hand.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas_threads(numpy) -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "cpu": _cpu_model(),
    }


def main(argv) -> int:
    name, seed, out_dir, traced = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(SRC))
    import fbsde_lsmc
    from fbsde_lsmc import cli

    if Path(fbsde_lsmc.__file__).resolve().parent != SRC / "fbsde_lsmc":
        print(f"fbsde_lsmc imported from {fbsde_lsmc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[name]
    config = out_dir / "workload.cfg"
    config.write_text(workload.config_text(seed, str(out_dir)))
    tracer = spans.Tracer()
    spans.install(tracer, spans.TARGETS if traced else spans.SETUP_ONLY)

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([workload.command, str(config)])
        wall = time.perf_counter() - start

    metrics = spans.layer_metrics(tracer)
    result = {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": metrics.get("experiments.build_setup.s", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": metrics if traced else {},
        "env": environment(),
    }
    (out_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
