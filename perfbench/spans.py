"""In-memory spans around the library's public functions, for the traced run.

Each wrapped function gets a span per call; its ``calls``, total seconds
``s`` and ``self_s`` (span time minus the time of wrapped child spans) are
aggregated by name.  Counters record the work a call was asked to do, at the
same boundary.  Wrappers are installed on every name a caller imports, so a
call through ``backward.lsmc_fit`` and one through ``value_model.lsmc_fit``
land in the same span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import warnings

PACKAGE = "fbsde_lsmc"


class Tracer:
    """Span and counter recorder; spans nest by call order on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self._open = []  # child-time accumulator of each open span

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(tracer, arguments, result)``
        runs after the span closes, with the call's bound arguments."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children[0]
            if count is not None:
                count(self, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Flat ``{metric name: value}`` of every span and counter."""
        out = dict(self.counts)
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        return out


def _points(x) -> int:
    """States in a batch whose last axis is the state coordinate."""
    return math.prod(getattr(x, "shape", (1,))[:-1])


def _count_eval(tracer, a, _):
    tracer.add("value_model.ValueModel.eval.points", _points(a["x"]))


def _count_derivative(order):
    name = "grad" if order == 1 else "hessian"

    def count(tracer, a, _):
        points = _points(a["x"])
        basis = a["self"].basis
        tracer.add(f"value_model.ValueModel.{name}.points", points)
        # size of the feature-derivative table the call builds, as computed
        tracer.add(
            f"value_model.ValueModel.{name}.bytes_computed",
            points * basis.size * basis.dim**order * 8,
        )

    return count


def _count_fit(tracer, a, _):
    tracer.add("value_model.lsmc_fit.rows", len(a["ys"]))


def _count_backward(tracer, a, _):
    tracer.add("backward.steps", a["dp"].n_steps + 1)


def _count_sample(tracer, a, _):
    tracer.add("sampling.sample_forward.path_steps", a["n_samples"] * a["dp"].n_steps)


def _count_pinned(tracer, a, _):
    tracer.add("sampling.pinned_step_batch.reps", a["n_samples"])


def _count_grid(tracer, a, truth):
    dp, grid = a["dp"], a["grid"]
    dim = len(grid.lo)
    states = grid.n_state_nodes**dim
    quad = grid.n_quad_nodes**dim
    controls = grid.n_control_nodes**dp.dim_u
    refined = dp.dim_u == 1 and grid.n_control_nodes >= 3
    # every (state, candidate control, quadrature node) of each step, plus the
    # one-control refinement pass; computed from the grid, not measured
    evals = dp.n_steps * states * quad * (controls + (1 if refined else 0))
    tracer.add("oracles.grid_bellman.evals", evals)
    # one float64 (state, control, node) temporary of a step, as computed
    tracer.add("oracles.grid_bellman.temp_bytes", states * controls * quad * 8)
    tracer.add("oracles.grid_bellman.escapes", truth.escape_count)


def _count_truth(tracer, a, _):
    tracer.add("oracles.GridTruth.value.points", _points(a["x"]))


def _count_rae(tracer, a, _):
    axes = a["region"].grid_axes(a["i"])
    tracer.add("metrics.rae.points", math.prod(len(ax) for ax in axes))


# (module, attribute, counter) for every layer boundary the traced run records
TARGETS = (
    ("value_model", "ValueModel.eval", _count_eval),
    ("value_model", "ValueModel.grad", _count_derivative(1)),
    ("value_model", "ValueModel.hessian", _count_derivative(2)),
    ("value_model", "lsmc_fit", _count_fit),
    ("estimators", "estimate_targets", None),
    ("estimators", "taylor_triple", None),
    ("backward", "backward_pass", _count_backward),
    ("sampling", "sample_forward", _count_sample),
    ("sampling", "pinned_step_batch", _count_pinned),
    ("oracles", "grid_bellman", _count_grid),
    ("oracles", "riccati_from_lqr", None),
    ("oracles", "GridTruth.value", _count_truth),
    ("oracles", "GridPolicy.__call__", None),
    ("metrics", "rae", _count_rae),
    ("metrics", "confidence_region", None),
    ("metrics", "bias_bound_check", None),
    ("metrics", "estimator_bias_variance", None),
    ("experiments", "build_setup", None),
)

SETUP_ONLY = tuple(t for t in TARGETS if t[1] == "build_setup")


def _counting_rank_warnings(tracer, fn):
    """``fn`` with its ``RankDeficientWarning``s counted instead of shown."""
    category = importlib.import_module(f"{PACKAGE}.errors").RankDeficientWarning

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, category):
                tracer.add("value_model.lsmc_fit.rank_deficient", 1)
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    return call


def layer_metrics(tracer: Tracer) -> dict:
    """The tracer's metrics plus oracle builds per set-up (useful = 1)."""
    out = tracer.metrics()
    setups = out.get("experiments.build_setup.calls", 0)
    if setups:
        out["experiments.build_setup.grid_builds"] = out.get("oracles.grid_bellman.calls", 0) / setups
    return out


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Replace each target, at its definition and at every importing name."""
    for module_name, attr, count in targets:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name)
        inner = _counting_rank_warnings(tracer, original) if attr == "lsmc_fit" else original
        wrapped = tracer.wrap(f"{module_name}.{attr}", inner, count)
        if owner_name:
            setattr(owner, name, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
