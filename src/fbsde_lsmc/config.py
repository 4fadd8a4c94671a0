"""Flat key=value experiment configuration.

The format is plain text, one ``section.key = value`` per line.  A ``#``
at the start of a line or after whitespace starts a comment; elsewhere it
is part of the value.  Lists are comma separated.  It parses with no
dependencies and diffs cleanly.  Unknown and repeated keys are rejected so
typos fail loudly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError

__all__ = ["ExperimentConfig", "parse_config_text", "load_config"]

_VALID_PROBLEMS = ("nonlinear1d", "cartpole_lqr")
_VALID_DRIFTS = ("optimal", "suboptimal")
_VALID_ESTIMATORS = ("taylor_noiseless", "taylor_reestimate", "em_noiseless", "em_noisy")


@dataclass
class ExperimentConfig:
    """Resolved experiment settings; see the README for the full key table.

    A field whose key has a scope (``_SCOPES``) is ``None`` under the problems
    and drift kinds that do not read it, and defaults where they do.
    """

    problem: str = "nonlinear1d"
    n_steps: Optional[int] = None
    seed: int = 0
    trials: int = 1
    output_dir: str = "results"

    drift: str = "optimal"
    drift_k1: Optional[float] = None
    drift_k2: Optional[float] = None

    estimators: list = field(default_factory=lambda: list(_VALID_ESTIMATORS))
    degrees: list = field(default_factory=lambda: [1, 2, 3, 4, 5, 6])
    samples: list = field(default_factory=lambda: [16, 64, 256, 1024, 4096])

    reference_samples: int = 1024

    u_max: Optional[float] = None

    oracle_state_lo: Optional[float] = None
    oracle_state_hi: Optional[float] = None
    oracle_state_nodes: Optional[int] = None
    oracle_control_nodes: Optional[int] = None
    oracle_quad_nodes: Optional[int] = None

    metrics_dx: Optional[float] = None
    metrics_points_per_axis: Optional[int] = None

    diagnose_step: Optional[int] = None
    diagnose_cells: int = 5
    diagnose_reps: int = 4000

    def __post_init__(self):
        if self.problem not in _VALID_PROBLEMS:
            raise ConfigError(f"problem.name must be one of {_VALID_PROBLEMS}")
        if self.drift not in _VALID_DRIFTS:
            raise ConfigError(f"drift.kind must be one of {_VALID_DRIFTS}")
        for est in self.estimators:
            if est not in _VALID_ESTIMATORS:
                raise ConfigError(f"unknown estimator {est!r}")
        for name in ("estimators", "degrees", "samples"):
            entries = getattr(self, name)
            if not entries:
                raise ConfigError(f"sweep.{name} must be nonempty")
            if len(set(entries)) < len(entries):
                raise ConfigError(f"sweep.{name} entries must be distinct, got {entries}")
        for key, (problems, kinds) in _SCOPES.items():
            attr = _KEYS[key][0]
            if self._reads(key):
                if getattr(self, attr) is None:
                    setattr(self, attr, _SCOPED_DEFAULTS.get(key))
            elif getattr(self, attr) is not None:
                if self.problem not in problems:
                    raise ConfigError(f"{key} is not read by problem.name = {self.problem}")
                raise ConfigError(f"{key} is not read with drift.kind = {self.drift}")
        if self.n_steps is None:
            self.n_steps = 200 if self.problem == "nonlinear1d" else 100
        for key, value, low in (
            ("run.trials", self.trials, 1),
            ("run.n_steps", self.n_steps, 1),
            ("sweep.degrees", min(self.degrees), 0),
            ("sweep.samples", min(self.samples), 1),
            ("sampling.reference_samples", self.reference_samples, 1),
            ("oracle.state_nodes", self.oracle_state_nodes, 2),
            ("oracle.control_nodes", self.oracle_control_nodes, 1),
            ("oracle.quad_nodes", self.oracle_quad_nodes, 1),
            ("diagnose.cells", self.diagnose_cells, 1),
            ("diagnose.reps", self.diagnose_reps, 2),
        ):
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        if self.diagnose_step is not None and not 0 <= self.diagnose_step < self.n_steps:
            raise ConfigError(
                f"diagnose.step must be in [0, run.n_steps) = [0, {self.n_steps}), "
                f"got {self.diagnose_step}"
            )
        for key, value in (("drift.k1", self.drift_k1), ("drift.k2", self.drift_k2)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        for key, value in (
            ("problem.u_max", self.u_max),
            ("metrics.dx", self.metrics_dx),
        ):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {value}")
        lo, hi = self.oracle_state_lo, self.oracle_state_hi
        if lo is not None and not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(
                f"oracle.state_lo / oracle.state_hi must be finite with lo < hi, got {lo} / {hi}"
            )
        if self.metrics_dx is not None and self.metrics_points_per_axis is not None:
            raise ConfigError("set at most one of metrics.dx and metrics.points_per_axis")
        if self.metrics_points_per_axis is not None and self.metrics_points_per_axis < 2:
            raise ConfigError("metrics.points_per_axis must be >= 2")

    def _reads(self, key: str) -> bool:
        """Whether this problem and drift kind read the config ``key``."""
        problems, kinds = _SCOPES.get(key, (_VALID_PROBLEMS, _VALID_DRIFTS))
        return self.problem in problems and self.drift in kinds

    def resolved(self) -> dict:
        """The settings this run reads, by attribute name."""
        return {attr: getattr(self, attr) for key, (attr, _) in _KEYS.items() if self._reads(key)}


_COMMENT = re.compile(r"(?<!\S)#")


def _parse_int_list(s: str) -> list:
    return [int(v) for v in s.split(",") if v.strip()]


def _parse_str_list(s: str) -> list:
    return [v.strip() for v in s.split(",") if v.strip()]


# key -> (attribute, parser)
_KEYS = {
    "problem.name": ("problem", str),
    "problem.u_max": ("u_max", float),
    "run.n_steps": ("n_steps", int),
    "run.seed": ("seed", int),
    "run.trials": ("trials", int),
    "run.output_dir": ("output_dir", str),
    "drift.kind": ("drift", str),
    "drift.k1": ("drift_k1", float),
    "drift.k2": ("drift_k2", float),
    "sweep.estimators": ("estimators", _parse_str_list),
    "sweep.degrees": ("degrees", _parse_int_list),
    "sweep.samples": ("samples", _parse_int_list),
    "sampling.reference_samples": ("reference_samples", int),
    "oracle.state_lo": ("oracle_state_lo", float),
    "oracle.state_hi": ("oracle_state_hi", float),
    "oracle.state_nodes": ("oracle_state_nodes", int),
    "oracle.control_nodes": ("oracle_control_nodes", int),
    "oracle.quad_nodes": ("oracle_quad_nodes", int),
    "metrics.dx": ("metrics_dx", float),
    "metrics.points_per_axis": ("metrics_points_per_axis", int),
    "diagnose.step": ("diagnose_step", int),
    "diagnose.cells": ("diagnose_cells", int),
    "diagnose.reps": ("diagnose_reps", int),
}

# retired float keys, accepted only at the value every run now uses:
# key -> (value, reason)
_RETIRED = {"run.ridge": (0.0, "every fit is plain minimum-norm least squares")}

# keys that only some problems or drift kinds read: key -> (problems, kinds);
# setting one anywhere else would do nothing, so it is rejected
_SCOPES = {
    "problem.u_max": (("nonlinear1d",), _VALID_DRIFTS),
    "drift.k1": (("cartpole_lqr",), ("suboptimal",)),
    "drift.k2": (("cartpole_lqr",), ("suboptimal",)),
    **{key: (("nonlinear1d",), _VALID_DRIFTS) for key in _KEYS if key.startswith("oracle.")},
}

# values of scoped keys where they are read and not set
_SCOPED_DEFAULTS = {
    "problem.u_max": 20.0,
    "drift.k1": -25.0,
    "drift.k2": -5.0,
    "oracle.state_lo": -5.0,
    "oracle.state_hi": 12.0,
    "oracle.state_nodes": 2001,
    "oracle.control_nodes": 201,
    "oracle.quad_nodes": 21,
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse configuration text into a validated :class:`ExperimentConfig`."""
    kwargs, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS and key not in _RETIRED:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        attr, parser = _KEYS.get(key, (None, float))
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if key in _RETIRED:
            accepted, reason = _RETIRED[key]
            if parsed != accepted:
                raise ConfigError(
                    f"line {lineno}: {key} is retired ({reason}); "
                    f"only {accepted:g} is accepted, got {value}"
                )
        else:
            kwargs[attr] = parsed
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    """Load and parse a config file."""
    with open(path) as fh:
        return parse_config_text(fh.read())
