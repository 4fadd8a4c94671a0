"""Flat key=value experiment configuration.

The format is plain text, one ``section.key = value`` per line.  A ``#``
at the start of a line or after whitespace starts a comment; elsewhere it
is part of the value.  Lists are comma separated.  It parses with no
dependencies and diffs cleanly.  Unknown and repeated keys are rejected so
typos fail loudly.

Each key is one :class:`ExperimentConfig` field, whose declaration is the one
source for its parser, default, scope, least value and, for a name, its
choices; ``_KEYS`` gathers these rows by key.  Every float key must be finite.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError
from .estimators import EstimatorKind

__all__ = ["ExperimentConfig", "parse_config_text", "load_config"]

_VALID_PROBLEMS = ("nonlinear1d", "cartpole_lqr")
_VALID_DRIFTS = ("optimal", "suboptimal")
_VALID_ESTIMATORS = tuple(kind.value for kind in EstimatorKind)

# (problems, drift kinds) that read a scoped key; setting one anywhere else
# would do nothing, so it is rejected
_SCALAR = (("nonlinear1d",), _VALID_DRIFTS)
_CARTPOLE_SUBOPTIMAL = (("cartpole_lqr",), ("suboptimal",))

# the least positive float: the least value of a float key that must be > 0
_POSITIVE = math.ulp(0.0)


def _list_of(parse: Callable[[str], object]) -> Callable[[str], list]:
    """Parser of a comma-separated list, ``parse`` for each nonblank entry."""
    return lambda s: [parse(v) for v in s.split(",") if v.strip()]


class _Key(NamedTuple):
    """One config key.  A list key's choices and least value bind each entry."""

    attr: str
    parse: Callable[[str], object]
    default: object = None  # where the key is read and not set
    scope: Optional[tuple] = None  # (problems, drift kinds); None: read by every run
    low: Optional[float] = None
    choices: Optional[tuple] = None


def _key(key: str, parse, default=None, scope=None, low=None, choices=None):
    """Field declaring config key ``key``; its metadata holds the key's row,
    whose attribute is the field's name."""
    return field(default=None, metadata={"key": key, "row": (parse, default, scope, low, choices)})


# retired float keys, accepted only at the value every run now uses:
# key -> (value, reason)
_RETIRED = {"run.ridge": (0.0, "every fit is plain minimum-norm least squares")}


@dataclass
class ExperimentConfig:
    """Resolved experiment settings; see the README for the full key table.

    Each field declares one config key.  A field left ``None`` takes its
    default where its key is read and stays ``None`` under the problems and
    drift kinds that do not read it.  ``problem`` and ``drift`` are the first
    two fields, so they are resolved and checked before any scope reads them.
    """

    problem: str = _key("problem.name", str, "nonlinear1d", choices=_VALID_PROBLEMS)
    drift: str = _key("drift.kind", str, "optimal", choices=_VALID_DRIFTS)
    u_max: Optional[float] = _key("problem.u_max", float, 20.0, _SCALAR, low=_POSITIVE)
    n_steps: int = _key("run.n_steps", int, low=1)  # default per problem
    seed: int = _key("run.seed", int, 0)
    trials: int = _key("run.trials", int, 1, low=1)
    output_dir: str = _key("run.output_dir", str, "results")
    drift_k1: Optional[float] = _key("drift.k1", float, -25.0, _CARTPOLE_SUBOPTIMAL)
    drift_k2: Optional[float] = _key("drift.k2", float, -5.0, _CARTPOLE_SUBOPTIMAL)
    estimators: list = _key(
        "sweep.estimators", _list_of(str.strip), list(_VALID_ESTIMATORS), choices=_VALID_ESTIMATORS
    )
    degrees: list = _key("sweep.degrees", _list_of(int), [1, 2, 3, 4, 5, 6], low=0)
    samples: list = _key("sweep.samples", _list_of(int), [16, 64, 256, 1024, 4096], low=1)
    reference_samples: int = _key("sampling.reference_samples", int, 1024, low=1)
    oracle_state_lo: Optional[float] = _key("oracle.state_lo", float, -5.0, _SCALAR)
    oracle_state_hi: Optional[float] = _key("oracle.state_hi", float, 12.0, _SCALAR)
    oracle_state_nodes: Optional[int] = _key("oracle.state_nodes", int, 2001, _SCALAR, low=2)
    oracle_control_nodes: Optional[int] = _key("oracle.control_nodes", int, 201, _SCALAR, low=1)
    oracle_quad_nodes: Optional[int] = _key("oracle.quad_nodes", int, 21, _SCALAR, low=1)
    metrics_dx: Optional[float] = _key("metrics.dx", float, low=_POSITIVE)
    metrics_points_per_axis: Optional[int] = _key("metrics.points_per_axis", int, low=2)
    diagnose_step: Optional[int] = _key("diagnose.step", int, low=0)
    diagnose_cells: int = _key("diagnose.cells", int, 5, low=1)
    diagnose_reps: int = _key("diagnose.reps", int, 4000, low=2)

    def __post_init__(self):
        for key, row in _KEYS.items():
            value = getattr(self, row.attr)
            if not self._reads(row):
                if value is None:
                    continue
                if self.problem not in row.scope[0]:
                    raise ConfigError(f"{key} is not read by problem.name = {self.problem}")
                raise ConfigError(f"{key} is not read with drift.kind = {self.drift}")
            if value is None:  # every default passes the checks below; the tests check it
                setattr(self, row.attr, copy.copy(row.default))
                continue
            entries = value if isinstance(value, list) else [value]
            if not entries or len(set(entries)) < len(entries):
                raise ConfigError(f"{key} entries must be nonempty and distinct, got {value}")
            if row.choices is not None and not set(entries) <= set(row.choices):
                raise ConfigError(f"{key} must be one of {row.choices}, got {value}")
            if row.parse is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if row.low is not None and min(entries) < row.low:
                raise ConfigError(f"{key} must be >= {row.low}, got {value}")
        if self.n_steps is None:
            self.n_steps = 200 if self.problem == "nonlinear1d" else 100
        step = self.diagnose_step
        if step is not None and not step < self.n_steps:
            raise ConfigError(f"diagnose.step must be < run.n_steps = {self.n_steps}, got {step}")
        lo, hi = self.oracle_state_lo, self.oracle_state_hi
        if lo is not None and not lo < hi:
            raise ConfigError(f"oracle.state_lo must be < oracle.state_hi, got {lo} / {hi}")
        if self.metrics_dx is not None and self.metrics_points_per_axis is not None:
            raise ConfigError("set at most one of metrics.dx and metrics.points_per_axis")

    def _reads(self, row: _Key) -> bool:
        """Whether this problem and drift kind read the key of ``row``."""
        return row.scope is None or (self.problem in row.scope[0] and self.drift in row.scope[1])

    def resolved(self) -> dict:
        """The settings this run reads, by attribute name."""
        return {row.attr: getattr(self, row.attr) for row in _KEYS.values() if self._reads(row)}


# each key's row, in field order
_KEYS = {f.metadata["key"]: _Key(f.name, *f.metadata["row"]) for f in fields(ExperimentConfig)}

_COMMENT = re.compile(r"(?<!\S)#")


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
        parser = _KEYS[key].parse if key in _KEYS else float
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
            kwargs[_KEYS[key].attr] = parsed
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Load and parse a config file."""
    with open(path) as fh:
        return parse_config_text(fh.read())
