"""Performance table, shifted geometric mean, baselines and improvement
arithmetic.

The ground truth is a table (family, permutation seed, configuration) ->
solve time, capped at the time limit (no PAR-style penalty).  Each run has a
status from logs.STATUSES; a run that did not finish (time_limit or error)
is charged the time limit, whatever time it records.  Per-Dataset
best minimizes the shifted geometric mean over all instances; Per-Instance
best takes the argmin per instance.  Ties break toward Default, then
lexicographically, so results are deterministic across runs.

The shift defaults to 10 seconds (the conventional MIPLIB choice) and is
configurable everywhere.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logs import STATUSES

DEFAULT_SHIFT = 10.0
DEFAULT_TIME_LIMIT = 7200.0

PARAM_NAMES = (
    "RootCutLevel",
    "TreeCutLevel",
    "RoundingHeurLevel",
    "DivingHeurLevel",
    "SubMipHeurLevel",
    "StrongBranching",
)
PARAM_VALUES = (-1, 0, 1, 2, 3)

# which parameters influence root-node processing (tree cutting happens only
# after the root node is finished, so assigning it late costs nothing)
AFFECTS_ROOT = {
    "RootCutLevel": True,
    "TreeCutLevel": False,
    "RoundingHeurLevel": True,
    "DivingHeurLevel": True,
    "SubMipHeurLevel": True,
    "StrongBranching": True,
}


class MissingEntryError(KeyError):
    """PerfTable lookup for an absent (instance, configuration) pair."""


@dataclass(frozen=True)
class ConfigId:
    """One solver parameter set to a level, or the distinguished Default."""

    param: str | None = None
    value: int | None = None

    def __post_init__(self):
        if self.param is None:
            if self.value is not None:
                raise ValueError("Default takes no value")
        else:
            if self.param not in PARAM_NAMES:
                raise ValueError(f"unknown parameter {self.param!r}")
            if self.value not in PARAM_VALUES:
                raise ValueError(f"value {self.value!r} not in {PARAM_VALUES}")

    @classmethod
    def default(cls):
        return cls()

    @property
    def is_default(self):
        return self.param is None

    @property
    def affects_root(self):
        return False if self.is_default else AFFECTS_ROOT[self.param]

    def sort_key(self):
        # Default first, then lexicographic: the documented tie-break order
        return (0, "", 0) if self.is_default else (1, self.param, self.value)

    def __str__(self):
        return "Default" if self.is_default else f"{self.param}={self.value}"

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text == "Default":
            return cls.default()
        if "=" not in text:
            raise ValueError(f"bad configuration id {text!r}")
        param, value = text.split("=", 1)
        return cls(param, int(value))


class PerfTable:
    """(family, permutation seed, configuration) -> capped solve time."""

    def __init__(self, time_limit=DEFAULT_TIME_LIMIT):
        self.time_limit = _time_limit(time_limit)
        self._times = {}
        self._status = {}

    def add(self, family, seed, config, time, status="optimal"):
        """Record a run; an unfinished one is charged the time limit, so it
        needs a finite one."""
        if not time > 0:
            raise ValueError(f"nonpositive time {time} for {family}.{seed}")
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r} for {family}.{seed}")
        if status in ("time_limit", "error"):
            if self.time_limit == math.inf:
                raise ValueError(f"status {status!r} for {family}.{seed} "
                                 "needs a finite time limit")
            time = self.time_limit
        key = (family, int(seed), config)
        self._times[key] = min(float(time), self.time_limit)
        self._status[key] = status

    def instances(self):
        return sorted({(f, s) for f, s, _ in self._times})

    def configs(self):
        return sorted({c for _, _, c in self._times}, key=ConfigId.sort_key)

    def time(self, family, seed, config):
        try:
            return self._times[(family, int(seed), config)]
        except KeyError:
            raise MissingEntryError(f"no entry for ({family}, {seed}, {config})")

    def time_matrix(self, instances=None, configs=None):
        """(instance x config) times; columns default to configs() with
        Default first, so a table without Default fails naming its cell."""
        if instances is None:
            instances = self.instances()
        if configs is None:
            configs = [ConfigId.default()] + [c for c in self.configs()
                                              if not c.is_default]
        try:
            rows = [[self._times[(f, int(s), c)] for c in configs]
                    for f, s in instances]
        except KeyError as exc:
            f, s, c = exc.args[0]
            raise MissingEntryError(f"no entry for ({f}, {s}, {c})") from None
        return np.array(rows, dtype=float).reshape(len(instances), len(configs))

    def times_for_config(self, config, instances=None):
        return self.time_matrix(instances, [config])[:, 0]

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["family", "seed", "config", "time", "status", "time_limit"])
        for (f, s, c) in sorted(self._times, key=lambda k: (k[0], k[1],
                                                            k[2].sort_key())):
            w.writerow([f, s, str(c), repr(self._times[(f, s, c)]),
                        self._status[(f, s, c)], repr(self.time_limit)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text):
        """The table of to_csv text; a file without a time_limit column
        gets the default limit.  A bad row is refused naming its line."""
        reader = csv.DictReader(io.StringIO(text))
        table = None
        for row in reader:
            try:
                if None in row.values():
                    raise ValueError("short row")
                limit = _time_limit(row.get("time_limit") or DEFAULT_TIME_LIMIT)
                if table is None:
                    table = cls(limit)
                if limit != table.time_limit:
                    raise ValueError(f"perf table mixes time limits "
                                     f"{table.time_limit!r} and {limit!r}")
                key = (row["family"], _field(row, "seed", int),
                       _field(row, "config", ConfigId.parse))
                if key in table._times:
                    raise ValueError("repeated row for ({}, {}, {})".format(*key))
                table.add(*key, _field(row, "time", float),
                          row.get("status", "optimal"))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
        return cls() if table is None else table


def _time_limit(value):
    """float(value), refused unless it is > 0 (NaN is not); inf is no limit."""
    if (limit := float(value)) > 0:
        return limit
    raise ValueError(f"time limit {limit!r} is not positive")


def check_shift(shift):
    """Refuse a shift that is not a finite number >= 0."""
    if not 0 <= shift < math.inf:  # NaN fails too
        raise ValueError(f"shift must be a finite number >= 0, not {shift!r}")


def _field(row, key, parse):
    """parse of a CSV row's field, refused with the field named."""
    try:
        return parse(row[key])
    except ValueError:
        raise ValueError(f"bad {key} {row[key]!r}") from None


def shifted_geomean(times, shift=DEFAULT_SHIFT):
    """exp(mean(ln(t + shift))) - shift."""
    times = np.asarray(list(times), dtype=float)
    if times.size == 0:
        raise ValueError("shifted_geomean of an empty list")
    if np.any(times <= 0):
        raise ValueError("times must be positive")
    check_shift(shift)
    return float(math.exp(np.mean(np.log(times + shift))) - shift)


class Baselines(NamedTuple):
    """Default, PD-best and PI-best of an (instance x config) times matrix
    whose column 0 is Default, and their improvements over Default; the PD
    and PI parts hold without Default."""
    default: float
    pd_col: int  # the first column of least shifted geomean, or the given one
    pd: float
    pi_cols: np.ndarray  # each row's first argmin
    pi: float
    imp_pd: float
    imp_pi: float
    headroom: float  # imp_pi - imp_pd: what per-instance selection can gain


def baselines(times, shift=DEFAULT_SHIFT, pd_col=None):
    """The Baselines of times, PD-best chosen on another side if pd_col is
    given.  First minima break ties: Default, then lexicographic."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty performance table")
    # each geomean over one 1-D column: an axis-0 mean sums in another order
    geomeans = [shifted_geomean(col, shift) for col in times.T]
    pd_col = int(np.argmin(geomeans)) if pd_col is None else pd_col
    pi_cols = np.argmin(times, axis=1)
    pi = shifted_geomean(times[np.arange(len(times)), pi_cols], shift)
    d, pd = geomeans[0], geomeans[pd_col]
    imp_pd, imp_pi = improvement(d, pd), improvement(d, pi)
    return Baselines(d, pd_col, pd, pi_cols, pi, imp_pd, imp_pi,
                     imp_pi - imp_pd)


def pd_best(table, shift=DEFAULT_SHIFT, instances=None):
    """Configuration minimizing the dataset-level shifted geometric mean."""
    return pd_best_geomean(table, shift, instances)[0]


def pd_best_geomean(table, shift=DEFAULT_SHIFT, instances=None):
    """PD-best configuration and its shifted geomean."""
    configs = table.configs()
    b = baselines(table.time_matrix(instances, configs), shift)
    return configs[b.pd_col], b.pd


def pi_best(table, shift=DEFAULT_SHIFT, instances=None):
    """Per-instance argmin map, plus the shifted geomean of the chosen times."""
    if instances is None:
        instances = table.instances()
    configs = table.configs()
    b = baselines(table.time_matrix(instances, configs), shift)
    return {key: configs[k] for key, k in zip(instances, b.pi_cols)}, b.pi


def improvement(baseline_time, predict_time):
    """(baseline - predict) / baseline; may be negative."""
    if baseline_time <= 0:
        raise ValueError("baseline must be positive")
    return (baseline_time - predict_time) / baseline_time


def improvement_upper_bound(table, shift=DEFAULT_SHIFT, instances=None):
    """The headroom of the table's Baselines."""
    return baselines(table.time_matrix(instances), shift).headroom
