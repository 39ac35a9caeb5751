"""Solver-log parsing and staged dynamic features.

Since vendor log formats are proprietary, the toolkit defines a canonical
line-oriented schema (UTF-8):

    META instance=<id> config=<id>            (optional)
    PRESOLVE rows=<int> cols=<int> integers=<int>
    GLOBALCUT c_d=<f> c_p=<f> c_l=<f>
    ROOTLP active=<f> intinf=<f> glbred=<f> gap=<f> time=<f> obj_density=<f> symmetries=<f>
    ROOT_END nodes=<f> lpit_per_node=<f> glbfix=<f> cuts=<f> mcp=<f> sepa=<f> conf=<f> time=<f>
    STATUS status=<optimal|time_limit|infeasible|error> total_time=<f> root_time=<f>

Stages must appear in the order above; the STATUS line is mandatory and
unknown lines are counted but otherwise ignored, which leaves a seam for
adapters that rewrite other solvers' logs into this schema.

Dynamic features are computed group by group as columns over many logs, one
log being the one-row case, and laid after the static features.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# stage -> line head, in the order the stage lines must appear
STAGE_LINES = {
    "presolve": "PRESOLVE",
    "global_cut": "GLOBALCUT",
    "first_root_lp": "ROOTLP",
    "root_end": "ROOT_END",
}
_HEAD_STAGE = {head: stage for stage, head in STAGE_LINES.items()}

STATUSES = ("optimal", "time_limit", "infeasible", "error")

# log key -> feature name of the stages whose values are copied unchanged
COPIED_KEYS = {
    "first_root_lp": {"active": "Active", "intinf": "IntInf",
                      "glbred": "GlbRed", "gap": "Gap", "time": "Time",
                      "obj_density": "objective_density",
                      "symmetries": "Symmetries"},
    "root_end": {"nodes": "Nodes", "lpit_per_node": "LPit/n",
                 "glbfix": "GlbFix", "cuts": "#Cuts", "mcp": "#MCP",
                 "sepa": "#Sepa", "conf": "#Conf"},
}

# feature names per group, in emission order
DYNAMIC_GROUPS = {
    "presolve": ["PresolRows", "PresolColumns", "PresolIntegers"],
    "global_cut": ["DualInitialGap", "PrimalDualGap", "PrimalInitialGap",
                   "GapClosed"],
    **{stage: list(keys.values()) for stage, keys in COPIED_KEYS.items()},
}


class FeatureStage(enum.Enum):
    STATIC_ONLY = "static_only"
    UP_TO_FIRST_ROOT_LP = "first_root_lp"
    UP_TO_ROOT_END = "root_end"


# dynamic groups a model may consume at each stage
STAGE_GROUPS = {
    FeatureStage.STATIC_ONLY: [],
    FeatureStage.UP_TO_FIRST_ROOT_LP: ["presolve", "global_cut", "first_root_lp"],
    FeatureStage.UP_TO_ROOT_END: list(STAGE_LINES),
}


class IncompleteLogError(ValueError):
    """Log without a terminal STATUS line."""


class LogSchemaError(ValueError):
    """Stages out of order or an unreadable recognized line."""


class MissingStageError(ValueError):
    """Requested feature stage not covered by the log."""


@dataclass
class SolveLog:
    instance_id: str = ""
    config_id: str = ""
    stages: dict = field(default_factory=dict)  # stage -> {key: value}, file order
    total_time: float = 0.0
    root_time: float = 0.0
    status: str = "optimal"
    unknown_lines: int = 0


def _parse_kv(toks, line_no):
    out = {}
    for tok in toks:
        if "=" not in tok:
            raise LogSchemaError(f"line {line_no}: expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _number(value, key, line_no):
    """The finite number a log value holds, or a LogSchemaError naming the
    line and the key."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if math.isnan(number):
        raise LogSchemaError(f"line {line_no}: non-numeric value {value!r} "
                             f"for {key!r}")
    if math.isinf(number):
        raise LogSchemaError(f"line {line_no}: infinite value {value!r} "
                             f"for {key!r}")
    return number


def parse_log(text):
    """Parse the text of a canonical solver log into a SolveLog."""
    log = SolveLog()
    last_stage = -1
    saw_status = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        head = toks[0]
        if head == "META":
            kv = _parse_kv(toks[1:], line_no)
            log.instance_id = kv.get("instance", log.instance_id)
            log.config_id = kv.get("config", log.config_id)
        elif head in _HEAD_STAGE:
            if saw_status:
                raise LogSchemaError(f"line {line_no}: stage line after STATUS")
            stage = _HEAD_STAGE[head]
            idx = list(STAGE_LINES).index(stage)
            if idx < last_stage:
                raise LogSchemaError(
                    f"line {line_no}: stage {head} after a later stage")
            last_stage = idx
            kv = {k: _number(v, k, line_no)
                  for k, v in _parse_kv(toks[1:], line_no).items()}
            if kv:  # a bare stage line leaves the stage absent
                log.stages.setdefault(stage, {}).update(kv)
        elif head == "STATUS":
            kv = _parse_kv(toks[1:], line_no)
            status = kv.get("status")
            if status not in STATUSES:
                raise LogSchemaError(f"line {line_no}: bad status {status!r}")
            log.status = status
            log.total_time = _number(kv.get("total_time", 0.0), "total_time",
                                     line_no)
            log.root_time = _number(kv.get("root_time", 0.0), "root_time",
                                    line_no)
            if log.total_time < 0 or log.root_time < 0:
                raise LogSchemaError(f"line {line_no}: negative time")
            if log.root_time > log.total_time:
                raise LogSchemaError(f"line {line_no}: root_time > total_time")
            saw_status = True
        else:
            log.unknown_lines += 1
    if not saw_status:
        raise IncompleteLogError("log has no STATUS line")
    return log


def render_log(log):
    """Emit a SolveLog in the canonical schema; parse_log reads it back.

    A NaN or infinite stage value or time is refused with a ValueError
    naming the key, since parse_log would refuse the text.
    """
    values = [(k, v) for stage in STAGE_LINES
              for k, v in log.stages.get(stage, {}).items()]
    for key, value in values + [("total_time", log.total_time),
                                ("root_time", log.root_time)]:
        if not math.isfinite(value):
            raise ValueError(f"cannot render log: non-finite value "
                             f"{value!r} for {key!r}")
    lines = []
    if log.instance_id or log.config_id:
        lines.append(f"META instance={log.instance_id} config={log.config_id}")
    for stage, head in STAGE_LINES.items():
        pairs = [f"{k}={v!r}" for k, v in log.stages.get(stage, {}).items()]
        if pairs:
            lines.append(" ".join([head] + pairs))
    lines.append(f"STATUS status={log.status} total_time={log.total_time!r} "
                 f"root_time={log.root_time!r}")
    return "\n".join(lines) + "\n"


def gap_features(c_d, c_p, c_l):
    """Gap quadruple from dual bound c_d, primal bound c_p, initial LP bound
    c_l, element-wise over scalars or arrays.

    Each gap is |a - b| / max(|a|, |b|, |a - b|), which lies in [0, 1]; the
    degenerate all-zero case is defined as 0.  GapClosed = 1 - PrimalDualGap.
    """
    def gap(a, b):
        diff = np.abs(np.subtract(a, b))
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), diff)
        return np.where(denom > 0, diff / denom, 0.0)

    with np.errstate(all="ignore"):  # 0 / 0 and overflow are picked around
        primal_dual = gap(c_p, c_d)
        return gap(c_d, c_l), primal_dual, gap(c_p, c_l), 1.0 - primal_dual


# group -> (the log keys its formula reads, its formula: columns to columns)
_GROUP_INPUTS = {
    "presolve": (("rows", "cols", "integers"), lambda rows, cols, ints: (
        np.where(rows > 0, np.log(rows), 0.0),
        np.where(cols > 0, np.log(cols), 0.0),
        np.where(cols > 0, ints / cols, 0.0))),
    "global_cut": (("c_d", "c_p", "c_l"), gap_features),
    **{stage: (tuple(keys), lambda *columns: columns)
       for stage, keys in COPIED_KEYS.items()},
}


def dynamic_features(logs):
    """Each dynamic group of many parsed logs as columns over the logs:
    {group: (has, values)}, has[i] telling whether log i reached the group's
    stage and values the (logs x features) matrix of the group's formula."""
    groups = {}
    for stage, (keys, formula) in _GROUP_INPUTS.items():
        kvs = [log.stages.get(stage) for log in logs]
        raw = np.array([[(kv or {}).get(key, 0.0) for key in keys]
                        for kv in kvs], dtype=float).reshape(-1, len(keys))
        with np.errstate(all="ignore"):  # as in gap_features
            values = np.stack(formula(*raw.T), axis=1)
        groups[stage] = np.array([kv is not None for kv in kvs], bool), values
    return groups


def assemble_features(statics, dyn, stage):
    """(names, X): per static vector, a row of its values then the dynamic
    groups the stage allows, from dyn, the dynamic_features of one log per
    instance.  StaticOnly never touches dyn; a later stage refuses the first
    instance whose log lacks a group it needs."""
    names = list(statics[0].names) if statics else []
    if any(s.names != statics[0].names for s in statics):
        raise ValueError("instances disagree on static features")
    blocks = [np.array([s.values for s in statics],
                       dtype=float).reshape(len(statics), len(names))]
    needed = STAGE_GROUPS[stage]
    if needed and dyn is None:
        raise MissingStageError(f"stage {stage.value} needs a log")
    lacking = ~np.logical_and.reduce([dyn[g][0] for g in needed])
    if lacking.any():
        i = int(np.argmax(lacking))
        raise MissingStageError(
            f"stage {stage.value} needs groups "
            f"{[g for g in needed if not dyn[g][0][i]]}, log has "
            f"{sorted(g for g in dyn if dyn[g][0][i])}")
    names += [name for g in needed for name in DYNAMIC_GROUPS[g]]
    return names, np.hstack(blocks + [dyn[g][1] for g in needed])


def extra_cost(total_time, root_time, stage, config_affects_root):
    """Evaluation-time adjustment for configurations assigned after root work.

    Consuming root-end features means the solver must revisit the root when
    the chosen configuration influences root processing, so the root-node
    time is paid again.  Earlier stages (and root-neutral parameters such as
    tree cutting) incur no extra cost.  Scalars or arrays, element-wise.
    """
    total_time, root_time = np.asarray(total_time), np.asarray(root_time)
    if np.any(total_time < 0) or np.any(root_time < 0):
        raise ValueError("times must be nonnegative")
    return np.where(pays_root(stage, config_affects_root),
                    total_time + root_time, total_time)


def pays_root(stage, config_affects_root):
    """Whether a configuration chosen at stage pays the root time again;
    element-wise over an array of affects_root flags."""
    return np.logical_and(stage == FeatureStage.UP_TO_ROOT_END,
                          config_affects_root)
