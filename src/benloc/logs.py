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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

STAGE_ORDER = ["presolve", "global_cut", "first_root_lp", "root_end"]

_LINE_STAGE = {
    "PRESOLVE": "presolve",
    "GLOBALCUT": "global_cut",
    "ROOTLP": "first_root_lp",
    "ROOT_END": "root_end",
}

STATUSES = ("optimal", "time_limit", "infeasible", "error")

# feature names per group, in emission order
DYNAMIC_GROUPS = {
    "presolve": ["PresolRows", "PresolColumns", "PresolIntegers"],
    "global_cut": ["DualInitialGap", "PrimalDualGap", "PrimalInitialGap", "GapClosed"],
    "first_root_lp": ["Active", "IntInf", "GlbRed", "Gap", "Time",
                      "objective_density", "Symmetries"],
    "root_end": ["Nodes", "LPit/n", "GlbFix", "#Cuts", "#MCP", "#Sepa", "#Conf"],
}

_ROOTLP_KEYS = {
    "active": "Active",
    "intinf": "IntInf",
    "glbred": "GlbRed",
    "gap": "Gap",
    "time": "Time",
    "obj_density": "objective_density",
    "symmetries": "Symmetries",
}

_ROOTEND_KEYS = {
    "nodes": "Nodes",
    "lpit_per_node": "LPit/n",
    "glbfix": "GlbFix",
    "cuts": "#Cuts",
    "mcp": "#MCP",
    "sepa": "#Sepa",
    "conf": "#Conf",
}


class FeatureStage(enum.Enum):
    STATIC_ONLY = "static_only"
    UP_TO_FIRST_ROOT_LP = "first_root_lp"
    UP_TO_ROOT_END = "root_end"


# dynamic groups a model may consume at each stage
STAGE_GROUPS = {
    FeatureStage.STATIC_ONLY: [],
    FeatureStage.UP_TO_FIRST_ROOT_LP: ["presolve", "global_cut", "first_root_lp"],
    FeatureStage.UP_TO_ROOT_END: STAGE_ORDER,
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
    events: list = field(default_factory=list)  # (stage, key, value)
    total_time: float = 0.0
    root_time: float = 0.0
    status: str = "optimal"
    unknown_lines: int = 0

    def stage_values(self, stage):
        return {k: v for s, k, v in self.events if s == stage}

    @property
    def stages_present(self):
        return {s for s, _, _ in self.events}


def _parse_kv(toks, line_no):
    out = {}
    for tok in toks:
        if "=" not in tok:
            raise LogSchemaError(f"line {line_no}: expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _number(value, key, line_no):
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if math.isnan(number):
        raise LogSchemaError(f"line {line_no}: non-numeric value {value!r} "
                             f"for {key!r}")
    return number


def parse_log(text):
    """Parse a canonical solver log into a SolveLog."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
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
        elif head in _LINE_STAGE:
            if saw_status:
                raise LogSchemaError(f"line {line_no}: stage line after STATUS")
            stage = _LINE_STAGE[head]
            idx = STAGE_ORDER.index(stage)
            if idx < last_stage:
                raise LogSchemaError(
                    f"line {line_no}: stage {head} after a later stage")
            last_stage = idx
            for k, v in _parse_kv(toks[1:], line_no).items():
                log.events.append((stage, k, _number(v, k, line_no)))
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
    """Emit a SolveLog in the canonical schema; parse_log reads it back."""
    lines = []
    if log.instance_id or log.config_id:
        lines.append(f"META instance={log.instance_id} config={log.config_id}")
    values = {}  # stage -> {key: value}, as stage_values gives them
    for stage, k, v in log.events:
        values.setdefault(stage, {})[k] = v
    for head, stage in _LINE_STAGE.items():  # in STAGE_ORDER
        if stage in values:
            body = " ".join([f"{k}={v!r}" for k, v in values[stage].items()])
            lines.append(f"{head} {body}")
    lines.append(f"STATUS status={log.status} total_time={log.total_time!r} "
                 f"root_time={log.root_time!r}")
    return "\n".join(lines) + "\n"


def gap_features(c_d, c_p, c_l):
    """Gap quadruple from dual bound c_d, primal bound c_p, initial LP bound c_l.

    Each gap is |a - b| / max(|a|, |b|, |a - b|), which lies in [0, 1]; the
    degenerate all-zero case is defined as 0.  GapClosed = 1 - PrimalDualGap.
    """
    def gap(a, b):
        denom = max(abs(a), abs(b), abs(a - b))
        return abs(a - b) / denom if denom > 0 else 0.0

    dual_initial = gap(c_d, c_l)
    primal_dual = gap(c_p, c_d)
    primal_initial = gap(c_p, c_l)
    return dual_initial, primal_dual, primal_initial, 1.0 - primal_dual


@dataclass(eq=False)
class DynamicFeatureVector:
    """Per-stage feature groups; unpopulated groups are absent, never zero."""

    groups: dict  # stage tag -> {feature name: value}

    @property
    def stage_mask(self):
        return set(self.groups)

    def __getitem__(self, name):
        for g in self.groups.values():
            if name in g:
                return g[name]
        raise KeyError(name)


def dynamic_features(log):
    """Derive the dynamic feature vector from a parsed log."""
    groups = {}
    present = log.stages_present

    if "presolve" in present:
        kv = log.stage_values("presolve")
        rows = kv.get("rows", 0.0)
        cols = kv.get("cols", 0.0)
        ints = kv.get("integers", 0.0)
        groups["presolve"] = {
            "PresolRows": float(np.log(rows)) if rows > 0 else 0.0,
            "PresolColumns": float(np.log(cols)) if cols > 0 else 0.0,
            "PresolIntegers": ints / cols if cols > 0 else 0.0,
        }
    if "global_cut" in present:
        kv = log.stage_values("global_cut")
        d, pd, pi, closed = gap_features(
            kv.get("c_d", 0.0), kv.get("c_p", 0.0), kv.get("c_l", 0.0))
        groups["global_cut"] = {
            "DualInitialGap": d,
            "PrimalDualGap": pd,
            "PrimalInitialGap": pi,
            "GapClosed": closed,
        }
    if "first_root_lp" in present:
        kv = log.stage_values("first_root_lp")
        groups["first_root_lp"] = {
            feat: kv.get(key, 0.0) for key, feat in _ROOTLP_KEYS.items()}
    if "root_end" in present:
        kv = log.stage_values("root_end")
        groups["root_end"] = {
            feat: kv.get(key, 0.0) for key, feat in _ROOTEND_KEYS.items()}
    return DynamicFeatureVector(groups)


def assemble_features(static, dyn, stage):
    """Fixed-order concatenation of static plus stage-allowed dynamic groups.

    Returns (names, values).  StaticOnly never touches the log; later stages
    require the corresponding groups to be populated.
    """
    names = list(static.names)
    values = list(static.values)
    needed = STAGE_GROUPS[stage]
    if needed:
        if dyn is None:
            raise MissingStageError(f"stage {stage.value} needs a log")
        missing = [g for g in needed if g not in dyn.stage_mask]
        if missing:
            raise MissingStageError(
                f"stage {stage.value} needs groups {missing}, log has "
                f"{sorted(dyn.stage_mask)}")
        for g in needed:
            for feat in DYNAMIC_GROUPS[g]:
                names.append(feat)
                values.append(dyn.groups[g][feat])
    return names, np.asarray(values, dtype=float)


def extra_cost(total_time, root_time, stage, config_affects_root):
    """Evaluation-time adjustment for configurations assigned after root work.

    Consuming root-end features means the solver must revisit the root when
    the chosen configuration influences root processing, so the root-node
    time is paid again.  Earlier stages (and root-neutral parameters such as
    tree cutting) incur no extra cost.
    """
    if total_time < 0 or root_time < 0:
        raise ValueError("times must be nonnegative")
    if pays_root(stage, config_affects_root):
        return total_time + root_time
    return total_time


def pays_root(stage, config_affects_root):
    """Whether a configuration chosen at stage pays the root time again."""
    return stage == FeatureStage.UP_TO_ROOT_END and config_affects_root
