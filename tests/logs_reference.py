"""Per-log reference for the staged dynamic features.

The one-log-at-a-time dynamic_features and assemble_features that
benloc.logs computed before it took the groups as columns over many logs.
The feature-oracle tests in test_logs.py hold the batched functions to this
reader byte for byte.  It shares only the group tables, the stage enum and
the error class with benloc.logs.
"""

import numpy as np

from benloc.logs import (COPIED_KEYS, DYNAMIC_GROUPS, STAGE_GROUPS,
                         FeatureStage, MissingStageError)
from benloc.metrics import ConfigId


def gap_features(c_d, c_p, c_l):
    def gap(a, b):
        denom = max(abs(a), abs(b), abs(a - b))
        return abs(a - b) / denom if denom > 0 else 0.0

    dual_initial = gap(c_d, c_l)
    primal_dual = gap(c_p, c_d)
    primal_initial = gap(c_p, c_l)
    return dual_initial, primal_dual, primal_initial, 1.0 - primal_dual


def dynamic_features(log):
    """{stage: {feature: value}} of a parsed log; a group whose stage the log
    lacks is absent, never zero."""
    groups = {}
    stages = log.stages
    if "presolve" in stages:
        kv = stages["presolve"]
        rows, cols = kv.get("rows", 0.0), kv.get("cols", 0.0)
        ints = kv.get("integers", 0.0)
        groups["presolve"] = dict(zip(DYNAMIC_GROUPS["presolve"], (
            float(np.log(rows)) if rows > 0 else 0.0,
            float(np.log(cols)) if cols > 0 else 0.0,
            ints / cols if cols > 0 else 0.0)))
    if "global_cut" in stages:
        kv = stages["global_cut"]
        gaps = gap_features(kv.get("c_d", 0.0), kv.get("c_p", 0.0),
                            kv.get("c_l", 0.0))
        groups["global_cut"] = dict(zip(DYNAMIC_GROUPS["global_cut"], gaps))
    for stage, keys in COPIED_KEYS.items():
        if stage in stages:
            groups[stage] = {feat: stages[stage].get(key, 0.0)
                             for key, feat in keys.items()}
    return groups


def assemble_features(static, dyn, stage):
    """(names, values): static, then the stage's dynamic groups."""
    names = list(static.names)
    values = list(static.values)
    needed = STAGE_GROUPS[stage]
    if needed:
        if dyn is None:
            raise MissingStageError(f"stage {stage.value} needs a log")
        missing = [g for g in needed if g not in dyn]
        if missing:
            raise MissingStageError(
                f"stage {stage.value} needs groups {missing}, log has "
                f"{sorted(dyn)}")
        for g in needed:
            names.extend(DYNAMIC_GROUPS[g])
            values.extend(dyn[g][feat] for feat in DYNAMIC_GROUPS[g])
    return names, np.asarray(values, dtype=float)


def feature_map(data, stage):
    """BenchmarkData.feature_map one instance at a time, in the order of
    data.static, from the Default log of each."""
    out = {}
    for key, static in data.static.items():
        dyn = None
        if stage != FeatureStage.STATIC_ONLY:
            dyn = dynamic_features(data.log(*key, ConfigId.default()))
        out[key] = assemble_features(static, dyn, stage)
    return out
