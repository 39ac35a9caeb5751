"""Synthetic instance generators and a planted solve-time oracle.

The generators produce classic set-cover and independent-set MIPs.  The
oracle stands in for a real solver: it invents per-configuration solve times
whose per-instance optimum is a known, deterministic function of a designated
feature, so the whole learning pipeline can be verified against planted
ground truth.  It also emits schema-conformant solver logs for every
configuration.

Time model, all factors multiplicative:

    t(x, c) = base_time * base_mult(c)
              * rule_factor            if c is the rule's favored config for x
              * exp(family_sigma * z_family(c))   family-level random effect
              * exp(noise_sigma * z)               per-run noise

capped at the time limit, over the five DEFAULT_CONFIGS.  The rule favors
its config when a value exceeds RULE_THRESHOLD, and Default otherwise.  The
value is either the instance's NonZeros static feature ("static" source) or
a latent per-family difficulty that the oracle exposes only through log
lines ("latent" source: cleanly in the root-end node count, noisily in the
first-root-LP gap).  The latent variant is what makes the feature-stage
comparison meaningful.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .instance import BINARY, GE, LE, MipInstance
from .logs import SolveLog, render_log
from .metrics import DEFAULT_TIME_LIMIT, ConfigId

DEFAULT_CONFIGS = (
    ConfigId.default(),
    ConfigId("RootCutLevel", 3),
    ConfigId("TreeCutLevel", 1),
    ConfigId("DivingHeurLevel", 2),
    ConfigId("SubMipHeurLevel", 1),
)

DEFAULT_BASE_MULTIPLIERS = {
    "Default": 1.0,
    "RootCutLevel=3": 1.05,
    "TreeCutLevel=1": 1.1,
    "DivingHeurLevel=2": 1.15,
    "SubMipHeurLevel=1": 1.2,
}

RULE_THRESHOLD = 0.5
ROOT_FRACTION = 0.05


def gen_setcover(rows, cols, density, seed):
    """Random set-cover MIP: min sum x, each element covered by >= 1 set."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(rows):
        mask = rng.random(cols) < density
        while not mask.any():  # every element must be coverable
            mask = rng.random(cols) < density
        masks.append(mask)
    mat_rows, mat_cols = np.nonzero(np.array(masks))
    return MipInstance(
        name=f"setcover_r{rows}_c{cols}_s{seed}",
        sense="minimize",
        obj_coeffs=np.ones(cols),
        mat_rows=mat_rows,
        mat_cols=mat_cols,
        mat_vals=np.ones(len(mat_rows)),
        row_senses=np.full(rows, GE),
        rhs=np.ones(rows),
        var_lb=np.zeros(cols),
        var_ub=np.ones(cols),
        var_types=np.full(cols, BINARY),
        row_names=[f"cover_{i}" for i in range(rows)],
        col_names=[f"x_{j}" for j in range(cols)],
    )


def gen_indset(nodes, edge_prob, seed):
    """Random independent-set MIP: max sum x, x_u + x_v <= 1 per edge."""
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # one draw per pair u < v in row-major order; the order fixes each
    # seed's graph
    u, v = np.triu_indices(nodes, 1)
    edge = rng.random(len(u)) < edge_prob
    m = int(edge.sum())
    return MipInstance(
        name=f"indset_n{nodes}_s{seed}",
        sense="maximize",
        obj_coeffs=np.ones(nodes),
        mat_rows=np.repeat(np.arange(m), 2),
        mat_cols=np.column_stack([u[edge], v[edge]]).ravel(),
        mat_vals=np.ones(2 * m),
        row_senses=np.full(m, LE),
        rhs=np.ones(m),
        var_lb=np.zeros(nodes),
        var_ub=np.ones(nodes),
        var_types=np.full(nodes, BINARY),
        row_names=[f"edge_{i}" for i in range(m)],
        col_names=[f"x_{v}" for v in range(nodes)],
    )


@dataclass
class OracleSpec:
    """Knobs of the planted solve-time oracle.  Fixed for every spec: the
    DEFAULT_CONFIGS and their DEFAULT_BASE_MULTIPLIERS, the static rule's
    feature (NonZeros), RULE_THRESHOLD, Default as the config the rule
    favors otherwise, and root time as ROOT_FRACTION of the total."""

    seed: int = 0
    rule_source: str = "static"  # "static" | "latent"
    rule_config: ConfigId = ConfigId("RootCutLevel", 3)
    rule_factor: float = 0.6
    family_sigma: float = 0.05
    noise_sigma: float = 0.02
    lp_gap_noise: float = 0.3  # blur of the latent rule value at first root LP
    base_time: float = 20.0
    time_limit: float = DEFAULT_TIME_LIMIT

    def __post_init__(self):
        if self.noise_sigma < 0 or self.family_sigma < 0:
            raise ValueError("noise levels must be nonnegative")
        if self.rule_source not in ("static", "latent"):
            raise ValueError(f"rule_source must be 'static' or 'latent', "
                             f"not {self.rule_source!r}")
        if self.rule_config not in DEFAULT_CONFIGS:
            raise ValueError(
                f"rule_config {self.rule_config} is not one of the oracle's "
                f"configs ({', '.join(map(str, DEFAULT_CONFIGS))})")


def _stable_rng(*parts):
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(),
                             digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _rule_value(spec, family, static_feats):
    if spec.rule_source == "static":
        return static_feats["NonZeros"]
    # latent per-family difficulty, exposed only through the logs
    return float(_stable_rng(spec.seed, "latent", family).random())


def _favored(spec, r):
    """The config the planted rule makes fastest at rule value r."""
    return spec.rule_config if r > RULE_THRESHOLD else ConfigId.default()


def planted_optimum(spec, family, static_feats):
    """The configuration the planted rule makes optimal for this instance."""
    return _favored(spec, _rule_value(spec, family, static_feats))


def oracle_times(family, perm_seed, static_feats, spec, instance_stats=None):
    """Synthesize per-config times and logs for one permuted instance.

    Returns (times, logs): {ConfigId: seconds} and {ConfigId: log text}.
    instance_stats may carry (rows, cols, integers) for the presolve lines;
    defaults are derived from the static features.
    """
    times, logs = oracle_solve_logs(family, perm_seed, static_feats, spec,
                                    instance_stats)
    return times, {cfg: render_log(log) for cfg, log in logs.items()}


def oracle_solve_logs(family, perm_seed, static_feats, spec,
                      instance_stats=None):
    """oracle_times with each log as the SolveLog its text parses back to."""
    if instance_stats is None:
        rows = max(1, round(math.exp(static_feats["Rows"])))
        cols = max(1, round(math.exp(static_feats["Columns"])))
        ints = round((static_feats["Binaries"] + static_feats["Integers"]) * cols)
        instance_stats = (rows, cols, ints)
    _, [run] = oracle_family(family, static_feats, spec, instance_stats,
                             [perm_seed])
    return run


def oracle_family(family, static_feats, spec, instance_stats, perm_seeds):
    """The planted optimum of one family and, per permutation seed, the
    (times, logs) that oracle_solve_logs gives for it.

    Static features and instance_stats are the same for every permutation
    of an instance, and so are the family's draws: the rule value and each
    config's family-level effect.  They are made once here; each
    permutation makes only its own instance and run draws.
    """
    r = _rule_value(spec, family, static_feats)
    favored = _favored(spec, r)
    family_times = {}  # per config, its time before the run's noise
    for cfg in DEFAULT_CONFIGS:
        fam_z = float(_stable_rng(spec.seed, "family", family,
                                  cfg).standard_normal())
        family_times[cfg] = (spec.base_time
                             * DEFAULT_BASE_MULTIPLIERS[str(cfg)]
                             * (spec.rule_factor if cfg == favored else 1.0)
                             * math.exp(spec.family_sigma * fam_z))
    rows, cols, ints = map(float, instance_stats)  # log values are floats
    nodes = float(1 + round(999 * r))
    runs = []
    for perm_seed in perm_seeds:
        # instance-level log quantities, shared across configurations
        inst_rng = _stable_rng(spec.seed, "inst", family, perm_seed)
        lp_gap = min(1.0, max(0.0, r + spec.lp_gap_noise
                              * inst_rng.standard_normal()))
        c_l = 100.0 * (1.0 + inst_rng.random())
        c_d = c_l * (1.0 + 0.2 * inst_rng.random())
        c_p = c_d * (1.0 + 0.3 * inst_rng.random())
        times = {}
        logs = {}
        for cfg, family_time in family_times.items():
            run_z = float(_stable_rng(spec.seed, "run", family, perm_seed,
                                      cfg).standard_normal())
            t = min(family_time * math.exp(spec.noise_sigma * run_z),
                    spec.time_limit)
            times[cfg] = t
            status = "time_limit" if t >= spec.time_limit else "optimal"
            root_time = ROOT_FRACTION * t
            logs[cfg] = SolveLog(
                instance_id=f"{family}.perm{perm_seed}", config_id=str(cfg),
                stages={
                    "presolve": {"rows": rows, "cols": cols, "integers": ints},
                    "global_cut": {"c_d": c_d, "c_p": c_p, "c_l": c_l},
                    "first_root_lp": {"active": rows, "intinf": ints,
                                      "glbred": 0.0, "gap": lp_gap,
                                      "time": 0.2 * root_time,
                                      "obj_density": 1.0, "symmetries": 0.0},
                    "root_end": {"nodes": nodes,
                                 "lpit_per_node": 5.0 + 20.0 * r,
                                 "glbfix": 0.0, "cuts": float(round(10 * r)),
                                 "mcp": 0.0, "sepa": float(round(5 * r)),
                                 "conf": 0.0, "time": root_time},
                },
                total_time=t, root_time=root_time, status=status)
        runs.append((times, logs))
    return favored, runs
