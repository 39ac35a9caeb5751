"""In-memory benchmark dataset: instances, features, logs and ground truth.

A BenchmarkData bundles everything the pipeline consumes: the performance
table, per-instance static features, and parsed solver logs (one per
configuration; the Default log supplies prediction-time dynamic features).
It can be built from the planted oracle for desk-scale experiments, written
out to a directory, or loaded back from a manifest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .instance import (parse_mps, permute_instance, read_file, write_file,
                       write_mps)
from .logs import (FeatureStage, MissingStageError, assemble_features,
                   dynamic_features, parse_log, render_log)
from .metrics import ConfigId, PerfTable
from .splits import DatasetManifest
from .static_features import extract_static
from .synth import (OracleSpec, gen_indset, gen_setcover, oracle_solve_logs,
                    planted_optimum)


@dataclass
class BenchmarkData:
    name: str
    perf: PerfTable
    static: dict  # (family, seed) -> StaticFeatureVector
    logs: dict  # (family, seed) -> {ConfigId: SolveLog}
    instances: dict = field(default_factory=dict)  # optional MipInstances
    planted_pi: dict = field(default_factory=dict)  # oracle ground truth

    def pairs(self):
        return sorted(self.static)

    def manifest(self):
        """The manifest of the written layout, paths relative to its file."""
        families = {}
        for f, s in self.pairs():
            families.setdefault(f, {})[s] = os.path.join(
                "instances", f"{f}.perm{s}.mps")
        return DatasetManifest(name=self.name, families=families,
                               perf_path="perf.csv", log_dir="logs")

    def log(self, family, seed, config):
        log = self.logs.get((family, seed), {}).get(config)
        if log is None:
            raise MissingStageError(f"no {config} log for ({family}, {seed})")
        return log

    def root_time(self, family, seed, config):
        return self.log(family, seed, config).root_time

    def feature_map(self, stage):
        """(names, values) per instance at the given feature stage: the rows
        of one assemble_features call.  STATIC_ONLY reads no log."""
        statics, logs, dyn = list(self.static.values()), [], None
        if stage != FeatureStage.STATIC_ONLY:
            default = ConfigId.default()
            try:
                for key in self.static:
                    logs.append(self.log(*key, default))
            except MissingStageError:
                # an earlier instance's missing group is the first error
                assemble_features(statics[:len(logs)],
                                  dynamic_features(logs), stage)
                raise
            dyn = dynamic_features(logs)
        names, X = assemble_features(statics, dyn, stage)
        return {key: (names, row) for key, row in zip(self.static, X)}


def _family_rng(seed, idx):
    return np.random.default_rng(np.random.SeedSequence([seed, idx]))


def build_oracle_dataset(n_families=60, n_perms=10, spec=None, kind="setcover",
                         seed=0, keep_instances=False):
    """Generate families, permute each, and label everything with the oracle.

    Instance sizes and densities vary per family; densities avoid a margin
    around the planted threshold so the rule stays crisp.
    """
    spec = spec or OracleSpec(seed=seed)
    perf = PerfTable(spec.time_limit)
    static = {}
    logs = {}
    instances = {}
    planted = {}

    for idx in range(n_families):
        family = f"fam{idx:03d}"
        rng = _family_rng(seed, idx)
        lo = rng.random() < 0.5
        density = 0.15 + 0.3 * rng.random() if lo else 0.55 + 0.3 * rng.random()
        if kind == "setcover":
            rows = int(rng.integers(8, 20))
            cols = int(rng.integers(15, 40))
            base = gen_setcover(rows, cols, density, seed=seed * 1000 + idx)
        elif kind == "indset":
            nodes = int(rng.integers(10, 30))
            base = gen_indset(nodes, density, seed=seed * 1000 + idx)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")

        # the number of integer and binary columns: CONTINUOUS is code 0
        stats = (base.num_rows, base.num_cols, np.count_nonzero(base.var_types))
        for s in range(n_perms):
            inst, _ = permute_instance(base, s)
            feats = extract_static(inst)
            key = (family, s)
            static[key] = feats
            if keep_instances:
                instances[key] = inst
            times, logs[key] = oracle_solve_logs(family, s, feats, spec,
                                                 instance_stats=stats)
            for cfg, t in times.items():
                perf.add(family, s, cfg, t, logs[key][cfg].status)
            planted[key] = planted_optimum(spec, family, feats)

    return BenchmarkData(name="oracle", perf=perf, static=static, logs=logs,
                         instances=instances, planted_pi=planted)


def write_dataset(data, out_dir):
    """Write instances, logs, perf.csv and manifest.json.

    The manifest names an MPS file per instance, so data built without
    keep_instances is refused before anything is written.
    """
    missing = set(data.static) - set(data.instances)
    if missing:
        raise ValueError(
            f"cannot write dataset {data.name!r}: {len(missing)} of "
            f"{len(data.static)} instances have no MipInstance (build the "
            f"data with keep_instances=True)")
    os.makedirs(os.path.join(out_dir, "instances"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "logs"), exist_ok=True)
    for (f, s), inst in data.instances.items():
        path = os.path.join(out_dir, "instances", f"{f}.perm{s}.mps")
        write_file(path, write_mps(inst))
    for (f, s), per_cfg in data.logs.items():
        for cfg, log in per_cfg.items():
            path = os.path.join(out_dir, "logs", f"{f}.perm{s}.{cfg}.log")
            write_file(path, render_log(log))
    write_file(os.path.join(out_dir, "perf.csv"), data.perf.to_csv())
    write_file(os.path.join(out_dir, "manifest.json"),
               data.manifest().to_json())
    return os.path.join(out_dir, "manifest.json")


def read_instance(path):
    """The MPS file at path and its static features; an error names the
    file."""
    def parse(text):
        inst = parse_mps(text)
        return inst, extract_static(inst)
    return read_file(path, parse)


def load_dataset(manifest_path):
    """Load a written dataset back: parses MPS files, logs and perf.csv.  A
    manifest must name its perf.csv; one whose log_dir is null has no logs."""
    manifest = DatasetManifest.read(manifest_path)
    manifest.validate()
    if manifest.perf_path is None:
        raise ValueError(f"{manifest_path}: manifest has no perf_path")
    perf = read_file(manifest.perf_path, PerfTable.from_csv)
    static = {}
    instances = {}
    logs = {}
    configs = perf.configs()
    for fam, seeds in manifest.families.items():
        for s, path in seeds.items():
            instances[(fam, s)], static[(fam, s)] = read_instance(path)
            logs[(fam, s)] = {}
            if manifest.log_dir is None:  # no logs: static features only
                continue
            for cfg in configs:
                log_path = os.path.join(manifest.log_dir,
                                        f"{fam}.perm{s}.{cfg}.log")
                try:
                    logs[(fam, s)][cfg] = read_file(log_path, parse_log)
                except FileNotFoundError:  # a run without a log
                    pass
    return BenchmarkData(name=manifest.name, perf=perf, static=static,
                         logs=logs, instances=instances)
