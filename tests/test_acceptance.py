"""Acceptance gate: six criteria, one printed pass/fail line each.

A1  metric arithmetic reproduces published-style improvement numbers
A2  permutation-level splitting inflates test improvement vs family-level
A3  the pipeline learns the planted rule end to end with default forests
A4  later feature stages never hurt when the signal sits in the root logs
A5  property suites (invariance, ordering, hygiene, determinism)
A6  parser round-trips over the full fixture corpus
"""

import math
import warnings

import numpy as np
import pytest

from benloc.dataset import build_oracle_dataset
from benloc.instance import parse_mps, permute_instance, write_mps
from benloc.logs import FeatureStage, extra_cost, gap_features, parse_log
from benloc.graph import build_graph, canonical_signature
from benloc.learners import TrainTestContaminationError, train
from benloc.metrics import (ConfigId, PerfTable, improvement,
                            improvement_upper_bound, pd_best_geomean, pi_best,
                            shifted_geomean)
from benloc.report import evaluate_split, format_pct
from benloc.splits import (DatasetManifest, split_by_instance,
                           split_by_permutation)
from benloc.static_features import extract_static
from benloc.synth import OracleSpec, gen_indset, gen_setcover

from test_learners import planted_examples


def _report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def _table_with_improvements(pd_imp_pct, pi_imp_pct):
    """Two instances, three configs, Default geomean 100 and the requested
    PD-best / PI-best improvements (shift 0)."""
    p = pd_imp_pct / 100.0
    q = pi_imp_pct / 100.0
    b = 100.0 * (1.0 - q)
    c = (100.0 * (1.0 - p)) ** 2 / b
    table = PerfTable()
    cfg_a = ConfigId.parse("RootCutLevel=0")
    cfg_b = ConfigId.parse("RootCutLevel=1")
    for inst, (ta, tb) in (("i1", (b, c)), ("i2", (c, b))):
        table.add(inst, 0, ConfigId.default(), 100.0)
        table.add(inst, 0, cfg_a, ta)
        table.add(inst, 0, cfg_b, tb)
    return table


def test_a1_metric_arithmetic():
    ok = abs(improvement(46.55, 45.39) * 100 - 2.49) <= 0.005

    # (PD-best imp %, PI-best imp %, headroom %) triples as published
    rows = [(25.67, 26.53, "0.86%"),
            (1.84, 9.45, "7.61%"),
            (6.12, 37.84, "31.72%"),
            (5.59, 25.08, "19.49%"),
            (0.67, 34.66, "33.99%")]
    details = []
    for pd_imp, pi_imp, want in rows:
        table = _table_with_improvements(pd_imp, pi_imp)
        got = format_pct(improvement_upper_bound(table, shift=0.0))
        details.append(f"{got}")
        ok = ok and got == want
    _report("A1", ok, f"upper bounds {details}")


def _mean_imp_pd(data, splitter, seeds, stage, hyperparams):
    imps = []
    for s in seeds:
        assignment = splitter(data.manifest(), 0.2, s)
        res = evaluate_split(data, assignment, stage, kind="reg_forest",
                             hyperparams=hyperparams, train_seed=s)
        imps.append(res.imp_pd)
    return float(np.mean(imps))


def test_a2_leakage_contrast():
    # strong family-level effects, weak global rule: family identity is the
    # only thing worth learning, and only the permutation-level split leaks it
    spec = OracleSpec(seed=0, rule_factor=0.9, family_sigma=0.4,
                      noise_sigma=0.05)
    data = build_oracle_dataset(n_families=60, n_perms=10, spec=spec,
                                kind="setcover", seed=0)
    seeds = range(10)
    hp = {"n_trees": 30}
    leaky = _mean_imp_pd(data, split_by_permutation, seeds,
                         FeatureStage.STATIC_ONLY, hp)
    clean = _mean_imp_pd(data, split_by_instance, seeds,
                         FeatureStage.STATIC_ONLY, hp)
    gap_pp = (leaky - clean) * 100
    _report("A2", gap_pp >= 2.0,
            f"by_permutation {format_pct(leaky)} vs by_instance "
            f"{format_pct(clean)} (gap {gap_pp:.2f} pp, need >= 2)")


def test_a3_learnability_end_to_end():
    spec = OracleSpec(seed=1)  # planted static rule, low noise
    data = build_oracle_dataset(n_families=40, n_perms=5, spec=spec,
                                kind="setcover", seed=1)
    assignment = split_by_instance(data.manifest(), 0.2, seed=0)
    # default hyperparameters on purpose: 200 trees, depth 12
    res = evaluate_split(data, assignment, FeatureStage.STATIC_ONLY,
                         kind="reg_forest", hyperparams=None, train_seed=0)
    pi_map, _ = pi_best(data.perf, instances=assignment.test)
    hits = sum(res.predictions[key] == pi_map[key] for key in pi_map)
    recovery = hits / len(pi_map)
    ok = res.imp_pd > 0 and recovery >= 0.90
    _report("A3", ok,
            f"imp over PD best {format_pct(res.imp_pd)}, "
            f"PI-label recovery {recovery:.1%}")


def test_a4_feature_stage_ordering():
    # the rule reads a per-family latent exposed cleanly at root end and
    # noisily in the first root LP gap; static features carry no signal.
    # The favored parameter is root-neutral, so consuming root-end features
    # incurs no re-solve penalty that would mask the information ordering.
    spec = OracleSpec(seed=2, rule_source="latent",
                      rule_config=ConfigId("TreeCutLevel", 1),
                      lp_gap_noise=0.5)
    # enough families that the latent threshold is densely sampled; sparse
    # coverage leaves borderline test families on the wrong side of the cut
    data = build_oracle_dataset(n_families=60, n_perms=5, spec=spec,
                                kind="setcover", seed=2)
    seeds = range(10)
    hp = {"n_trees": 50}
    means = {
        stage: _mean_imp_pd(data, split_by_instance, seeds, stage, hp)
        for stage in (FeatureStage.STATIC_ONLY,
                      FeatureStage.UP_TO_FIRST_ROOT_LP,
                      FeatureStage.UP_TO_ROOT_END)
    }
    static = means[FeatureStage.STATIC_ONLY]
    root_lp = means[FeatureStage.UP_TO_FIRST_ROOT_LP]
    root_end = means[FeatureStage.UP_TO_ROOT_END]
    ok = root_end >= root_lp >= static
    _report("A4", ok,
            f"root_end {format_pct(root_end)} >= first_root_lp "
            f"{format_pct(root_lp)} >= static {format_pct(static)}")


def test_a5_property_suites():
    checks = []

    # exact permutation invariance of static features, 50 instances x 5 seeds
    ok = True
    rng = np.random.default_rng(0)
    instances = []
    for k in range(50):
        if k % 2 == 0:
            inst = gen_setcover(int(rng.integers(4, 15)),
                                int(rng.integers(6, 25)),
                                float(rng.uniform(0.2, 0.9)), seed=k)
        else:
            inst = gen_indset(int(rng.integers(5, 15)),
                              float(rng.uniform(0.2, 0.9)), seed=k)
        if inst.num_rows == 0:
            continue
        instances.append(inst)
        base = extract_static(inst)
        for s in range(1, 6):
            permuted, _ = permute_instance(inst, s)
            ok = ok and extract_static(permuted) == base
    checks.append(("static invariance", ok))

    # graph isomorphism signatures under permutation
    ok = True
    for inst in instances[:10]:
        sig = canonical_signature(build_graph(inst))
        for s in (1, 2, 3):
            permuted, _ = permute_instance(inst, s)
            ok = ok and canonical_signature(build_graph(permuted)) == sig
    checks.append(("graph signatures", ok))

    # shifted geomean identities
    ok = abs(shifted_geomean([7.0] * 5, 10.0) - 7.0) < 1e-9
    ok = ok and abs(shifted_geomean([1.0, 100.0], 0.0) - 10.0) < 1e-12
    checks.append(("geomean identities", ok))

    # gap features bounded on 10^4 random triples; GapClosed complement
    vals = rng.uniform(-1e6, 1e6, size=(10_000, 3))
    ok = True
    for c_d, c_p, c_l in vals:
        d, pd_g, pi_g, closed = gap_features(c_d, c_p, c_l)
        ok = ok and 0 <= d <= 1 and 0 <= pd_g <= 1 and 0 <= pi_g <= 1
        ok = ok and closed == 1.0 - pd_g
    checks.append(("gap bounds", ok))

    # geomean(PI) <= geomean(PD) <= geomean(Default) on 100 random tables
    ok = True
    configs = [ConfigId.default(), ConfigId.parse("RootCutLevel=3"),
               ConfigId.parse("TreeCutLevel=1")]
    for t in range(100):
        table = PerfTable()
        for i in range(int(rng.integers(2, 8))):
            for c in configs:
                table.add(f"f{i}", 0, c, float(rng.uniform(1, 1000)))
        d = shifted_geomean(table.times_for_config(ConfigId.default()), 10.0)
        _, pd_g = pd_best_geomean(table, 10.0)
        _, pi_g = pi_best(table, 10.0)
        ok = ok and pi_g <= pd_g + 1e-9 and pd_g <= d + 1e-9
    checks.append(("baseline ordering", ok))

    # split partition / overlap invariants on random manifests
    ok = True
    for t in range(20):
        nf = int(rng.integers(3, 12))
        ns = int(rng.integers(1, 6))
        manifest = DatasetManifest(
            name="m", families={f"f{i}": {s: f"f{i}.{s}" for s in range(ns)}
                                for i in range(nf)})
        a = split_by_instance(manifest, 0.25, seed=t)
        b = split_by_permutation(manifest, 0.25, seed=t)
        ok = ok and a.covers(manifest) and b.covers(manifest)
        ok = ok and a.family_overlap() == 0
        ok = ok and not (set(a.train) & set(a.test))
        ok = ok and not (set(b.train) & set(b.test))
    checks.append(("split invariants", ok))

    # training refuses examples from registered test families
    try:
        train("knn", planted_examples(8), seed=0, test_registry={"fam1"})
        ok = False
    except TrainTestContaminationError:
        ok = True
    checks.append(("train hygiene", ok))

    # extra_cost never shrinks the measured time
    ok = True
    for total in (0.0, 1.0, 50.0, 7200.0):
        for root in (0.0, 0.5, 10.0):
            for stage in FeatureStage:
                for affects in (False, True):
                    ok = ok and extra_cost(total, root, stage,
                                           affects) >= total
    checks.append(("extra_cost monotone", ok))

    # model determinism under a fixed seed
    a = train("reg_forest", planted_examples(20),
              hyperparams={"n_trees": 10}, seed=9)
    b = train("reg_forest", planted_examples(20),
              hyperparams={"n_trees": 10}, seed=9)
    checks.append(("model determinism", a.to_json() == b.to_json()))

    failed = [name for name, ok in checks if not ok]
    _report("A5", not failed, f"failed suites: {failed}" if failed else
            f"{len(checks)} suites green")


def test_a6_parser_round_trips(mps_corpus, small_oracle):
    ok = len(mps_corpus) >= 20
    detail = f"{len(mps_corpus)} MPS files"
    for path in mps_corpus:
        with open(path) as fh:
            text = fh.read()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            first = parse_mps(text)
            again = parse_mps(write_mps(first))
        if again != first:
            ok = False
            detail += f"; round-trip mismatch: {path}"

    # oracle-emitted logs parse cleanly and re-render losslessly
    from benloc.logs import render_log as _render_log

    n_logs = 0
    for per_cfg in small_oracle.logs.values():
        for log in per_cfg.values():
            n_logs += 1
            back = parse_log(_render_log(log))
            if (back.unknown_lines != 0 or back.stages != log.stages
                    or back.total_time != log.total_time
                    or back.root_time != log.root_time
                    or back.status != log.status):
                ok = False
                detail += "; log round-trip mismatch"
    detail += f", {n_logs} logs"
    _report("A6", ok, detail)
