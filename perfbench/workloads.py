"""The benchmark's three workloads and the checks on their outputs.

A workload has a set-up (timed as ``setup_s``), a pass that the runner repeats
(timed as ``pass_s``) and a check of every pass's outputs.  The runner calls
the check outside the timed region and with tracing off.  A pass is made of
operations, each timed for the recorded ``op_p50_ms``/``op_p90_ms``, and
``quality`` is the outcome a faster but wrong change would lower.

Why each workload was chosen, and which layers it leaves idle, so that a
performance change can name one workload that exercises its mechanism and one
that bypasses it:

* ``ingest`` turns a corpus of large MPS texts into features.  It loads the
  instance, static_features and graph layers and leaves forest, learners and
  logs idle.  Its mixed sizes expose the superlinear ``row_entries`` scan in
  ``extract_static``.
* ``experiment`` is the in-process ``run_experiment`` path.  About 85% of its
  time is forest fit and 15% forest predict, and it covers both impurity modes
  (``reg_forest`` regression, ``pair_ranker`` classification).  The instance
  layer is idle because its tiny instances are built in set-up.
* ``roundtrip`` is the CLI train/evaluate/predict file path.  It uses the same
  layers as the other two in another way: it writes as well as reads, it reads
  many tiny MPS and log files instead of a few large ones, and it runs forest
  predict one row at a time instead of fit.  A fit-only speed-up should leave
  its ``pass_s`` unchanged.  The run's first pass writes the dataset into a
  fresh directory and later passes overwrite those files: creating and
  deleting its ~1200 files on every pass made the file system's own state
  drift (on the 2-vCPU ext4 sandbox a pass's write grew from 0.15 s to 0.9 s
  of mostly kernel time over 30 passes, while an overwrite stayed at about
  0.3 s), so its timing measured the disk's history rather than benloc.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from benloc import (dataset, graph, instance, learners, logs, metrics, report,
                    splits, static_features, synth)


def sub_seed(seed, *parts):
    """A 32-bit seed derived from the workload seed and integer parts."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


class CheckLog:
    """How often each named check ran and how often it failed."""

    def __init__(self):
        self.runs = {}
        self.fails = {}

    def expect(self, name, ok):
        ok = bool(ok)
        self.runs[name] = self.runs.get(name, 0) + 1
        if not ok:
            self.fails[name] = self.fails.get(name, 0) + 1
        return ok


class State:
    """What a set-up builds; ``ref`` holds the verified outputs of the first
    pass, which every later pass must reproduce."""

    def __init__(self, **kw):
        self.ref = None
        self.__dict__.update(kw)


class PassResult:
    """Latencies of the pass's unit operations, and its outputs."""

    def __init__(self, op_times, outputs):
        self.op_times = op_times
        self.outputs = outputs


class Verdict:
    """Operations attempted and failed in one pass, the pass's quality and
    extra numbers worth recording."""

    def __init__(self, attempted, failed, quality, info=None):
        self.attempted = attempted
        self.failed = failed
        self.quality = quality
        self.info = info or {}


# ---------------------------------------------------------------------------


class Ingest:
    name = "ingest"
    why = ("a few large set-cover/indset MPS texts of mixed size through parse, "
           "static features, permute, write and graph signature; forest, "
           "learners and logs idle")
    op = "one instance through parse, features, permute, write and signature"
    quality = "share of instances whose round-trip and invariance checks passed"
    checks = ("ingest.write_parse_roundtrip",
              "ingest.features_permutation_invariant",
              "ingest.signature_permutation_invariant",
              "ingest.same_as_verified_pass")

    # (generator, arguments): mixed sizes from about 12k to 100k nnz, 200k in
    # all.  The indset instances have many two-entry rows, where the row scan
    # costs most.
    corpus = (
        ("setcover", (1000, 2000, 0.010)),
        ("indset", (200, 0.30)),
        ("setcover", (2000, 3000, 0.010)),
        ("indset", (260, 0.35)),
        ("setcover", (3000, 4000, 0.008)),
    )
    tiny_corpus = (
        ("setcover", (40, 80, 0.10)),
        ("indset", (20, 0.30)),
        ("setcover", (80, 120, 0.08)),
    )

    def setup(self, seed, tiny, workdir):
        items, sizes = [], []
        for k, (kind, args) in enumerate(self.tiny_corpus if tiny else self.corpus):
            gen = synth.gen_setcover if kind == "setcover" else synth.gen_indset
            inst = gen(*args, sub_seed(seed, k))
            perm_seed = 1 + sub_seed(seed, k, 1) % (2 ** 31 - 1)  # 0 is identity
            items.append((instance.write_mps(inst), perm_seed))
            sizes.append({"kind": kind, "rows": inst.num_rows,
                          "cols": inst.num_cols, "nnz": inst.nnz})
        return State(items=items, sizes=sizes)

    def describe(self, state):
        return {"instances": state.sizes,
                "total_nnz": sum(s["nnz"] for s in state.sizes),
                "mps_mb": sum(len(t) for t, _ in state.items) / 1e6}

    def ops_per_pass(self, state):
        return len(state.items)

    def run_pass(self, state):
        op_times, outputs = [], []
        for text, perm_seed in state.items:
            t0 = time.perf_counter()
            x = instance.parse_mps(text)
            feats = static_features.extract_static(x)
            p, _ = instance.permute_instance(x, perm_seed)
            written = instance.write_mps(p)
            sig = graph.canonical_signature(graph.build_graph(p))
            op_times.append(time.perf_counter() - t0)
            outputs.append((x, feats, p, written, sig))
        return PassResult(op_times, outputs)

    def check(self, state, result, log):
        failed = 0
        if state.ref is None:
            # first pass: verify from scratch, then keep it as the reference
            state.ref = []
            for x, feats, p, written, sig in result.outputs:
                ok = log.expect("ingest.write_parse_roundtrip",
                                instance.parse_mps(written) == p)
                ok &= log.expect("ingest.features_permutation_invariant",
                                 static_features.extract_static(p) == feats)
                ok &= log.expect(
                    "ingest.signature_permutation_invariant",
                    graph.canonical_signature(graph.build_graph(x)) == sig)
                failed += not ok
                state.ref.append((feats, written, sig))
        else:
            for (_, feats, _, written, sig), ref in zip(result.outputs, state.ref):
                failed += not log.expect("ingest.same_as_verified_pass",
                                         (feats, written, sig) == ref)
        n = len(result.outputs)
        return Verdict(n, failed, 1.0 - failed / n)


# ---------------------------------------------------------------------------


class Experiment:
    name = "experiment"
    why = ("run_experiment on A4's 60x5 latent-rule oracle at root_end with "
           "reg_forest and pair_ranker: forest fit and predict dominate; "
           "instance layer idle")
    op = "one run_experiment evaluation (reg_forest or pair_ranker)"
    quality = ("reg_forest's share of the PD-best to PI-best gap closed: "
               "imp_pd(selector) / imp_pd(PI-best)")
    checks = ("experiment.same_results_as_first_pass",
              "experiment.pi_best_is_lowest",
              "experiment.reg_forest_beats_pd_best")
    kinds = ("reg_forest", "pair_ranker")
    stage = logs.FeatureStage.UP_TO_ROOT_END
    test_fraction = 0.2
    # A4's dataset shape with 5 trees instead of A4's 50, so that a run holds
    # a dozen passes for a steady median (the seed alone moves a pass's work
    # by about 5%, so the host's share of the spread must stay small)
    full = {"families": 60, "perms": 5, "trees": 5}
    tiny = {"families": 30, "perms": 2, "trees": 5}

    def setup(self, seed, tiny, workdir):
        size = self.tiny if tiny else self.full
        # A4's oracle: the rule reads a per-family latent seen at root end
        spec = synth.OracleSpec(seed=seed, rule_source="latent",
                                rule_config=metrics.ConfigId("TreeCutLevel", 1),
                                lp_gap_noise=0.5)
        data = dataset.build_oracle_dataset(
            n_families=size["families"], n_perms=size["perms"], spec=spec,
            kind="setcover", seed=seed)
        return State(data=data, size=size, split_seed=seed)

    def describe(self, state):
        return {"families": state.size["families"], "perms": state.size["perms"],
                "trees": state.size["trees"], "stage": self.stage.value,
                "kinds": list(self.kinds), "test_fraction": self.test_fraction}

    def ops_per_pass(self, state):
        return len(self.kinds)

    def run_pass(self, state):
        op_times, outputs = [], []
        for kind in self.kinds:
            t0 = time.perf_counter()
            [res] = report.run_experiment(
                state.data, self.stage, kind=kind, strategy="by_instance",
                split_seeds=(state.split_seed,),
                test_fraction=self.test_fraction,
                hyperparams={"n_trees": state.size["trees"]})
            op_times.append(time.perf_counter() - t0)
            outputs.append(res)
        return PassResult(op_times, outputs)

    def check(self, state, result, log):
        first = state.ref is None
        if first:
            state.ref = result.outputs
        failed, quality = 0, 0.0
        for res, ref in zip(result.outputs, state.ref):
            ok = first or log.expect("experiment.same_results_as_first_pass",
                                     res == ref)
            # no selector beats the per-instance best on the test side
            ok &= log.expect("experiment.pi_best_is_lowest",
                             res.pi_geomean <= min(res.pd_geomean,
                                                   res.pred_geomean))
            if res.kind == "reg_forest":
                ok &= log.expect("experiment.reg_forest_beats_pd_best",
                                 res.imp_pd > 0)
                headroom = res.pd_geomean - res.pi_geomean
                quality = ((res.pd_geomean - res.pred_geomean) / headroom
                           if headroom > 0 else 1.0)
            failed += not ok
        info = {f"imp_pd.{r.kind}": r.imp_pd for r in result.outputs}
        info["mean_imp_pd"] = statistics.fmean(r.imp_pd for r in result.outputs)
        return Verdict(len(result.outputs), failed, quality, info)


# ---------------------------------------------------------------------------


class Roundtrip:
    name = "roundtrip"
    why = ("CLI file path: write and load many tiny MPS and log files, model "
           "JSON round trip, one-row predict_config per instance; forest fit "
           "and graph idle")
    op = "one predict_config, from features to chosen config"
    quality = "pi_recovery: share of instances whose chosen config is PI-best"
    checks = ("roundtrip.perf_table_equal", "roundtrip.logs_equal",
              "roundtrip.instances_equal", "roundtrip.static_features_equal",
              "roundtrip.model_json_stable",
              "roundtrip.same_choice_as_in_memory_model",
              "roundtrip.every_file_rewritten")
    stage = logs.FeatureStage.UP_TO_ROOT_END
    full = {"families": 40, "perms": 5, "trees": 10}
    tiny = {"families": 8, "perms": 2, "trees": 3}

    def setup(self, seed, tiny, workdir):
        size = self.tiny if tiny else self.full
        data = dataset.build_oracle_dataset(
            n_families=size["families"], n_perms=size["perms"],
            spec=synth.OracleSpec(seed=seed), kind="setcover", seed=seed,
            keep_instances=True)
        # what `benloc train` does with a by-instance split
        assignment = splits.split_by_instance(data.manifest(), 0.2, seed)
        examples = {(ex.family, ex.seed): ex for ex in learners.build_examples(
            data.perf, data.feature_map(self.stage))}
        model = learners.train(
            "reg_forest", [examples[p] for p in assignment.train],
            hyperparams={"n_trees": size["trees"]}, seed=seed,
            test_registry=set(assignment.test_families()))
        return State(data=data, model=model, size=size,
                     out_dir=os.path.join(workdir, "dataset"))

    def describe(self, state):
        return {"families": state.size["families"], "perms": state.size["perms"],
                "trees": state.size["trees"], "stage": self.stage.value,
                "instances": len(state.data.pairs())}

    def ops_per_pass(self, state):
        return 2 + len(state.data.pairs())

    def run_pass(self, state):
        manifest_path = dataset.write_dataset(state.data, state.out_dir)
        model_path = os.path.join(state.out_dir, "model.json")
        text = state.model.to_json()
        with open(model_path, "w") as fh:
            fh.write(text)
        with open(model_path) as fh:
            model = learners.TrainedSelector.from_json(fh.read())
        data = dataset.load_dataset(manifest_path)
        op_times, chosen = [], {}
        for key, (names, values) in sorted(data.feature_map(self.stage).items()):
            t0 = time.perf_counter()
            chosen[key] = learners.predict_config(model, values,
                                                  feature_names=names)
            op_times.append(time.perf_counter() - t0)
        return PassResult(op_times, (data, text, model, chosen))

    @staticmethod
    def _mtimes(out_dir):
        return {os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
                for d, _, files in os.walk(out_dir) for f in files}

    def check(self, state, result, log):
        data, text, model, chosen = result.outputs
        orig = state.data
        if state.ref is None:
            choices = {key: learners.predict_config(state.model, values,
                                                    feature_names=names)
                       for key, (names, values)
                       in orig.feature_map(self.stage).items()}
            # the last pass's file times, so that a pass that left a file
            # of an earlier pass in place fails
            state.ref = (choices, metrics.pi_best(orig.perf)[0], {})
        choices, pi_map, mtimes = state.ref
        now = self._mtimes(state.out_dir)
        if mtimes:
            ok_files = log.expect("roundtrip.every_file_rewritten",
                                  now.keys() == mtimes.keys() and all(
                                      now[f] > mtimes[f] for f in now))
        else:
            ok_files = True  # the run's first pass wrote a fresh directory
        mtimes.clear()
        mtimes.update(now)
        ok_data = log.expect("roundtrip.perf_table_equal",
                             data.perf.to_csv() == orig.perf.to_csv()
                             and data.perf.time_limit == orig.perf.time_limit)
        ok_data &= log.expect("roundtrip.logs_equal", data.logs == orig.logs)
        ok_data &= log.expect("roundtrip.instances_equal",
                              data.instances == orig.instances)
        ok_data &= log.expect("roundtrip.static_features_equal",
                              data.static == orig.static)
        ok_model = log.expect("roundtrip.model_json_stable",
                              model.to_json() == text)
        failed = (not (ok_data and ok_files)) + (not ok_model)
        failed += sum(not log.expect("roundtrip.same_choice_as_in_memory_model",
                                     chosen.get(key) == cfg)
                      for key, cfg in choices.items())
        hits = sum(chosen.get(key) == cfg for key, cfg in pi_map.items())
        return Verdict(2 + len(choices), failed, hits / len(pi_map),
                       {"model_bytes": len(text)})


WORKLOADS = {w.name: w for w in (Ingest(), Experiment(), Roundtrip())}
