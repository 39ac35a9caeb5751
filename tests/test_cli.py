import base64
import errno
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from benloc.cli import STAGES, main
from benloc.dataset import build_oracle_dataset, load_dataset
from benloc.forest import RandomForest
from benloc.learners import (TrainedSelector, build_examples, predict_config,
                             train)
from benloc.logs import FeatureStage
from benloc.report import evaluate_split, format_pct
from benloc.splits import SplitAssignment
from benloc.synth import OracleSpec

SUBCOMMANDS = ["synth", "permute", "features", "split", "train", "predict",
               "evaluate", "suitability", "pipeline"]


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny oracle dataset plus bare MPS files driven through the CLI."""
    d = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    r = runner.invoke(main, ["synth", "--kind", "setcover", "--count", "2",
                             "--rows", "8", "--cols", "14", "--density", "0.4",
                             "--seed", "1", "--out-dir", str(d / "mps")])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["synth", "--oracle", "--count", "8", "--perms",
                             "3", "--seed", "0", "--out-dir", str(d / "ds")])
    assert r.exit_code == 0, r.output
    return d


@pytest.fixture(scope="module")
def model_path(workdir):
    """A kNN model trained through the CLI on a by-instance split."""
    runner = CliRunner()
    manifest = str(workdir / "ds" / "manifest.json")
    split, model = str(workdir / "knn_split.json"), str(workdir / "knn.json")
    for args in (["split", "--manifest", manifest, "--out", split],
                 ["train", "--manifest", manifest, "--split", split,
                  "--kind", "knn", "--out", model]):
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
    return model


@pytest.fixture(scope="module")
def forest_model_path(workdir, model_path):
    """A small clf_forest model on the kNN model's split."""
    model = str(workdir / "forest.json")
    r = CliRunner().invoke(main, [
        "train", "--manifest", str(workdir / "ds" / "manifest.json"),
        "--split", str(workdir / "knn_split.json"), "--stage", "root_end",
        "--kind", "clf_forest", "--out", model])
    assert r.exit_code == 0, r.output
    return model


@pytest.fixture(scope="module")
def ranker_models(workdir, model_path):
    """Small reg_forest and pair_ranker models on the kNN model's split."""
    paths = {}
    for kind in ("reg_forest", "pair_ranker"):
        paths[kind] = str(workdir / f"{kind}.json")
        r = CliRunner().invoke(main, [
            "train", "--manifest", str(workdir / "ds" / "manifest.json"),
            "--split", str(workdir / "knn_split.json"), "--stage", "root_end",
            "--kind", kind, "--out", paths[kind]])
        assert r.exit_code == 0, r.output
    return paths


class TestHelp:
    def test_group_help(self, runner):
        r = runner.invoke(main, ["--help"])
        assert r.exit_code == 0
        for sub in SUBCOMMANDS:
            assert sub in r.output

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help(self, runner, sub):
        r = runner.invoke(main, [sub, "--help"])
        assert r.exit_code == 0
        assert "--help" in r.output


class TestCommands:
    def test_permute_writes_files_and_records(self, runner, workdir):
        mps = sorted(os.listdir(workdir / "mps"))[0]
        out = workdir / "perms"
        r = runner.invoke(main, ["permute", "--in", str(workdir / "mps" / mps),
                                 "--seeds", "0..2", "--out-dir", str(out)])
        assert r.exit_code == 0, r.output
        stem = mps[:-4]
        for s in range(3):
            assert (out / f"{stem}.perm{s}.mps").exists()
            rec = json.loads((out / f"{stem}.perm{s}.json").read_text())
            assert rec["seed"] == s

    def test_features_static_from_mps(self, runner, workdir):
        paths = [str(workdir / "mps" / f)
                 for f in sorted(os.listdir(workdir / "mps"))]
        out = workdir / "static.csv"
        args = ["features", "--out", str(out)]
        for p in paths:
            args += ["--mps", p]
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
        lines = out.read_text().splitlines()
        assert len(lines) == len(paths) + 1
        assert lines[0].startswith("instance,Rows,Columns,NonZeros")

    def test_features_dynamic_needs_manifest(self, runner, workdir):
        r = runner.invoke(main, ["features", "--stage", "root_end",
                                 "--out", str(workdir / "x.csv")])
        assert r.exit_code != 0

    def test_full_flow(self, runner, workdir):
        manifest = str(workdir / "ds" / "manifest.json")
        split = str(workdir / "split.json")
        model = str(workdir / "model.json")

        r = runner.invoke(main, ["split", "--manifest", manifest,
                                 "--strategy", "by_instance",
                                 "--test-frac", "0.25", "--seed", "0",
                                 "--out", split])
        assert r.exit_code == 0, r.output
        assert "family_overlap=0" in r.output

        r = runner.invoke(main, ["train", "--manifest", manifest, "--split",
                                 split, "--stage", "root_end", "--kind",
                                 "reg_forest", "--out", model])
        assert r.exit_code == 0, r.output

        mps0 = str(workdir / "ds" / "instances" / "fam000.perm0.mps")
        log0 = str(workdir / "ds" / "logs" / "fam000.perm0.Default.log")
        r = runner.invoke(main, ["predict", "--model", model, "--mps", mps0,
                                 "--log", log0, "--stage", "root_end"])
        assert r.exit_code == 0, r.output
        assert r.output.strip()

        r = runner.invoke(main, ["evaluate", "--manifest", manifest,
                                 "--model", model, "--split", split,
                                 "--stage", "root_end"])
        assert r.exit_code == 0, r.output
        assert "imp_default=" in r.output

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_predict_is_the_feature_map_row_choice(self, runner, tmp_path,
                                                   stage):
        """predict on one instance's MPS and Default log prints the config
        predict_config picks for that instance's feature_map row: the CLI's
        one-row features are the dataset's, through the same functions."""
        ds = tmp_path / "ds"
        r = runner.invoke(main, ["synth", "--oracle", "--count", "6",
                                 "--perms", "2", "--seed", "3", "--out-dir",
                                 str(ds)])
        assert r.exit_code == 0, r.output
        data = load_dataset(str(ds / "manifest.json"))
        fmap = data.feature_map(STAGES[stage])
        model = train("reg_forest", build_examples(data.perf, fmap),
                      hyperparams={"n_trees": 5}, seed=0)
        (tmp_path / "model.json").write_text(model.to_json())
        for (f, s), (names, values) in fmap.items():
            r = runner.invoke(main, [
                "predict", "--model", str(tmp_path / "model.json"), "--mps",
                str(ds / "instances" / f"{f}.perm{s}.mps"), "--log",
                str(ds / "logs" / f"{f}.perm{s}.Default.log"), "--stage",
                stage])
            assert r.exit_code == 0, r.output
            assert r.output == f"{predict_config(model, values, names)}\n"
        assert len(fmap) == 12

    def test_predict_without_log_fails_at_dynamic_stage(self, runner, workdir):
        manifest = str(workdir / "ds" / "manifest.json")
        model = str(workdir / "model.json")
        mps0 = str(workdir / "ds" / "instances" / "fam000.perm0.mps")
        r = runner.invoke(main, ["predict", "--model", model, "--mps", mps0,
                                 "--stage", "root_end"])
        assert r.exit_code != 0

    def test_suitability(self, runner, workdir):
        perf = str(workdir / "ds" / "perf.csv")
        out_csv = str(workdir / "suit.csv")
        r = runner.invoke(main, ["suitability", "--perf", perf, "--name",
                                 "oracle", "--out-csv", out_csv])
        assert r.exit_code == 0, r.output
        assert "Imp. UB" in r.output
        assert os.path.exists(out_csv)

    def test_pipeline(self, runner, workdir):
        manifest = str(workdir / "ds" / "manifest.json")
        out = workdir / "report"
        r = runner.invoke(main, ["pipeline", "--manifest", manifest,
                                 "--stage", "static", "--seeds", "0..1",
                                 "--n-trees", "10", "--out-dir", str(out)])
        assert r.exit_code == 0, r.output
        assert (out / "report_per_seed.csv").exists()
        assert (out / "report.txt").exists()
        assert "mean imp over Default" in r.output

    def test_pipeline_reports_stage_on_error(self, runner, workdir, tmp_path):
        manifest = str(workdir / "ds" / "manifest.json")
        for n_trees in ("0", "-1"):
            r = runner.invoke(main, ["pipeline", "--manifest", manifest,
                                     "--strategy", "by_instance", "--test-frac",
                                     "0.25", "--seeds", "0", "--stage", "static",
                                     "--kind", "reg_forest", "--n-trees", n_trees,
                                     "--out-dir", str(tmp_path / "rep")])
            assert r.exit_code == 1
            assert r.output.splitlines() == [
                f"error in pipeline: n_trees must be >= 1, got {n_trees}"]

    @pytest.mark.parametrize("sub", ["permute", "pipeline"])
    def test_empty_seed_range_refused(self, runner, workdir, tmp_path, sub):
        args = {"permute": ["--in", str(workdir / "ds" / "instances" /
                                        "fam000.perm0.mps")],
                "pipeline": ["--manifest",
                             str(workdir / "ds" / "manifest.json")]}[sub]
        r = runner.invoke(main, [sub] + args + ["--seeds", "5..3",
                                                "--out-dir", str(tmp_path)])
        assert r.exit_code == 1
        assert r.output.splitlines() == [f"error in {sub}: no seeds in '5..3'"]
        assert os.listdir(tmp_path) == []  # nothing written

    def test_train_then_evaluate_matches_evaluate_split(self, runner,
                                                        workdir, tmp_path):
        manifest = str(workdir / "ds" / "manifest.json")
        split, model = str(tmp_path / "split.json"), str(tmp_path / "m.json")
        for args in (["split", "--manifest", manifest, "--test-frac", "0.25",
                      "--seed", "1", "--out", split],
                     ["train", "--manifest", manifest, "--split", split,
                      "--stage", "root_end", "--kind", "clf_forest",
                      "--seed", "3", "--out", model]):
            r = runner.invoke(main, args)
            assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["evaluate", "--manifest", manifest, "--model",
                                 model, "--split", split, "--stage",
                                 "root_end"])
        assert r.exit_code == 0, r.output

        with open(split) as fh:
            assignment = SplitAssignment.from_json(fh.read())
        res = evaluate_split(load_dataset(manifest), assignment,
                             FeatureStage.UP_TO_ROOT_END, "clf_forest",
                             train_seed=3)
        assert r.output.splitlines() == [
            f"pred={res.pred_geomean:.4f} default={res.default_geomean:.4f} "
            f"pd_best={res.pd_geomean:.4f} ({res.pd_config}) "
            f"pi_best={res.pi_geomean:.4f}",
            f"imp_default={format_pct(res.imp_default)} "
            f"imp_pd_best={format_pct(res.imp_pd)}"]

    @pytest.mark.parametrize("case", [
        "permute", "features", "predict", "evaluate", "manifest_list",
        "manifest_key", "perf_short_row", "dataset_log", "split_list",
        "split_json", "model_truncated", "not_utf8", "manifest_families",
        "split_pairs", "manifest_perf_path", "manifest_log_dir",
        "manifest_seed", "mps_huge_coef", "mps_nan_coef", "mps_inf_rhs",
        "split_unknown_train", "split_unknown_test", "mps_inf_lower_bound",
        "model_kind_predict", "model_kind_evaluate", "manifest_null_perf_path",
        "manifest_null_log_dir_features", "manifest_null_log_dir_train",
        "model_dtype", "model_n_classes", "model_mode", "model_forest_1",
        "model_knn_k", "model_knn_mean", "model_pairs", "model_payload",
        "manifest_empty_family", "model_v2_predict", "model_layout",
        "dataset_log_inf", "model_forest_nan", "model_knn_inf_mean",
        "out_is_directory", "model_n_trees", "train_shift_negative",
        "train_shift_nan", "pipeline_shift_nan", "suitability_shift_nan",
        "perf_time_limit", "perf_status", "split_seed", "synth_count_zero",
        "synth_count_negative", "synth_perms_zero", "synth_perms_negative"])
    def test_bad_input_is_one_error_line(self, runner, workdir, model_path,
                                         forest_model_path, ranker_models,
                                         tmp_path, case):
        ds = workdir / "ds"
        manifest = json.loads((ds / "manifest.json").read_text())
        bad = tmp_path / "bad.mps"
        bad.write_text("NAME bad\nROWS\n N  OBJ\nBOGUS\nENDATA\n")
        # a model file in the retired v1 format
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps({"format": "benloc-model-v1", "kind": "knn",
                                  "payload": {"X": {"__array__": [[0.0]]}}}))
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        nokey = tmp_path / "nokey.json"
        nokey.write_text(json.dumps({"name": "ds"}))
        broken = tmp_path / "broken.json"
        broken.write_text('{"train": [')
        binary = tmp_path / "binary.mps"
        binary.write_bytes(b"\xff\xfeNAME x\n")
        no_families = tmp_path / "no_families.json"
        no_families.write_text(json.dumps({"name": "ds", "families": []}))
        unpaired = tmp_path / "unpaired.json"
        with open(workdir / "knn_split.json") as fh:
            good_split = json.load(fh)
        unpaired.write_text(json.dumps(dict(good_split, train=[1])))
        seedless = tmp_path / "seedless.json"
        seedless.write_text(json.dumps(dict(good_split, seed="x")))
        unknown = {}  # splits naming an instance the dataset lacks
        for side in ("train", "test"):
            unknown[side] = tmp_path / f"unknown_{side}.json"
            unknown[side].write_text(json.dumps(dict(
                good_split, **{side: good_split[side] + [["fam999", 0]]})))
        odd = {}  # manifests with one field of the wrong type
        for key, value in (("perf_path", 5), ("log_dir", ["x"]),
                           ("families", {"a": {"x": "p.mps"}})):
            odd[key] = tmp_path / f"odd_{key}.json"
            odd[key].write_text(json.dumps({"name": "ds", "families": {},
                                            key: value}))
        # one all-binary equality row with a non-finite number
        nonfinite = {}
        for coef, rhs, bound in (("1e400", "1", "BV BND  x"),
                                 ("nan", "1", "BV BND  x"),
                                 ("1", "inf", "BV BND  x"),
                                 ("1", "1", "LO BND  x  inf")):
            nonfinite[coef, rhs] = tmp_path / f"nonfinite_{coef}_{rhs}.mps"
            nonfinite[coef, rhs].write_text(
                "NAME nf\nROWS\n N  OBJ\n E  c1\nCOLUMNS\n"
                "    M1  'MARKER'  'INTORG'\n"
                f"    x  c1  {coef}\n"
                "    M2  'MARKER'  'INTEND'\n"
                f"RHS\n    RHS  c1  {rhs}\nBOUNDS\n {bound}\nENDATA\n")
        perf = tmp_path / "perf.csv"
        perf.write_text("".join((ds / "perf.csv").read_text()
                                .splitlines(keepends=True)[:2])
                        + "fam000,0,Default\n")
        # the dataset's perf.csv with a negative time limit
        limited = tmp_path / "limited.csv"
        limited.write_text((ds / "perf.csv").read_text()
                           .replace(",7200.0\n", ",-5.0\n"))
        # the dataset's perf.csv with a status no run can have
        statused = tmp_path / "statused.csv"
        statused.write_text((ds / "perf.csv").read_text()
                           .replace(",optimal,", ",bogus,", 1))
        # the dataset with one Default log that has a non-numeric value
        (tmp_path / "logs").mkdir()
        log = tmp_path / "logs" / "fam000.perm0.Default.log"
        log.write_text("ROOTLP active=x\n"
                       "STATUS status=optimal total_time=2.0 root_time=1.0\n")
        bad_logs = tmp_path / "manifest.json"
        bad_logs.write_text(json.dumps(dict(
            manifest, log_dir=str(tmp_path / "logs"),
            perf_path=str(ds / "perf.csv"),
            families={f: {s: str(ds / p) for s, p in seeds.items()}
                      for f, seeds in manifest["families"].items()})))
        # the dataset with one RootCutLevel=3 log that has infinite times
        (tmp_path / "inf_logs").mkdir()
        inf_log = tmp_path / "inf_logs" / "fam000.perm0.RootCutLevel=3.log"
        inf_log.write_text(
            "STATUS status=optimal total_time=inf root_time=inf\n")
        inf_logs = tmp_path / "inf_manifest.json"
        inf_logs.write_text(json.dumps(dict(
            json.loads(bad_logs.read_text()),
            log_dir=str(tmp_path / "inf_logs"))))
        # a forest model whose first threshold array lost its last value
        with open(forest_model_path) as fh:
            model = json.load(fh)
        arr = model["payload"]["forest"]["__forest__"]["threshold"]["__array__"]
        n = arr["shape"][0]
        arr["base64"] = base64.b64encode(base64.b64decode(
            arr["base64"])[:-8]).decode()
        arr["shape"] = [n - 1]
        truncated = tmp_path / "truncated.json"
        truncated.write_text(json.dumps(model))
        # a model file whose kind no version knows
        with open(model_path) as fh:
            bogus = tmp_path / "bogus.json"
            bogus.write_text(json.dumps(dict(json.load(fh), kind="bogus")))
        # the dataset's manifest with a null perf_path or log_dir
        null = {}
        for key in ("perf_path", "log_dir"):
            null[key] = tmp_path / f"null_{key}.json"
            null[key].write_text(json.dumps(dict(
                manifest, perf_path=str(ds / "perf.csv"),
                log_dir=str(ds / "logs"),
                families={f: {s: str(ds / p) for s, p in seeds.items()}
                          for f, seeds in manifest["families"].items()})
                | {key: None}))
        # model files with one field broken
        def tampered(source, name, change):
            with open(source) as fh:
                model = json.load(fh)
            change(model["payload"])
            (tmp_path / name).write_text(json.dumps(model))
            return tmp_path / name, model

        def forest(payload):
            return payload["forest"]["__forest__"]

        def zero_d(arr):
            arr.update(shape=[], base64=base64.b64encode(base64.b64decode(
                arr["base64"])[:8]).decode())

        def filled(arr, value):  # every entry set to value
            arr.update(base64=base64.b64encode(np.full(
                arr["shape"], value, dtype=arr["dtype"]).tobytes()).decode())

        def leaves_first(arr):  # every internal node after every leaf
            arr.update(base64=base64.b64encode(np.sort(np.frombuffer(
                base64.b64decode(arr["base64"]), dtype=arr["dtype"]))
                .tobytes()).decode())
        broken_model = {
            "model_dtype": tampered(forest_model_path, "dtype.json", lambda p:
                                    forest(p)["threshold"]["__array__"]
                                    .update(dtype="")),
            "model_n_classes": tampered(forest_model_path, "n_classes.json",
                                        lambda p: forest(p).update(
                                            n_classes="2")),
            "model_mode": tampered(forest_model_path, "mode.json", lambda p:
                                   forest(p).update(mode="bogus")),
            "model_forest_1": tampered(ranker_models["reg_forest"],
                                       "forest_1.json",
                                       lambda p: p.pop("forest_1")),
            "model_knn_k": tampered(model_path, "k.json",
                                    lambda p: p.update(k="x")),
            "model_knn_mean": tampered(model_path, "mean.json", lambda p:
                                       zero_d(p["mean"]["__array__"])),
            "model_pairs": tampered(ranker_models["pair_ranker"], "pairs.json",
                                    lambda p: p.update(pairs=[[0, 9]])),
            "model_layout": tampered(forest_model_path, "layout.json",
                                     lambda p: leaves_first(
                                         forest(p)["feature"]["__array__"])),
            "model_forest_nan": tampered(ranker_models["reg_forest"],
                                         "nan_leaves.json", lambda p: filled(
                                             p["forest_0"]["__forest__"]
                                             ["value"]["__array__"], np.nan)),
            "model_knn_inf_mean": tampered(model_path, "inf_mean.json",
                                           lambda p: filled(
                                               p["mean"]["__array__"], np.inf)),
        }
        n_trees = forest(broken_model["model_layout"][1]["payload"])["n_trees"]
        # a model file of the retired v2 format, which stored its nodes in
        # preorder with right-child pointers
        with open(forest_model_path) as fh:
            v2 = tmp_path / "v2.json"
            v2.write_text(json.dumps(dict(json.load(fh),
                                          format="benloc-model-v2")))
        with open(model_path) as fh:
            listed_payload = tmp_path / "payload.json"
            listed_payload.write_text(json.dumps(dict(json.load(fh),
                                                      payload=[])))
        # a reg_forest file whose forest_2 has one tree fewer than forest_0
        with open(ranker_models["reg_forest"]) as fh:
            reg = TrainedSelector.from_json(fh.read())
        reg_trees = reg.payload["forest_0"].n_trees
        reg.payload["forest_2"] = RandomForest(
            mode="regression", n_trees=reg_trees - 1, seed=0).fit(
                np.zeros((2, len(reg.feature_names))), np.zeros(2))
        unequal = tmp_path / "unequal.json"
        unequal.write_text(reg.to_json())
        n_features = len(broken_model["model_knn_mean"][1]["feature_names"])
        n_configs = len(broken_model["model_pairs"][1]["configs"])
        empty_family = tmp_path / "empty_family.json"
        empty_family.write_text(json.dumps(dict(
            manifest, families=dict(manifest["families"], famX={}))))
        mps = str(ds / "instances" / "fam000.perm0.mps")
        split = str(workdir / "knn_split.json")

        def tampered_model(case, reason):
            path = broken_model[case][0]
            return (*evaluate(path, split), path, reason)

        def split_with(manifest):
            return ("split", ["--manifest", str(manifest), "--out",
                              str(tmp_path / "s.json")])

        def features(mps):
            return ("features", ["--mps", str(mps), "--out",
                                 str(tmp_path / "f.csv")])

        def evaluate(model, split):
            return ("evaluate", ["--manifest", str(ds / "manifest.json"),
                                 "--model", str(model), "--split", str(split)])

        def oracle(count, perms, field):
            value = {"n_families": count, "n_perms": perms}[field]
            return ("synth", ["--oracle", "--count", count, "--perms", perms,
                              "--out-dir", str(tmp_path / "oracle")], None,
                    f"{field} must be >= 1, not {value}")
        # command, arguments, the file the error names and the reason given
        sub, args, path, reason = {
            "permute": ("permute", ["--in", mps, "--seeds", "0..x",
                                    "--out-dir", str(tmp_path)], None, None),
            "features": ("features", ["--mps", str(bad), "--out",
                                      str(tmp_path / "f.csv")], bad,
                         "line 4: unknown section header 'BOGUS'"),
            "predict": ("predict", ["--model", model_path, "--mps", str(bad)],
                        bad, "line 4: unknown section header 'BOGUS'"),
            "evaluate": (*evaluate(v1, split), v1,
                         "model format 'benloc-model-v1' is not "
                         "'benloc-model-v3'; retrain the model"),
            "manifest_list": ("split", ["--manifest", str(listed), "--out",
                                        str(tmp_path / "s.json")], listed,
                              "manifest is not a JSON object"),
            "manifest_key": ("split", ["--manifest", str(nokey), "--out",
                                       str(tmp_path / "s.json")], nokey,
                             "manifest lacks key 'families'"),
            "perf_short_row": ("suitability", ["--perf", str(perf)], perf,
                               "line 3: short row"),
            "dataset_log": ("pipeline", ["--manifest", str(bad_logs),
                                         "--seeds", "0", "--out-dir",
                                         str(tmp_path / "rep")], log,
                            "line 1: non-numeric value 'x' for 'active'"),
            "split_list": (*evaluate(model_path, listed), listed,
                           "split is not a JSON object"),
            "split_json": (*evaluate(model_path, broken), broken, None),
            "model_truncated": (
                *evaluate(truncated, split), truncated,
                f"forest field 'threshold' has {n - 1} entries, expected {n} "
                f"(one per internal node)"),
            "not_utf8": ("features", ["--mps", str(binary), "--out",
                                      str(tmp_path / "f.csv")], binary,
                         "not UTF-8 text (invalid start byte at byte 0)"),
            "manifest_families": ("split", ["--manifest", str(no_families),
                                            "--out", str(tmp_path / "s.json")],
                                  no_families,
                                  "manifest 'families' is not a JSON object"),
            "split_pairs": (*evaluate(model_path, unpaired), unpaired,
                            "split 'train' is not a list of [family, seed] "
                            "pairs"),
            "split_seed": (*evaluate(model_path, seedless), seedless,
                           "split 'seed' is not an int"),
            "manifest_perf_path": (*split_with(odd["perf_path"]),
                                   odd["perf_path"],
                                   "manifest 'perf_path' is not a string or "
                                   "null"),
            "manifest_log_dir": (*split_with(odd["log_dir"]), odd["log_dir"],
                                 "manifest 'log_dir' is not a string or null"),
            "manifest_seed": (*split_with(odd["families"]), odd["families"],
                              "manifest family 'a' seed 'x' is not an "
                              "integer"),
            "mps_huge_coef": (*features(nonfinite["1e400", "1"]),
                              nonfinite["1e400", "1"],
                              "line 7: coefficient '1e400' is infinite"),
            "mps_nan_coef": (*features(nonfinite["nan", "1"]),
                             nonfinite["nan", "1"],
                             "line 7: coefficient 'nan' is NaN"),
            "mps_inf_rhs": (*features(nonfinite["1", "inf"]),
                            nonfinite["1", "inf"],
                            "line 10: RHS value 'inf' is infinite"),
            "mps_inf_lower_bound": (*features(nonfinite["1", "1"]),
                                    nonfinite["1", "1"],
                                    "column 'x' has lower bound +inf"),
            "split_unknown_train": (
                "train", ["--manifest", str(ds / "manifest.json"), "--split",
                          str(unknown["train"]), "--out",
                          str(tmp_path / "m.json")], None,
                "no example for (fam999, 0)"),
            "split_unknown_test": (*evaluate(model_path, unknown["test"]),
                                   None, "no example for (fam999, 0)"),
            "model_kind_predict": ("predict", ["--model", str(bogus),
                                               "--mps", mps], bogus,
                                   "unknown model kind 'bogus'"),
            "model_kind_evaluate": (*evaluate(bogus, split), bogus,
                                    "unknown model kind 'bogus'"),
            "manifest_null_perf_path": (
                "features", ["--manifest", str(null["perf_path"]), "--out",
                             str(tmp_path / "f.csv")], null["perf_path"],
                "manifest has no perf_path"),
            "manifest_null_log_dir_features": (
                "features", ["--manifest", str(null["log_dir"]), "--stage",
                             "first_root_lp", "--out", str(tmp_path / "f.csv")],
                None, "no Default log for (fam000, 0)"),
            "manifest_null_log_dir_train": (
                "train", ["--manifest", str(null["log_dir"]), "--split", split,
                          "--stage", "root_end", "--out",
                          str(tmp_path / "m.json")], None,
                "no Default log for (fam000, 0)"),
            "model_dtype": tampered_model("model_dtype", (
                "model field 'payload.forest.threshold' is not an array: "
                "data type '' not understood")),
            "model_n_classes": tampered_model("model_n_classes", (
                "forest field 'n_classes' is '2', not an int")),
            "model_mode": tampered_model("model_mode", (
                "forest field 'mode' is 'bogus', not 'regression' or "
                "'classification'")),
            "model_forest_1": tampered_model("model_forest_1", (
                "model field 'payload.forest_1' is missing")),
            "model_knn_k": tampered_model("model_knn_k", (
                "model field 'payload.k' is not an int >= 1")),
            "model_knn_mean": tampered_model("model_knn_mean", (
                f"model field 'payload.mean' is not a float array of shape "
                f"({n_features},)")),
            "model_pairs": tampered_model("model_pairs", (
                f"model field 'payload.pairs' is not every pair i < j of "
                f"{n_configs} configs")),
            "model_payload": (*evaluate(listed_payload, split), listed_payload,
                              "model field 'payload' is not an object"),
            "manifest_empty_family": (*split_with(empty_family), empty_family,
                                      "manifest family 'famX' has no seeds"),
            "model_v2_predict": ("predict", ["--model", str(v2), "--mps",
                                             mps], v2,
                                 "model format 'benloc-model-v2' is not "
                                 "'benloc-model-v3'; retrain the model"),
            "model_layout": tampered_model("model_layout", (
                f"forest field 'feature' is not a level-order layout of "
                f"{n_trees} trees")),
            "model_forest_nan": tampered_model("model_forest_nan", (
                "forest field 'value' holds a NaN or infinite value")),
            "model_knn_inf_mean": tampered_model("model_knn_inf_mean", (
                "model field 'payload.mean' is not finite")),
            "dataset_log_inf": ("pipeline", [
                "--manifest", str(inf_logs), "--stage", "root_end", "--seeds",
                "0", "--n-trees", "3", "--out-dir", str(tmp_path / "rep")],
                inf_log, "line 1: infinite value 'inf' for 'total_time'"),
            "model_n_trees": ("predict", ["--model", str(unequal), "--mps",
                                          mps], unequal,
                              f"model field 'payload.forest_2' is not a "
                              f"forest of {reg_trees} trees, as forest_0 is"),
            "train_shift_negative": (
                "train", ["--manifest", str(ds / "manifest.json"), "--split",
                          split, "--shift", "-5", "--out",
                          str(tmp_path / "m.json")], None,
                "shift must be a finite number >= 0, not -5.0"),
            "train_shift_nan": (
                "train", ["--manifest", str(ds / "manifest.json"), "--split",
                          split, "--shift", "nan", "--out",
                          str(tmp_path / "m.json")], None,
                "shift must be a finite number >= 0, not nan"),
            "pipeline_shift_nan": (
                "pipeline", ["--manifest", str(ds / "manifest.json"),
                             "--seeds", "0", "--n-trees", "3", "--shift",
                             "nan", "--out-dir", str(tmp_path / "rep")], None,
                "shift must be a finite number >= 0, not nan"),
            "suitability_shift_nan": (
                "suitability", ["--perf", str(ds / "perf.csv"), "--shift",
                                "nan"], None,
                "shift must be a finite number >= 0, not nan"),
            "perf_time_limit": ("suitability", ["--perf", str(limited)],
                                limited, "line 2: time limit -5.0 is not "
                                "positive"),
            "perf_status": ("suitability", ["--perf", str(statused)],
                            statused,
                            "line 2: unknown status 'bogus' for fam000.0"),
            "synth_count_zero": oracle("0", "3", "n_families"),
            "synth_count_negative": oracle("-1", "3", "n_families"),
            "synth_perms_zero": oracle("2", "0", "n_perms"),
            "synth_perms_negative": oracle("2", "-2", "n_perms"),
            "out_is_directory": ("split", ["--manifest",
                                           str(ds / "manifest.json"), "--out",
                                           str(tmp_path)], None,
                                 f"[Errno {errno.EISDIR}] "
                                 f"{os.strerror(errno.EISDIR)}: "
                                 f"'{tmp_path}'"),
        }[case]
        r = runner.invoke(main, [sub] + args)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)  # handled, not raised
        assert len(r.output.splitlines()) == 1
        prefix = f"error in {sub}: " + (f"{path}: " if path else "")
        assert r.output.startswith(prefix)
        if reason is not None:
            assert r.output.strip() == prefix + reason
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_unknown_split_instance_fails_train_and_evaluate(
            self, runner, workdir, model_path, tmp_path, side):
        with open(workdir / "knn_split.json") as fh:
            split = json.load(fh)
        split[side] = split[side] + [["fam999", 0]]
        path = tmp_path / "split.json"
        path.write_text(json.dumps(split))
        for sub, args in (("train", ["--out", str(tmp_path / "m.json")]),
                          ("evaluate", ["--model", model_path])):
            r = runner.invoke(main, [sub, "--manifest",
                                     str(workdir / "ds" / "manifest.json"),
                                     "--split", str(path)] + args)
            assert r.exit_code == 1
            assert r.output.splitlines() == [
                f"error in {sub}: no example for (fam999, 0)"]
        assert not (tmp_path / "m.json").exists()

    def test_manifest_without_logs_serves_the_static_stage(self, runner,
                                                          workdir, tmp_path):
        ds = workdir / "ds"
        manifest = json.loads((ds / "manifest.json").read_text())
        (tmp_path / "perf.csv").write_text((ds / "perf.csv").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps(dict(
            manifest, log_dir=None, families={
                f: {s: str(ds / p) for s, p in seeds.items()}
                for f, seeds in manifest["families"].items()})))
        for args in (["features", "--out", str(tmp_path / "f.csv")],
                     ["train", "--split", str(workdir / "knn_split.json"),
                      "--out", str(tmp_path / "m.json")]):
            r = runner.invoke(main, args + ["--manifest",
                                            str(tmp_path / "manifest.json")])
            assert r.exit_code == 0, r.output

    def test_bad_mps_error_names_the_file(self, runner, workdir, tmp_path):
        good = str(workdir / "ds" / "instances" / "fam000.perm0.mps")
        bad = tmp_path / "bad.mps"
        bad.write_text("NAME bad\nROWS\n N  OBJ\nBOGUS\nENDATA\n")
        # valid MPS whose row r1 has no entries: no static features
        empty_row = tmp_path / "empty_row.mps"
        empty_row.write_text("NAME e\nROWS\n N  OBJ\n L  r0\n L  r1\n"
                             "COLUMNS\n    x  OBJ  1  r0  1\nRHS\n"
                             "    RHS  r0  1  r1  1\nENDATA\n")
        for path, message in (
                (bad, "line 4: unknown section header 'BOGUS'"),
                (empty_row, "row 'r1' (index 1) has no nonzeros")):
            r = runner.invoke(main, ["features", "--mps", good, "--mps",
                                     str(path), "--out",
                                     str(tmp_path / "f.csv")])
            assert r.exit_code == 1
            assert r.output.strip() == f"error in features: {path}: {message}"

    @pytest.mark.parametrize("rows, reason", [
        (" N  OBJ\n L  r\n N  r\n", "line 5: duplicate row 'r'"),
        (" N  OBJ\n N  r\n L  r\n", "line 5: duplicate row 'r'"),
        (" N  OBJ\n N  f\n N  f\n", "line 5: duplicate row 'f'"),
        (" N  OBJ\n L  OBJ\n", "line 4: duplicate row 'OBJ'"),
        (" N  OBJ\n L  MARKER\n",
         "line 4: row name 'MARKER' reads as a marker"),
        (" N  'marker'\n", "line 3: row name \"'marker'\" reads as a marker")])
    def test_row_declared_again_or_named_marker_is_one_error_line(
            self, runner, tmp_path, rows, reason):
        """Without the refusal, r's coefficient 5.0 would vanish with only a
        warning, or the instance would not read back as written."""
        path = tmp_path / "rows.mps"
        path.write_text(f"NAME t\nROWS\n{rows}COLUMNS\n"
                        "    x  OBJ  1.0  r  5.0\nENDATA\n")
        r = runner.invoke(main, ["features", "--mps", str(path), "--out",
                                 str(tmp_path / "f.csv")])
        assert r.exit_code == 1
        # an extra N row before the refused line is dropped with a warning
        dropped = [f"warning in features: {path}: dropping extra free row "
                   f"{name!r}" for sense, name
                   in map(str.split, rows.splitlines()[1:-1]) if sense == "N"]
        assert r.output.splitlines() == dropped + [
            f"error in features: {path}: {reason}"]

    @pytest.mark.parametrize("rows, code, stderr", [
        (" N  OBJ\n N  f\n L  r\n", 0,
         ["warning in features: {path}: dropping extra free row 'f'"]),
        (" N  OBJ\n N  r\n L  r\n", 1,
         ["warning in features: {path}: dropping extra free row 'r'",
          "error in features: {path}: line 5: duplicate row 'r'"])])
    def test_each_warning_is_one_line_on_stderr(self, tmp_path, rows, code,
                                                stderr):
        """Run as a process, since CliRunner records warnings: a library
        warning is one line on stderr, ahead of the error line, and nothing
        else is printed there."""
        path = tmp_path / "rows.mps"
        path.write_text(f"NAME t\nROWS\n{rows}COLUMNS\n"
                        "    x  OBJ  1.0  r  5.0\nENDATA\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "benloc.cli", "features", "--mps",
             str(path), "--out", str(tmp_path / "f.csv")], env=env,
            capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert done.stdout == ("" if code else f"{tmp_path / 'f.csv'}\n")
        assert done.stderr.splitlines() == [
            line.format(path=path) for line in stderr]

    def test_each_file_shows_its_own_warnings(self, tmp_path):
        """Two files raising the same warning print it once each, after
        the name of its file."""
        paths = [tmp_path / "u.mps", tmp_path / "v.mps"]
        for path in paths:
            path.write_text("ROWS\n N  OBJ\n N  f\n L  r\nCOLUMNS\n"
                            "    x  r  1.0\nENDATA\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "benloc.cli", "features", "--mps",
             str(paths[0]), "--mps", str(paths[1]), "--out",
             str(tmp_path / "f.csv")], env=env, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 0
        assert done.stderr.splitlines() == [
            f"warning in features: {path}: dropping extra free row 'f'"
            for path in paths]

    def test_smaller_dataset_over_a_larger_one(self, runner, tmp_path):
        """A second synth --oracle into the same directory overwrites each
        file in place: its shorter instance files keep no tail of the first
        build's, and the dataset loads back as the second build."""
        out = str(tmp_path / "ds")
        for count, seed in (("12", "0"), ("6", "1")):
            r = runner.invoke(main, ["synth", "--oracle", "--count", count,
                                     "--perms", "3", "--seed", seed,
                                     "--out-dir", out])
            assert r.exit_code == 0, r.output
        loaded = load_dataset(os.path.join(out, "manifest.json"))
        built = build_oracle_dataset(n_families=6, n_perms=3,
                                     spec=OracleSpec(seed=1), seed=1,
                                     keep_instances=True)
        assert loaded.instances == built.instances
        assert loaded.static == built.static
        assert loaded.logs == built.logs
        assert loaded.perf.to_csv() == built.perf.to_csv()


def test_reports_do_not_depend_on_input_order(runner, tmp_path):
    """Shuffling perf.csv's rows, the manifest's families and each family's
    seeds leaves every pipeline report byte-identical."""
    r = runner.invoke(main, ["synth", "--oracle", "--count", "12", "--perms",
                             "3", "--seed", "0", "--out-dir",
                             str(tmp_path / "ds")])
    assert r.exit_code == 0, r.output
    shutil.copytree(tmp_path / "ds", tmp_path / "shuffled")
    rng = random.Random(0)
    perf = tmp_path / "shuffled" / "perf.csv"
    header, *rows = perf.read_text().splitlines(True)
    rng.shuffle(rows)
    perf.write_text(header + "".join(rows))
    path = tmp_path / "shuffled" / "manifest.json"
    manifest = json.loads(path.read_text())
    families = list(manifest["families"].items())
    rng.shuffle(families)
    manifest["families"] = {f: dict(rng.sample(list(seeds.items()), len(seeds)))
                            for f, seeds in families}
    assert list(manifest["families"]) != sorted(manifest["families"])
    path.write_text(json.dumps(manifest))
    for kind in ("reg_forest", "clf_forest", "knn", "pair_ranker"):
        for strategy in ("by_instance", "stratified"):
            reports = []
            for ds in ("ds", "shuffled"):
                out = tmp_path / f"{ds}_{kind}_{strategy}"
                r = runner.invoke(main, [
                    "pipeline", "--manifest", str(tmp_path / ds /
                                                  "manifest.json"),
                    "--stage", "root_end", "--kind", kind, "--strategy",
                    strategy, "--seeds", "0..2", "--n-trees", "5",
                    "--out-dir", str(out)])
                assert r.exit_code == 0, r.output
                reports.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert reports[0] == reports[1], (kind, strategy)


class TestManifestPaths:
    def test_relative_out_dir_loads_from_another_directory(
            self, runner, tmp_path, monkeypatch):
        (tmp_path / "relds").mkdir()
        monkeypatch.chdir(tmp_path / "relds")
        r = runner.invoke(main, ["synth", "--oracle", "--count", "4",
                                 "--perms", "2", "--seed", "0",
                                 "--out-dir", "ds"])
        assert r.exit_code == 0, r.output
        monkeypatch.chdir(tmp_path)
        manifest = os.path.join("relds", "ds", "manifest.json")
        r = runner.invoke(main, ["split", "--manifest", manifest,
                                 "--strategy", "stratified", "--test-frac",
                                 "0.5", "--out", "split.json"])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["features", "--manifest", manifest, "--stage",
                                 "root_end", "--out", "dyn.csv"])
        assert r.exit_code == 0, r.output
        with open("dyn.csv") as fh:
            assert len(fh.read().splitlines()) == 1 + 4 * 2
