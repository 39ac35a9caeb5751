"""Golden hashes of the CLI's dataset, feature and report outputs.

A refactor of the data path (log parsing, feature assembly, dataset I/O,
evaluation) must leave what the CLI writes byte-identical.  The flow below
runs ``synth --oracle --count 12 --perms 3 --seed 0``, ``features --stage
root_end`` on that dataset and ``pipeline --seeds 0..2 --n-trees 5`` at the
``static``, ``first_root_lp`` and ``root_end`` stages.  It then runs ``train``
of every model kind at ``root_end`` on the by-instance seed-0 split, and
``evaluate`` of each model, which pins the CLI's own train and evaluate path.
Last it runs ``suitability`` on the dataset's ``perf.csv`` and ``split
--strategy stratified`` at seeds 0 and 1, which pin the baseline arithmetic
outside ``evaluate``.  It compares the sha256 of every file written, and of
each ``evaluate`` and ``suitability`` stdout, against
``fixtures/report_golden.json``.

Regenerate the fixture only when a change is meant to alter those outputs:

    PYTHONPATH=src python tests/test_report_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest
from click.testing import CliRunner

from benloc.cli import main
from benloc.learners import MODEL_KINDS

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "report_golden.json")
PIPELINE_STAGES = ("static", "first_root_lp", "root_end")


def _run(args):
    r = CliRunner().invoke(main, args)
    if r.exit_code != 0:
        raise AssertionError(f"{args[0]} failed: {r.output}")
    return r.output


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hashes(root, prefix):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as fh:
                out[f"{prefix}/{rel}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def compute_golden(workdir):
    ds = os.path.join(workdir, "ds")
    manifest = os.path.join(ds, "manifest.json")
    _run(["synth", "--oracle", "--count", "12", "--perms", "3", "--seed", "0",
          "--out-dir", ds])
    out = _hashes(ds, "synth")
    feats = os.path.join(workdir, "features")
    os.makedirs(feats)
    _run(["features", "--manifest", manifest, "--stage", "root_end",
          "--out", os.path.join(feats, "root_end.csv")])
    out.update(_hashes(feats, "features"))
    for stage in PIPELINE_STAGES:
        reports = os.path.join(workdir, "pipeline", stage)
        _run(["pipeline", "--manifest", manifest, "--stage", stage,
              "--seeds", "0..2", "--n-trees", "5", "--out-dir", reports])
        out.update(_hashes(reports, f"pipeline/{stage}"))
    split = os.path.join(workdir, "split.json")
    _run(["split", "--manifest", manifest, "--strategy", "by_instance",
          "--seed", "0", "--out", split])
    models = os.path.join(workdir, "train")
    os.makedirs(models)
    for kind in MODEL_KINDS:
        model = os.path.join(models, f"{kind}.json")
        _run(["train", "--manifest", manifest, "--split", split, "--stage",
              "root_end", "--kind", kind, "--out", model])
        out[f"evaluate/{kind}.stdout"] = _sha(_run([
            "evaluate", "--manifest", manifest, "--model", model, "--split",
            split, "--stage", "root_end"]))
    out.update(_hashes(models, "train"))
    extra = os.path.join(workdir, "baselines")
    os.makedirs(extra)
    out["suitability/stdout"] = _sha(_run([
        "suitability", "--perf", os.path.join(ds, "perf.csv"), "--name",
        "oracle", "--out-csv", os.path.join(extra, "suitability.csv")]))
    for seed in ("0", "1"):
        _run(["split", "--manifest", manifest, "--strategy", "stratified",
              "--seed", seed, "--out",
              os.path.join(extra, f"stratified_{seed}.json")])
    out.update(_hashes(extra, "baselines"))
    return out


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return compute_golden(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_outputs_match_golden(golden, computed):
    differing = sorted(k for k in golden if computed.get(k) != golden[k])
    assert not differing, f"{len(differing)} outputs differ: {differing[:5]}"


def test_fixture_covers_every_output(golden, computed):
    assert sorted(golden) == sorted(computed)
    for stage in PIPELINE_STAGES:
        assert f"pipeline/{stage}/report.txt" in golden
        assert f"pipeline/{stage}/report_per_seed.csv" in golden
    for kind in MODEL_KINDS:
        assert f"train/{kind}.json" in golden
        assert f"evaluate/{kind}.stdout" in golden
    for name in ("suitability.csv", "stratified_0.json", "stratified_1.json"):
        assert f"baselines/{name}" in golden
    assert "suitability/stdout" in golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = compute_golden(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
