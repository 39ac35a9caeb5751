"""Golden hashes of fixed-seed splits and of the random-search validation split.

The family- and permutation-level splits must stay bit-identical: the same
seeded permutation, the same test count, the same units on each side.  Each
case below splits a synthetic manifest and compares the sha256 of
``SplitAssignment.to_json()`` (joined over a few seeds) against
``fixtures/split_golden.json``; ``random_search`` results pin the inner
validation split, whose generator also draws the hyperparameters.

Regenerate the fixture only when a change is meant to alter the splits:

    PYTHONPATH=src python tests/test_split_golden.py
"""

import hashlib
import json
import os
import sys

import pytest

from benloc.dataset import build_oracle_dataset
from benloc.learners import build_examples, random_search
from benloc.logs import FeatureStage
from benloc.splits import DatasetManifest, split_by_instance, split_by_permutation
from benloc.synth import OracleSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "split_golden.json")

SPLITTERS = {"by_instance": split_by_instance,
             "by_permutation": split_by_permutation}
FAMILY_COUNTS = (2, 3, 4, 7, 10, 13, 29)
PERM_COUNTS = (1, 2, 5)
FRACTIONS = (0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.95)
SEEDS = (0, 1, 2, 7)
SEARCH_CASES = {"reg_forest/0.2": ("reg_forest", 0.2),
                "reg_forest/0.4": ("reg_forest", 0.4),
                "knn/0.25": ("knn", 0.25)}
SEARCH_SEEDS = (0, 1, 5)


def _manifest(n_families, n_perms):
    return DatasetManifest(name="grid", families={
        f"fam{i:03d}": {s: f"fam{i:03d}.perm{s}.mps" for s in range(n_perms)}
        for i in range(n_families)})


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _split_key(strategy, n_families, n_perms, fraction):
    return f"split/{strategy}/f{n_families}/p{n_perms}/{fraction:.4f}"


def split_hashes(strategy):
    out = {}
    for n_families in FAMILY_COUNTS:
        for n_perms in PERM_COUNTS:
            m = _manifest(n_families, n_perms)
            for fraction in FRACTIONS:
                text = "\n".join(SPLITTERS[strategy](m, fraction, seed).to_json()
                                 for seed in SEEDS)
                out[_split_key(strategy, n_families, n_perms, fraction)] = \
                    _sha(text)
    return out


def search_results():
    data = build_oracle_dataset(n_families=8, n_perms=2,
                                spec=OracleSpec(seed=4), seed=4)
    examples = build_examples(data.perf,
                              data.feature_map(FeatureStage.UP_TO_ROOT_END))
    space = {"n_trees": [2, 3], "max_depth": [2, 4, 8],
             "min_samples_leaf": [1, 2]}
    out = {}
    for name, (kind, val_fraction) in SEARCH_CASES.items():
        for seed in SEARCH_SEEDS:
            params, score = random_search(kind, examples, space, budget=3,
                                          seed=seed, val_fraction=val_fraction)
            out[f"search/{name}/s{seed}"] = [params, repr(score)]
    return out


def compute_golden():
    out = {}
    for strategy in SPLITTERS:
        out.update(split_hashes(strategy))
    out.update(search_results())
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("strategy", sorted(SPLITTERS))
def test_splits_match_golden(golden, strategy):
    got = split_hashes(strategy)
    bad = sorted(k for k in got if got[k] != golden[k])
    assert not bad, f"{len(bad)} split cases differ, first {bad[0]}"


def test_random_search_matches_golden(golden):
    got = search_results()
    assert got == {k: golden[k] for k in got}


def test_fixture_covers_every_case(golden):
    want = {f"search/{name}/s{seed}" for name in SEARCH_CASES
            for seed in SEARCH_SEEDS}
    for strategy in SPLITTERS:
        want |= {_split_key(strategy, f, p, x) for f in FAMILY_COUNTS
                 for p in PERM_COUNTS for x in FRACTIONS}
    assert set(golden) == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_golden(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
