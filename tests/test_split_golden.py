"""Golden hashes of fixed-seed splits.

The family- and permutation-level splits must stay bit-identical: the same
seeded permutation, the same test count, the same units on each side.  Each
case below splits a synthetic manifest and compares the sha256 of
``SplitAssignment.to_json()`` (joined over a few seeds) against
``fixtures/split_golden.json``.

Regenerate the fixture only when a change is meant to alter the splits:

    PYTHONPATH=src python tests/test_split_golden.py
"""

import hashlib
import json
import os
import sys

import pytest

from benloc.splits import DatasetManifest, split_by_instance, split_by_permutation

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "split_golden.json")

SPLITTERS = {"by_instance": split_by_instance,
             "by_permutation": split_by_permutation}
FAMILY_COUNTS = (2, 3, 4, 7, 10, 13, 29)
PERM_COUNTS = (1, 2, 5)
FRACTIONS = (0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.95)
SEEDS = (0, 1, 2, 7)


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


def compute_golden():
    out = {}
    for strategy in SPLITTERS:
        out.update(split_hashes(strategy))
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


def test_fixture_covers_every_case(golden):
    assert set(golden) == {_split_key(strategy, f, p, x)
                           for strategy in SPLITTERS for f in FAMILY_COUNTS
                           for p in PERM_COUNTS for x in FRACTIONS}


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_golden(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
