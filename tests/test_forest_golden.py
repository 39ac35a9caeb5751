"""Golden hashes of fixed-seed forests and selectors.

Every forest speedup must leave the trees bit-identical: the same RNG draws in
the same order, the same split choice and tie-break, the same floats.  Each
case below fits one forest (or trains one selector) on fixed synthetic data
and compares the sha256 of its node arrays (of its model file, for a
selector) against ``fixtures/forest_golden.json``.  The hashes do not
depend on the CPU: the split search sorts unique keys and sums in that
order, so numpy's dispatch level (AVX-512, AVX2 or baseline kernels) cannot
reorder the search's sums.  ``forest/reg_sqrt_leaf1_boot`` and
``train/reg_forest`` were regenerated when the search began to sort only
live groups by unique keys: their regression sums moved in the last bits,
and one two-row node of reg_sqrt_leaf1_boot whose candidate splits both
have child impurity 0 now takes the lower feature, as the tie-break says.

Regenerate the fixture only when a change is meant to alter the trees:

    PYTHONPATH=src python tests/test_forest_golden.py
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from benloc.dataset import build_oracle_dataset
from benloc.forest import RandomForest
from benloc.learners import MODEL_KINDS, build_examples, train
from benloc.logs import FeatureStage
from benloc.synth import OracleSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "forest_golden.json")


def _data(kind, n=60, d=6, constant=0, tied=False, seed=0):
    """X with `constant` constant columns appended; y regression or 3-class."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if tied:
        X = np.round(X * 4) / 4  # five distinct values per column
    if constant:
        X = np.hstack([X, np.tile(np.arange(constant, dtype=float), (n, 1))])
    signal = X[:, 0] + 0.5 * X[:, 1] - 0.3 * X[:, 2]
    if kind == "regression":
        y = signal + 0.1 * rng.standard_normal(n)
        if tied:
            y = np.round(y * 2) / 2
        return X, y
    return X, np.digitize(signal, [0.3, 0.7]).astype(int)


# name -> (mode, forest params, data kwargs)
FOREST_CASES = {
    "reg_sqrt_leaf1_boot": ("regression", {}, {}),
    "reg_all_leaf2_noboot": ("regression", {"max_features": "all",
                                            "min_samples_leaf": 2,
                                            "bootstrap": False}, {}),
    "reg_float_leaf3": ("regression", {"max_features": 0.5,
                                       "min_samples_leaf": 3}, {"seed": 1}),
    "reg_int_tied": ("regression", {"max_features": 2}, {"tied": True}),
    "reg_constant_cols_fallback": ("regression", {"min_samples_leaf": 2},
                                   {"d": 3, "constant": 9, "tied": True}),
    "reg_shallow_many_trees": ("regression", {"max_depth": 3, "n_trees": 12},
                               {"seed": 2}),
    "clf_sqrt_leaf1_boot": ("classification", {}, {}),
    "clf_all_leaf2_noboot_tied": ("classification", {
        "max_features": "all", "min_samples_leaf": 2, "bootstrap": False},
        {"tied": True}),
    "clf_float_leaf3_constant": ("classification", {
        "max_features": 0.3, "min_samples_leaf": 3},
        {"d": 4, "constant": 6}),
    "clf_int_tied": ("classification", {"max_features": 3},
                     {"tied": True, "seed": 3}),
    "clf_constant_cols_fallback": ("classification", {},
                                   {"d": 2, "constant": 14, "tied": True}),
    "clf_none_noboot": ("classification", {"max_features": None,
                                           "bootstrap": False}, {"seed": 4}),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def forest_hash(name):
    mode, params, data_kwargs = FOREST_CASES[name]
    X, y = _data(mode, **data_kwargs)
    params = {"n_trees": 6, "seed": 11, **params}
    forest = RandomForest(mode=mode, **params).fit(X, y)
    return _sha(json.dumps({key: val.tolist() if isinstance(val, np.ndarray)
                            else val for key, val in forest.to_dict().items()}))


def _examples():
    data = build_oracle_dataset(n_families=8, n_perms=2,
                                spec=OracleSpec(seed=5), kind="setcover",
                                seed=5)
    return build_examples(data.perf,
                          data.feature_map(FeatureStage.UP_TO_ROOT_END))


def selector_hash(kind, examples=None):
    examples = _examples() if examples is None else examples
    return _sha(train(kind, examples, hyperparams={"n_trees": 5},
                      seed=3).to_json())


def selector_hashes():
    examples = _examples()
    return {kind: selector_hash(kind, examples) for kind in MODEL_KINDS}


def cpu_dispatch_targets():
    """The CPU features numpy dispatches kernels for (AVX2, AVX-512, ...),
    or [] when this numpy does not name them."""
    for module in ("numpy._core._multiarray_umath",
                   "numpy.core._multiarray_umath"):
        try:
            return list(importlib.import_module(module).__cpu_dispatch__)
        except (ImportError, AttributeError):
            continue
    return []


def compute_golden():
    out = {f"forest/{name}": forest_hash(name) for name in FOREST_CASES}
    out.update({f"train/{kind}": h for kind, h in selector_hashes().items()})
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(FOREST_CASES))
def test_forest_matches_golden(golden, name):
    assert forest_hash(name) == golden[f"forest/{name}"]


def test_selectors_match_golden(golden):
    assert selector_hashes() == {kind: golden[f"train/{kind}"]
                                 for kind in MODEL_KINDS}


def test_reg_forest_does_not_depend_on_cpu_dispatch():
    """A process that may use none of numpy's CPU-dispatched kernels, so
    sorts and sums take their baseline code, trains the same reg_forest."""
    targets = cpu_dispatch_targets()
    if not targets:
        pytest.skip("this numpy names no CPU dispatch targets")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run(
        [sys.executable, "-c", "import test_forest_golden as t; "
         "print(t.selector_hash('reg_forest'))"],
        cwd=os.path.dirname(os.path.abspath(__file__)), env=env,
        capture_output=True, text=True, check=True)
    assert run.stdout.strip() == selector_hash("reg_forest")


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(
        [f"forest/{name}" for name in FOREST_CASES]
        + [f"train/{kind}" for kind in MODEL_KINDS])


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_golden(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
