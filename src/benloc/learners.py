"""Models mapping feature vectors to configuration choices.

Four model kinds cover the regressor / classifier / ranker taxonomy:

* ``reg_forest``   one regression forest per configuration, trained on
                   log-scaled relative times; selection is the argmin of the
                   predicted labels; the forests share one rank table.
* ``clf_forest``   a classification forest on the best-config label.
* ``knn``          nearest neighbours on standardized features.
* ``pair_ranker``  one classification forest over (features, pair indicator)
                   predicting which configuration of the pair is faster;
                   selection is the Copeland winner; X is ranked once.

Labels are log-scaled relative to Default: label(x, c) =
ln((t(x, c) + shift) / (t(x, Default) + shift)), so Default is the zero point
and the labels are scale-free.  All ties break toward Default, then
lexicographically.

Training is deterministic given (examples, hyperparams, seed) and refuses
example sets whose families intersect a declared test registry, which makes
leaking permutations of test problems into training a hard error.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forest import RandomForest, leaf_values, ranks
from .metrics import DEFAULT_SHIFT, ConfigId, check_shift

MODEL_KINDS = ("reg_forest", "clf_forest", "knn", "pair_ranker")

MODEL_FORMAT_TAG = "benloc-model-v3"

# a model file's top-level fields: type, and how a refusal names it
_MODEL_FIELDS = {"configs": (list, "a list of strings"),
                 "feature_names": (list, "a list of strings"),
                 "fingerprint": (str, "a string"), "seed": (int, "an int"),
                 "hyperparams": (dict, "an object"),
                 "payload": (dict, "an object")}

# the hyperparameters passed on to RandomForest, which gives their defaults
_FOREST_KEYS = ("n_trees", "max_depth", "max_features", "min_samples_leaf",
                "bootstrap")

KNN_DEFAULTS = {"k": 5}


class FingerprintMismatchError(ValueError):
    """Predict-time features laid out differently than at training time."""


class TrainTestContaminationError(ValueError):
    """Training examples from families registered as test families."""


class UnsupportedModelError(ValueError):
    """A model kind this version cannot train, load or use."""


def feature_fingerprint(names):
    digest = hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()
    return digest[:16]


class ExampleRow(NamedTuple):
    """One row of an ExampleSet, as iterating the set yields it."""
    family: str
    seed: int
    source: ExampleSet


@dataclass(eq=False)
class ExampleSet:
    """Features, labels and times, one row per (family, seed) key; take
    selects rows.  Columns of labels and times follow configs, Default first."""
    keys: list  # of (family, seed)
    feature_names: tuple
    configs: tuple  # of ConfigId, Default first
    X: np.ndarray  # float, (rows, features)
    labels: np.ndarray  # log-scaled relative times, (rows, configs)
    times: np.ndarray  # raw capped times, (rows, configs)

    def __post_init__(self):
        rows, cols = len(self.keys), len(self.configs)
        if (self.X.shape != (rows, len(self.feature_names))
                or {self.labels.shape, self.times.shape} != {(rows, cols)}):
            raise ValueError("example arrays do not match keys, features "
                             "and configs")
        self._row = {key: r for r, key in enumerate(self.keys)}

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return (ExampleRow(f, s, self) for f, s in self.keys)

    def take(self, keys):
        """The rows of the given (family, seed) keys, in the order given."""
        try:
            rows = [self._row[key] for key in keys]
        except KeyError as exc:
            raise KeyError("no example for ({}, {})".format(*exc.args[0])) \
                from None
        return ExampleSet([self.keys[r] for r in rows], self.feature_names,
                          self.configs, self.X[rows], self.labels[rows],
                          self.times[rows])


def _times_and_labels(perf, shift):
    """configs, instances, the (instance x config) times and their labels."""
    check_shift(shift)
    instances = perf.instances()
    times = perf.time_matrix(instances)  # a table without Default fails here
    configs = tuple(perf.configs())
    # math.log per cell: np.log on the array may differ in the last bit,
    # which is enough to move a forest split
    ratios = ((times + shift) / (times[:, :1] + shift)).tolist()
    labels = np.array([[math.log(r) for r in row] for row in ratios])
    return configs, instances, times, labels.reshape(times.shape)


def make_labels(perf, shift=DEFAULT_SHIFT):
    """Per-config label vectors ln((t + shift) / (t_default + shift)).

    Returns (configs, {(family, seed): labels}); raises on missing entries.
    """
    configs, instances, _, labels = _times_and_labels(perf, shift)
    return configs, dict(zip(instances, labels))


def build_examples(perf, feature_map, shift=DEFAULT_SHIFT):
    """Join a performance table with per-instance features: one ExampleSet
    of every instance of the table, keys sorted.

    feature_map: {(family, seed): (names, values)}, one feature layout.
    """
    configs, instances, times, labels = _times_and_labels(perf, shift)
    try:
        rows = [feature_map[key] for key in instances]
    except KeyError as exc:
        raise KeyError("no features for ({}, {})".format(*exc.args[0])) \
            from None
    layouts = {tuple(names) for names, _ in rows}
    if len(layouts) != 1:
        raise FingerprintMismatchError("instances disagree on features")
    X = np.array([values for _, values in rows], dtype=float)
    return ExampleSet(instances, layouts.pop(), configs, X, labels, times)


def _encode(obj):
    """json.dumps hook for payload values: a forest as its dict, an array as
    the base64 of its little-endian bytes.  Integer arrays are written in the
    smallest integer type that holds their values."""
    if isinstance(obj, RandomForest):
        return {"__forest__": obj.to_dict()}
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if obj.dtype.kind in "iu" and obj.size:
        obj = obj.astype(np.result_type(np.min_scalar_type(obj.min()),
                                        np.min_scalar_type(obj.max())))
    obj = obj.astype(obj.dtype.newbyteorder("<"))
    return {"__array__": {"dtype": obj.dtype.str, "shape": list(obj.shape),
                          "base64": base64.b64encode(obj.tobytes()).decode()}}


def _decode(val, field):
    """Inverse of _encode; integer arrays come back as int64.  An array or
    forest that does not decode is refused with a ValueError naming field."""
    if isinstance(val, dict) and "__forest__" in val:
        d = val["__forest__"]
        if not isinstance(d, dict):
            raise ValueError(f"model field {field!r} is not a forest object")
        return RandomForest.from_dict({key: _decode(v, f"{field}.{key}")
                                       for key, v in d.items()})
    if not (isinstance(val, dict) and "__array__" in val):
        return val
    a = val["__array__"]
    try:
        dtype = a["dtype"] if isinstance(a["dtype"], str) else object
        if np.dtype(dtype).kind not in "biuf":
            raise ValueError(f"data type {a['dtype']!r} is not numeric")
        if not all(type(s) is int and s >= 0 for s in a["shape"]):
            raise ValueError(f"shape {a['shape']!r} is not a list of sizes")
        arr = np.frombuffer(base64.b64decode(a["base64"], validate=True),
                            dtype=dtype).reshape(a["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model field {field!r} is not an array: {exc}") \
            from None
    return arr.astype(np.int64) if arr.dtype.kind in "iu" else arr


def _check_payload(kind, payload, n_configs, n_features):
    """Refuse a payload that lacks a field its kind reads, or holds one of
    the wrong type or shape or with a NaN or infinite value, with a
    ValueError naming the field."""
    def need(key, ok, what):
        if key not in payload or not ok(payload[key]):
            raise ValueError(f"model field 'payload.{key}' is "
                             + ("missing" if key not in payload
                                else f"not {what}"))

    def forest(mode, width, n_classes=None):
        return lambda f: (isinstance(f, RandomForest) and f.mode == mode
                          and len(f.importances) == width
                          and n_classes in (None, f.n_classes))

    def array(shape, kinds):
        return lambda a: (isinstance(a, np.ndarray) and a.shape == shape
                          and a.dtype.kind in kinds)

    if kind == "reg_forest":
        for c in range(n_configs):
            need(f"forest_{c}", forest("regression", n_features),
                 f"a regression forest over {n_features} features")
            # one descent reads every forest's tree count from forest_0
            n_trees = payload["forest_0"].n_trees
            need(f"forest_{c}", lambda f: f.n_trees == n_trees,
                 f"a forest of {n_trees} trees, as forest_0 is")
    elif kind == "clf_forest":
        need("forest", forest("classification", n_features, n_configs),
             f"a classification forest over {n_features} features and "
             f"{n_configs} classes")
    elif kind == "knn":
        need("k", lambda k: type(k) is int and k >= 1, "an int >= 1")
        need("X", lambda X: isinstance(X, np.ndarray) and X.ndim == 2
             and X.shape[1] == n_features and X.dtype.kind == "f",
             f"a float array of {n_features} columns")
        rows = payload["X"].shape[0]
        for key in ("mean", "std"):
            need(key, array((n_features,), "f"),
                 f"a float array of shape ({n_features},)")
        need("classes", lambda c: array((rows,), "iu")(c) and np.all(
            (c >= 0) & (c < n_configs)),
             f"an array of {rows} config indices below {n_configs}")
        for key in ("X", "mean", "std"):
            need(key, lambda a: np.isfinite(a).all(), "finite")
    else:
        pairs = [[i, j] for i in range(n_configs)
                 for j in range(i + 1, n_configs)]
        need("pairs", lambda p: isinstance(p, list) and p == pairs,
             f"every pair i < j of {n_configs} configs")
        need("forest", forest("classification", n_features + len(pairs), 2),
             f"a two-class forest over {n_features + len(pairs)} features")


@dataclass
class TrainedSelector:
    kind: str
    configs: tuple
    feature_names: tuple
    fingerprint: str
    seed: int
    hyperparams: dict
    payload: dict  # kind-specific learned state

    def to_json(self):
        return json.dumps({
            "format": MODEL_FORMAT_TAG,
            "kind": self.kind,
            "configs": [str(c) for c in self.configs],
            "feature_names": list(self.feature_names),
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "hyperparams": self.hyperparams,
            "payload": self.payload,
        }, default=_encode)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != MODEL_FORMAT_TAG:
            raise ValueError(f"model format {fmt!r} is not "
                             f"{MODEL_FORMAT_TAG!r}; retrain the model")
        if d.get("kind") not in MODEL_KINDS:
            raise UnsupportedModelError(f"unknown model kind {d.get('kind')!r}")
        for key, (typ, what) in _MODEL_FIELDS.items():
            if not isinstance(d.get(key), typ) or typ is list and not all(
                    isinstance(v, str) for v in d[key]):
                raise ValueError(f"model field {key!r} is not {what}")
        payload = {key: _decode(val, f"payload.{key}")
                   for key, val in d["payload"].items()}
        model = cls(kind=d["kind"],
                    configs=tuple(ConfigId.parse(c) for c in d["configs"]),
                    feature_names=tuple(d["feature_names"]),
                    fingerprint=d["fingerprint"], seed=d["seed"],
                    hyperparams=d["hyperparams"], payload=payload)
        _check_payload(model.kind, payload, len(model.configs),
                       len(model.feature_names))
        return model


def _forest_params(hyperparams):
    return {k: v for k, v in hyperparams.items() if k in _FOREST_KEYS}


def _pair_features(X, n_pairs, pair_idx):
    """X with a one-hot pair indicator appended: row r marks pair_idx[r]."""
    return np.hstack([X, np.eye(n_pairs)[pair_idx]])


def train(kind, examples, hyperparams=None, seed=0, test_registry=None):
    """Fit a TrainedSelector on an ExampleSet, or on a list of rows from one.
    Deterministic given (examples, hyperparams, seed)."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if len(examples) < 2:
        raise ValueError("need at least 2 training examples")
    if not isinstance(examples, ExampleSet):
        # the roundtrip workload's set-up in perfbench/ passes such rows
        source = examples[0].source
        if any(row.source is not source for row in examples):
            raise ValueError("training rows come from different example sets")
        examples = source.take([(row.family, row.seed) for row in examples])
    if test_registry:
        bad = sorted({f for f, _ in examples.keys} & set(test_registry))
        if bad:
            raise TrainTestContaminationError(
                f"training examples from registered test families: {bad}")

    configs, names = examples.configs, examples.feature_names
    X, labels = examples.X, examples.labels
    # argmin of raw times; configs are Default-first so argmin's
    # first-minimum rule is the documented tie-break
    classes = np.argmin(examples.times, axis=1)
    hp = dict(hyperparams or {})
    payload = {}

    if kind == "reg_forest":
        seeds = np.random.SeedSequence(seed).spawn(len(configs))
        rank = ranks(X)  # one rank table for every config's forest
        for k, config_seed in enumerate(seeds):
            payload[f"forest_{k}"] = RandomForest(
                mode="regression", seed=int(config_seed.generate_state(1)[0]),
                **_forest_params(hp)).fit(X, labels[:, k], rank=rank)
    elif kind == "clf_forest":
        # the vote spans every config, seen as a best label or not
        payload["forest"] = RandomForest(
            mode="classification", seed=seed, **_forest_params(hp)).fit(
                X, classes, n_classes=len(configs))
    elif kind == "knn":
        k = int(hp.get("k", KNN_DEFAULTS["k"]))
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0] = 1.0
        payload["k"] = min(k, len(examples))
        payload["mean"] = mean
        payload["std"] = std
        payload["X"] = (X - mean) / std
        payload["classes"] = classes
    elif kind == "pair_ranker":
        if len(configs) < 2:
            raise ValueError(
                f"pair_ranker needs at least 2 configs, got {len(configs)}")
        i, j = np.triu_indices(len(configs), 1)  # each pair i < j, in order
        n_pairs = len(i)
        # X once per pair, pair by pair; class 1: config j strictly faster
        X_pair = _pair_features(np.tile(X, (n_pairs, 1)), n_pairs,
                                np.arange(n_pairs).repeat(len(X)))
        y = (labels[:, j] < labels[:, i]).T.ravel().astype(int)
        # the stack repeats X per pair and its pair's one-hot row per example
        rank = np.vstack([np.tile(ranks(X), n_pairs),
                          ranks(np.eye(n_pairs)).repeat(len(X), axis=1)])
        payload["forest"] = RandomForest(
            mode="classification", seed=seed, **_forest_params(hp)).fit(
                X_pair, y, n_classes=2, rank=rank)
        payload["pairs"] = np.column_stack([i, j]).tolist()

    return TrainedSelector(kind=kind, configs=configs, feature_names=names,
                           fingerprint=feature_fingerprint(names), seed=seed,
                           hyperparams=hp, payload=payload)


def predict_indices(model, X, feature_names=None):
    """The index into model.configs selected for each row of X: the one
    selection path.  A row's choice does not depend on the other rows in the
    batch.
    """
    if feature_names is not None:
        if feature_fingerprint(feature_names) != model.fingerprint:
            raise FingerprintMismatchError("feature layout differs from training")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise FingerprintMismatchError(
            f"expected rows of {len(model.feature_names)} features, "
            f"got shape {X.shape}")
    configs = model.configs

    if model.kind == "reg_forest":
        # every config's forest in one descent; each config's prediction is
        # its forest's mean leaf value, as RandomForest.predict gives it
        preds = leaf_values([model.payload[f"forest_{k}"] for k in range(
            len(configs))], X).mean(axis=2)
        chosen = np.argmin(preds, axis=1)  # first minimum: Default tie-break
    elif model.kind == "clf_forest":
        chosen = model.payload["forest"].predict(X)
    elif model.kind == "knn":
        z = (X - model.payload["mean"]) / model.payload["std"]
        classes = np.asarray(model.payload["classes"])
        chosen = []
        for row in z:
            dists = np.linalg.norm(model.payload["X"] - row, axis=1)
            order = np.argsort(dists, kind="mergesort")[: model.payload["k"]]
            votes = np.bincount(classes[order], minlength=len(configs))
            chosen.append(int(np.argmax(votes)))
    elif model.kind == "pair_ranker":
        pairs = np.asarray(model.payload["pairs"]).reshape(-1, 2)
        n_pairs = len(pairs)
        # one input per (row, pair), row-major, marking that pair only
        X_pair = _pair_features(np.repeat(X, n_pairs, axis=0), n_pairs,
                                np.tile(np.arange(n_pairs), len(X)))
        j_wins = model.payload["forest"].predict(X_pair).reshape(
            len(X), n_pairs) == 1
        # Copeland: each pair's winner gets one point
        first = np.eye(len(configs))[pairs[:, 0]]  # (pairs, configs)
        second = np.eye(len(configs))[pairs[:, 1]]
        wins = (~j_wins) @ first + j_wins @ second
        chosen = np.argmax(wins, axis=1)  # Copeland winner, Default tie-break
    else:
        raise UnsupportedModelError(f"unknown model kind {model.kind!r}")
    return np.asarray(chosen, dtype=int)


def predict_config(model, features, feature_names=None):
    """Select a configuration for one feature vector: the one-row case of
    predict_indices, which checks the vector's length."""
    X = np.asarray(features, dtype=float)[None, ...]
    return model.configs[predict_indices(model, X, feature_names)[0]]
