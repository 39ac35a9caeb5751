"""Deterministic CART trees and random forests (regression and classification).

Kept deliberately small: greedy binary splits on axis-aligned thresholds,
variance reduction for regression and Gini for classification, bootstrap
resampling and per-node feature subsampling.  Every tree draws its randomness
from a seed spawned off the forest seed by tree index, so training is
reproducible and independent of any thread scheduling.

Regression leaves predict the mean of the training targets routed to them;
classification leaves predict the majority class (ties toward the lower class
index).  Importances are mean decrease in impurity, normalized to sum to 1
when any split exists.

A node scores all of its candidate features in one array pass, and a forest
predicts by descending every tree for every row at once over one set of
concatenated node arrays.  A row's prediction is the same whatever batch it
comes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_LEAF = -1


@dataclass
class DecisionTree:
    mode: str  # "regression" | "classification"
    max_depth: int = 12
    min_samples_leaf: int = 1
    max_features: object = "sqrt"  # "sqrt", "all", int, or float fraction
    n_classes: int = 0
    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)
    importances: np.ndarray | None = None

    def _n_candidate_features(self, d):
        if self.max_features == "all" or self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(d)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * d))
        return max(1, min(int(self.max_features), d))

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        self.importances = np.zeros(X.shape[1])
        if self.mode == "classification":
            self.n_classes = int(y.max()) + 1 if len(y) else 1
        else:
            y = y.astype(float)
        # feature-major copy: one node's candidate block is a row gather
        Xt = np.ascontiguousarray(X.T)
        self._build(Xt, y, np.arange(len(y)), 0, rng)
        return self

    # -- growing ------------------------------------------------------------

    def _leaf_and_impurity(self, y_node):
        """The node's leaf value and its impurity * n (SSE or n * gini)."""
        n = len(y_node)
        if self.mode == "regression":
            mean = y_node.sum() / n  # bit-equal to y_node.mean()
            return float(mean), float(((y_node - mean) ** 2).sum())
        counts = np.bincount(y_node, minlength=self.n_classes)
        # argmax takes the lowest tied class
        return (int(np.argmax(counts)),
                float(n - counts @ counts / n) if n else 0.0)

    def _build(self, Xt, y, idx, depth, rng):
        # nodes are numbered, and draw from rng, in DFS preorder
        node = len(self.feature)
        y_node = y[idx]
        leaf, parent_imp = self._leaf_and_impurity(y_node)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(leaf)  # internal nodes keep it for truncated descent
        if (depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf
                or parent_imp <= 0.0):
            return node

        d = Xt.shape[0]
        k = self._n_candidate_features(d)
        feats = np.sort(rng.choice(d, size=k, replace=False))
        best = self._best_split(Xt, y, idx, feats)
        if best is None and k < d:
            # the sampled features were constant on this node; keep searching
            # the remaining ones, k at a time, instead of degenerating into a
            # leaf.  Blocks run in feature order and only a strictly lower
            # impurity replaces the best, so ties keep the lowest feature.
            rest = np.ones(d, dtype=bool)
            rest[feats] = False
            rest = np.flatnonzero(rest)
            for start in range(0, len(rest), k):
                cand = self._best_split(Xt, y, idx, rest[start:start + k])
                if cand is not None and (best is None or cand[2] < best[2]):
                    best = cand
        if best is None:
            return node

        f, thr, child_imp = best
        self.importances[f] += parent_imp - child_imp
        go_left = Xt[f, idx] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self._build(Xt, y, idx[go_left], depth + 1, rng)
        self.right[node] = self._build(Xt, y, idx[~go_left], depth + 1, rng)
        return node

    def _best_split(self, Xt, y, idx, feats):
        """(feature, threshold, child impurity sum) of the best split, or None.

        Scores every feature in feats at once on a (k, n) block.  The stable
        sort orders tied values by row, and the first argmin over the
        row-major (k, n - 1) block takes the lowest impurity, then the lowest
        feature (feats is increasing), then the lowest threshold.
        """
        n = len(idx)
        min_leaf = self.min_samples_leaf
        rows = feats[:, None]
        order = Xt[rows, idx].argsort(axis=1, kind="stable")
        sorted_idx = idx[order]  # (k, n) training rows in each feature's order
        xs = Xt[rows, sorted_idx]
        # a split after sorted position j leaves j + 1 rows on the left
        valid = xs[:, 1:] != xs[:, :-1]
        valid[:, :min_leaf - 1] = False
        valid[:, n - min_leaf:] = False
        if not valid.any():
            return None
        nl = np.arange(1, n, dtype=float)
        nr = n - nl
        yo = y[sorted_idx]
        if self.mode == "regression":
            cs = yo.cumsum(axis=1)[:, :-1]
            total = yo.sum(axis=1, keepdims=True)
            sq = (yo ** 2).sum(axis=1, keepdims=True)
            child = sq - (cs ** 2 / nl + (total - cs) ** 2 / nr)
        else:
            # integer class counts left of each split: exact, so the sums of
            # squares are the same floats whatever the summation order
            cl = (yo[:, :, None] == np.arange(self.n_classes)).cumsum(axis=1)
            cr = cl[:, -1:] - cl[:, :-1]
            cl = cl[:, :-1]
            child = (nl - (cl * cl).sum(axis=2) / nl) + \
                    (nr - (cr * cr).sum(axis=2) / nr)
        child[~valid] = np.inf
        row, j = divmod(int(child.argmin()), n - 1)
        child_imp = float(child[row, j])
        if math.isinf(child_imp):
            return None
        thr = 0.5 * (xs[row, j] + xs[row, j + 1])
        return int(feats[row]), float(thr), child_imp

    # -- prediction ---------------------------------------------------------

    def predict(self, X):
        return _FlatForest([self]).values(X)[:, 0]

    def to_dict(self):
        return {
            "mode": self.mode,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "n_classes": self.n_classes,
            "feature": list(map(int, self.feature)),
            "threshold": list(map(float, self.threshold)),
            "left": list(map(int, self.left)),
            "right": list(map(int, self.right)),
            "value": [v if isinstance(v, int) else float(v) for v in self.value],
            "importances": [float(v) for v in self.importances],
        }

    @classmethod
    def from_dict(cls, d):
        tree = cls(mode=d["mode"], max_depth=d["max_depth"],
                   min_samples_leaf=d["min_samples_leaf"],
                   max_features=d["max_features"], n_classes=d["n_classes"])
        tree.feature = d["feature"]
        tree.threshold = d["threshold"]
        tree.left = d["left"]
        tree.right = d["right"]
        tree.value = [int(v) if d["mode"] == "classification" else float(v)
                      for v in d["value"]]
        tree.importances = np.array(d["importances"])
        return tree


class _FlatForest:
    """The nodes of several trees in one set of arrays, for batched descent.

    Node ids are global: tree t's nodes follow those of trees 0..t-1.  Leaves
    point at themselves, so every row takes the same number of steps.
    """

    def __init__(self, trees):
        sizes = [len(t.feature) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        offsets = np.repeat(self.roots, sizes)
        feature = np.concatenate([np.asarray(t.feature, dtype=np.int64)
                                  for t in trees])
        leaf = feature < 0
        ids = np.arange(len(feature))
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([np.asarray(t.threshold, dtype=float)
                                         for t in trees])
        self.left = np.where(leaf, ids, np.concatenate(
            [np.asarray(t.left, dtype=np.int64) for t in trees]) + offsets)
        self.right = np.where(leaf, ids, np.concatenate(
            [np.asarray(t.right, dtype=np.int64) for t in trees]) + offsets)
        self.value = np.concatenate([np.asarray(t.value) for t in trees])
        self.depth = 0
        frontier = self.roots[~leaf[self.roots]]
        while len(frontier):
            self.depth += 1
            frontier = np.concatenate([self.left[frontier],
                                       self.right[frontier]])
            frontier = frontier[~leaf[frontier]]

    def values(self, X):
        """(rows, trees) leaf values reached by each row in each tree."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        node = np.tile(self.roots, (len(X), 1))
        rows = np.arange(len(X))[:, None]
        for _ in range(self.depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


@dataclass
class RandomForest:
    mode: str
    n_trees: int = 200
    max_depth: int = 12
    min_samples_leaf: int = 1
    max_features: object = "sqrt"
    bootstrap: bool = True
    seed: int = 0
    trees: list = field(default_factory=list)
    n_classes: int = 0
    _flat: _FlatForest | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def fit(self, X, y, n_classes=None):
        """Fit the trees; classification votes over n_classes classes
        (default: the largest label + 1)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if self.mode == "classification":
            seen = int(y.max()) + 1 if len(y) else 1
            if n_classes is not None and n_classes < seen:
                raise ValueError(f"n_classes={n_classes} but labels reach "
                                 f"{seen - 1}")
            self.n_classes = seen if n_classes is None else int(n_classes)
        self.trees = []
        self._flat = None
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        for ss in seeds:
            rng = np.random.default_rng(ss)
            if self.bootstrap:
                idx = rng.integers(0, len(y), size=len(y))
            else:
                idx = np.arange(len(y))
            tree = DecisionTree(mode=self.mode, max_depth=self.max_depth,
                                min_samples_leaf=self.min_samples_leaf,
                                max_features=self.max_features)
            tree.fit(X[idx], y[idx], rng)
            self.trees.append(tree)
        return self

    def predict(self, X):
        """One prediction per row; a row's result never depends on the batch."""
        if self._flat is None:
            self._flat = _FlatForest(self.trees)
        votes = self._flat.values(X)  # (rows, trees)
        if self.mode == "regression":
            return votes.mean(axis=1)
        # majority vote across trees, ties toward the lower class index
        counts = np.sum(votes[:, :, None] == np.arange(self.n_classes), axis=1)
        return np.argmax(counts, axis=1)

    @property
    def feature_importances_(self):
        total = np.sum([t.importances for t in self.trees], axis=0)
        s = total.sum()
        return total / s if s > 0 else total

    def to_dict(self):
        return {
            "mode": self.mode,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "n_classes": self.n_classes,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d):
        forest = cls(mode=d["mode"], n_trees=d["n_trees"],
                     max_depth=d["max_depth"],
                     min_samples_leaf=d["min_samples_leaf"],
                     max_features=d["max_features"], bootstrap=d["bootstrap"],
                     seed=d["seed"], n_classes=d["n_classes"])
        forest.trees = [DecisionTree.from_dict(t) for t in d["trees"]]
        return forest
