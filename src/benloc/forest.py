"""Deterministic CART random forests (regression and classification).

Kept deliberately small: greedy binary splits on axis-aligned thresholds,
variance reduction for regression and Gini for classification, bootstrap
resampling and per-node feature subsampling.  Every tree draws its randomness
from a seed spawned off the forest seed by tree index, so training is
reproducible and independent of any thread scheduling.

Regression leaves predict the mean of the training targets routed to them;
classification leaves predict the majority class (ties toward the lower class
index).  Importances are mean decrease in impurity, normalized to sum to 1
when any split exists.

A fitted forest is one set of node arrays.  Trees are grown depth-first and
numbered in preorder, tree after tree, so an internal node's left child is
always the next node and only the right child is stored.  A node scores all
of its candidate features in one array pass, and the forest predicts by
descending every tree for every row at once.  A row's prediction is the same
whatever batch it comes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

_LEAF = -1

_PARAMS = ("mode", "n_trees", "max_depth", "min_samples_leaf", "max_features",
           "bootstrap", "seed", "n_classes")


class Tree(NamedTuple):
    """One tree's slice of its forest's node arrays (views; node ids are the
    forest's)."""
    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _fitted():
    return field(default=None, init=False, repr=False)


@dataclass(eq=False)
class RandomForest:
    mode: str  # "regression" | "classification"
    n_trees: int = 200
    max_depth: int = 12
    min_samples_leaf: int = 1
    max_features: object = "sqrt"  # "sqrt", "all"/None, int, or float fraction
    bootstrap: bool = True
    seed: int = 0
    n_classes: int = 0
    # the fitted nodes of all trees, tree t's after those of trees 0..t-1.
    # A leaf has feature -1, threshold 0 and right pointing at itself; only
    # leaves carry a value.  importances sums the trees' MDI vectors.
    feature: np.ndarray = _fitted()
    threshold: np.ndarray = _fitted()
    right: np.ndarray = _fitted()
    value: np.ndarray = _fitted()
    roots: np.ndarray = _fitted()  # each tree's first node
    importances: np.ndarray = _fitted()
    # descent steps: node + 1 at internal nodes, the leaf itself at leaves,
    # so every row takes _depth steps (the deepest leaf's depth)
    _left: np.ndarray = _fitted()
    _depth: int = _fitted()

    def fit(self, X, y, n_classes=None):
        """Fit the trees; classification votes over n_classes classes
        (default: the largest label + 1)."""
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if self.mode == "classification":
            seen = int(y.max()) + 1 if len(y) else 1
            if n_classes is not None and n_classes < seen:
                raise ValueError(f"n_classes={n_classes} but labels reach "
                                 f"{seen - 1}")
            self.n_classes = seen if n_classes is None else int(n_classes)
        else:
            y = y.astype(float)
        # feature-major copy: one node's candidate block is a row gather
        Xt = np.ascontiguousarray(X.T)
        nodes = ([], [], [], [])  # feature, threshold, right, value
        roots, per_tree = [], []
        for ss in np.random.SeedSequence(self.seed).spawn(self.n_trees):
            rng = np.random.default_rng(ss)
            if self.bootstrap:
                idx = rng.integers(0, len(y), size=len(y))
            else:
                idx = np.arange(len(y))
            roots.append(len(nodes[0]))
            per_tree.append(np.zeros(X.shape[1]))
            self._build(Xt[:, idx], y[idx], np.arange(len(idx)), 0, rng,
                        nodes, per_tree[-1])
        feature, threshold, right, value = nodes
        self._set_nodes(
            np.array(feature, dtype=np.int64), np.array(threshold),
            np.array(right, dtype=np.int64),
            np.array(value, dtype=float if self.mode == "regression"
                     else np.int64),
            np.array(roots, dtype=np.int64), np.sum(per_tree, axis=0))
        return self

    def _set_nodes(self, feature, threshold, right, value, roots,
                   importances):
        self.feature, self.threshold, self.right = feature, threshold, right
        self.value, self.roots, self.importances = value, roots, importances
        leaf = feature < 0
        ids = np.arange(len(feature))
        self._left = np.where(leaf, ids, ids + 1)
        self._depth = 0
        frontier = roots[~leaf[roots]]
        while len(frontier):
            self._depth += 1
            frontier = np.concatenate([frontier + 1, right[frontier]])
            frontier = frontier[~leaf[frontier]]

    # -- growing ------------------------------------------------------------

    def _n_candidate_features(self, d):
        if self.max_features == "all" or self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(d)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * d))
        return max(1, min(int(self.max_features), d))

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

    def _build(self, Xt, y, idx, depth, rng, nodes, importances):
        """Append the subtree of rows idx to nodes; nodes are numbered, and
        draw from rng, in DFS preorder."""
        feature, threshold, right, value = nodes
        node = len(feature)
        leaf, parent_imp = self._leaf_and_impurity(y[idx])
        feature.append(_LEAF)
        threshold.append(0.0)
        right.append(node)
        value.append(leaf)
        if (depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf
                or parent_imp <= 0.0):
            return

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
            return

        f, thr, child_imp = best
        importances[f] += parent_imp - child_imp
        go_left = Xt[f, idx] <= thr
        feature[node], threshold[node], value[node] = f, thr, 0
        self._build(Xt, y, idx[go_left], depth + 1, rng, nodes, importances)
        right[node] = len(feature)
        self._build(Xt, y, idx[~go_left], depth + 1, rng, nodes, importances)

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
        """One prediction per row; a row's result never depends on the batch."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        node = np.tile(self.roots, (len(X), 1))  # (rows, trees)
        rows = np.arange(len(X))[:, None]
        for _ in range(self._depth):
            # a leaf's feature -1 reads the last column; either way the row
            # stays at the leaf
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self._left[node], self.right[node])
        votes = self.value[node]
        if self.mode == "regression":
            return votes.mean(axis=1)
        # majority vote across trees, ties toward the lower class index
        counts = np.sum(votes[:, :, None] == np.arange(self.n_classes), axis=1)
        return np.argmax(counts, axis=1)

    @property
    def trees(self):
        """One Tree of views per tree, in fitting order."""
        bounds = self.roots[1:]
        return [Tree(*parts) for parts in zip(
            *(np.split(a, bounds) for a in (self.feature, self.threshold,
                                            self.right, self.value)))]

    @property
    def feature_importances_(self):
        total = self.importances
        s = total.sum()
        return total / s if s > 0 else total

    def to_dict(self):
        """Hyperparameters and node arrays: per-tree node counts, every
        node's feature, thresholds and right children of internal nodes only,
        values of leaves only, and the summed importances."""
        internal = self.feature >= 0
        d = {key: getattr(self, key) for key in _PARAMS}
        d.update(sizes=np.diff(self.roots, append=len(self.feature)),
                 feature=self.feature, threshold=self.threshold[internal],
                 right=self.right[internal], value=self.value[~internal],
                 importances=self.importances)
        return d

    @classmethod
    def from_dict(cls, d):
        """The forest of to_dict; arrays that disagree with the node counts
        are refused with a ValueError naming the field."""
        forest = cls(**{key: d[key] for key in _PARAMS})
        feature = np.asarray(d["feature"], dtype=np.int64)
        internal = feature >= 0
        n, n_internal = len(feature), int(internal.sum())
        sizes = np.asarray(d["sizes"], dtype=np.int64)
        if (len(sizes) != forest.n_trees or sizes.sum() != n
                or np.any(sizes < 1)):
            raise ValueError(f"forest field 'sizes' does not split {n} nodes "
                             f"into {forest.n_trees} trees")
        for key, count, per in (("threshold", n_internal, "internal node"),
                                ("right", n_internal, "internal node"),
                                ("value", n - n_internal, "leaf")):
            if len(d[key]) != count:
                raise ValueError(f"forest field {key!r} has {len(d[key])} "
                                 f"entries, expected {count} (one per {per})")
        if feature.max(initial=-1) >= len(d["importances"]):
            raise ValueError(f"forest field 'importances' has "
                             f"{len(d['importances'])} entries, but a node "
                             f"splits on feature {feature.max()}")
        roots = np.cumsum(sizes) - sizes
        ids = np.arange(n)
        right = ids.copy()
        right[internal] = d["right"]
        # a right child lies after its node and inside its node's tree
        ends = np.repeat(roots + sizes, sizes)
        if np.any(internal & ((right <= ids) | (right >= ends))):
            raise ValueError("forest field 'right' points outside its tree")
        threshold = np.zeros(n)
        threshold[internal] = d["threshold"]
        leaves = np.asarray(d["value"])
        value = np.zeros(n, dtype=leaves.dtype)
        value[~internal] = leaves
        forest._set_nodes(feature, threshold, right, value, roots,
                          np.asarray(d["importances"], dtype=float))
        return forest
