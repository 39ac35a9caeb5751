"""Deterministic CART random forests (regression and classification).

Kept deliberately small: greedy binary splits on axis-aligned thresholds,
variance reduction for regression and Gini for classification, bootstrap
resampling and per-node feature subsampling.  All randomness comes from one
generator seeded with the forest seed, drawn in a fixed order (every tree's
bootstrap rows, then each depth's feature draws), so training is reproducible.

Regression leaves predict the mean of the training targets routed to them;
classification leaves predict the majority class (ties toward the lower class
index).  Importances are mean decrease in impurity, normalized to sum to 1
when any split exists.

All trees grow together, one depth at a time (the level-wise growth of
XGBoost's hist method, applied to exact CART): one sort per depth orders every
open node's (row, candidate feature) pairs by rank, and one array pass scores
every boundary.  The rank table, ranks(X), is built once per training matrix:
by a caller that fits several forests on one matrix, else by fit when a node
first grows.  Only live (node, feature) groups, where the feature takes
more than one value on the node's rows, are sorted, and their keys (group,
rank, row position) are unique, so the order, and with it every float sum,
is the same under every sort algorithm and CPU.

A fitted forest is one set of node arrays in the order the builder grows
them: every tree's root, then depth 1 of every tree, and so on.  In that
level order the children of the i-th internal node are nodes
n_trees + 2i and n_trees + 2i + 1, so no child pointer is stored.  The
forest predicts by descending every tree for every row at once; a row's
prediction is the same whatever batch it comes in.  leaf_values does that
for several forests at once, laying their node arrays end to end, so that
reg_forest's per-configuration forests take one descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

import numpy as np

_LEAF = -1

_PARAMS = ("mode", "n_trees", "max_depth", "min_samples_leaf", "max_features",
           "bootstrap", "seed", "n_classes")
# (row, feature) elements per split-search run: bounds the search's memory
_RUN = 1 << 14
# forests whose nodes number at most this together descend as one: beyond
# it, copying their node arrays costs more than the steps it saves (one row
# through five forests of 14k nodes in all: 0.07 ms as one, 0.19 ms one by
# one; of 71k nodes: 0.77 ms against 0.22 ms)
_STACKED_NODES = 1 << 14


class Tree(NamedTuple):
    """One tree's nodes in level order, taken from its forest's arrays."""
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray


def _widths(groups, ranks, rows):
    """Bit widths of the rank and row-position fields of a split-search key
    (group, rank, row position) whose fields hold values below groups, ranks
    and rows.  A key wider than 63 bits is refused."""
    widths = [(size - 1).bit_length() for size in (groups, ranks, rows)]
    if sum(widths) > 63:
        raise ValueError(f"a split-search key of {groups} groups, {ranks} "
                         f"ranks and {rows} rows needs {sum(widths)} bits, "
                         f"more than 63")
    return widths[1:]


def _changes(a):
    """True where a non-negative array differs from the entry before it, and
    at its first entry."""
    return a != np.concatenate(([-1], a[:-1]))


def _refuse(key, bad, why):
    if bad:
        raise ValueError(f"forest field {key!r} {why}")


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
    # the fitted nodes of all trees in level order: the roots are nodes
    # 0..n_trees-1.  A leaf has feature -1 and threshold 0; only leaves
    # carry a value.  importances sums the trees' MDI vectors.
    feature: np.ndarray = _fitted()
    threshold: np.ndarray = _fitted()
    value: np.ndarray = _fitted()
    importances: np.ndarray = _fitted()
    # descent steps: an internal node's left child (its right child is the
    # next node), the leaf itself at a leaf, so every row takes _depth steps
    # (the deepest leaf's depth)
    _left: np.ndarray = _fitted()
    _depth: int = _fitted()

    def fit(self, X, y, n_classes=None, rank=None):
        """Fit the trees; classification votes over n_classes classes
        (default: the largest label + 1); rank is ranks(X), or None to rank
        here.  A growth hyperparameter out of range, or a rank table of the
        wrong shape or dtype or with an entry outside 0..n-1, is refused
        with a ValueError naming it."""
        for key, low in (("n_trees", 1), ("min_samples_leaf", 1),
                         ("max_depth", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got "
                                 f"{getattr(self, key)}")
        k = self.max_features
        if not (k in ("sqrt", "all", None) or (
                isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                and k >= 1) or (isinstance(k, float) and 0 < k <= 1)):
            raise ValueError("max_features must be 'sqrt', 'all', None, an "
                             f"int >= 1 or a float in (0, 1], got {k!r}")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if self.mode == "classification":
            seen = int(y.max()) + 1 if len(y) else 1
            if n_classes is not None and n_classes < seen:
                raise ValueError(f"n_classes={n_classes} but labels reach "
                                 f"{seen - 1}")
            self.n_classes = seen if n_classes is None else int(n_classes)
            y = y.astype(np.int64)
        else:
            y = y.astype(float)
        (n, d), C = X.shape, self.n_classes
        if rank is not None:
            rank = np.asarray(rank)
            if (rank.shape != (d, n) or rank.dtype.kind != "i"
                    or rank.min() < 0 or rank.max() >= n):
                raise ValueError(f"rank must be ranks(X): a ({d}, {n}) "
                                 f"table of signed ints in 0..{n - 1}")
        k = self._n_candidate_features(d)
        rng = np.random.default_rng(self.seed)
        # the rows of every tree in one pool, grouped by node, tree by tree
        rows = (rng.integers(0, n, size=(self.n_trees, n)) if self.bootstrap
                else np.tile(np.arange(n), (self.n_trees, 1))).ravel()
        counts, importances = np.full(self.n_trees, n), np.zeros(d)
        levels = []  # per depth, by node: feature, threshold, value
        while len(counts):
            m, ys = len(counts), y[rows]
            node = np.repeat(np.arange(m), counts)
            # each node's leaf value, impurity * n (SSE or n * gini) and the
            # sums its split search needs: sum y and sum y^2, or class counts
            if self.mode == "regression":
                stats = np.stack([np.bincount(node, w, m)
                                  for w in (ys, ys * ys)], axis=1)
                value = stats[:, 0] / counts
                imp = np.bincount(node, (ys - value[node]) ** 2, m)
            else:  # argmax takes the lowest tied class
                stats = np.bincount(node * C + ys, minlength=m * C)
                stats = stats.reshape(m, C)
                value = stats.argmax(axis=1)
                imp = counts - (stats * stats).sum(axis=1) / counts
            grow = ((imp > 0.0) & (len(levels) < self.max_depth)
                    & (counts >= 2 * self.min_samples_leaf))
            sub, on = np.flatnonzero(grow), grow[node]
            if rank is None and len(sub):
                rank = ranks(X)
            rows, node, counts = rows[on], node[on], counts[sub]
            # each growing node's k features, then the others
            perm = np.argsort(rng.random((len(sub), d)), axis=1)
            child, f, thr = best = self._search(
                X, rank, y, rows, counts, np.sort(perm[:, :k]), stats[sub])
            stuck = np.isinf(child) & (k < d)
            if stuck.any():
                # the sampled features are constant on these nodes: search
                # the others rather than settle for a leaf
                for part, more in zip(best, self._search(
                        X, rank, y, rows[np.repeat(stuck, counts)],
                        counts[stuck], np.sort(perm[stuck, k:]),
                        stats[sub[stuck]])):
                    part[stuck] = more
            ok = np.isfinite(child)
            np.add.at(importances, f[ok], imp[sub[ok]] - child[ok])
            feature, threshold = np.full(m, _LEAF), np.zeros(m)
            feature[sub[ok]], threshold[sub[ok]], value[sub[ok]] = \
                f[ok], thr[ok], 0
            levels.append((feature, threshold, value))
            on = feature[node] >= 0
            rows, node = rows[on], node[on]
            # split node q's children are nodes 2q and 2q + 1 of the next depth
            child = 2 * (np.cumsum(feature >= 0) - 1)[node] + \
                ~(X[rows, feature[node]] <= threshold[node])
            rows = rows[np.argsort(child, kind="stable")]
            counts = np.bincount(child, minlength=2 * int(ok.sum()))
        self._set_nodes(*map(np.concatenate, zip(*levels)), importances)
        return self

    def _set_nodes(self, feature, threshold, value, importances):
        self.feature, self.threshold = feature, threshold
        self.value, self.importances = value, importances
        # the i-th internal node's children are nodes n_trees + 2i and
        # n_trees + 2i + 1, and a leaf is its own child
        internal = feature >= 0
        before = np.r_[0, np.cumsum(internal)]
        self._left = np.where(internal, self.n_trees + 2 * before[:-1],
                              np.arange(len(feature)))
        # depth d + 1 holds the children of depth d's internal nodes
        self._depth, end = 0, self.n_trees
        while end < len(feature):
            self._depth, end = self._depth + 1, self.n_trees + 2 * before[end]

    # -- growing ------------------------------------------------------------

    def _n_candidate_features(self, d):
        if self.max_features == "all" or self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(d)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * d))
        return max(1, min(int(self.max_features), d))

    def _search(self, X, rank, y, rows, counts, feats, stats):
        """(child impurity sum, feature, threshold) of each node's best split,
        the impurity inf where there is none.  Node i owns the next counts[i]
        entries of rows and searches the features feats[i].

        Nodes go in runs of at most _RUN (row, feature) elements, a larger
        node alone.  A (node, feature slot) group is live when its feature
        takes more than one value on the node's rows; only a live group has
        a boundary, so only its elements are keyed.  The key (group, rank,
        row position) is unique, so one sort lays the run out the same way
        under every sort algorithm: the nodes, each node's features one
        after another in value order, and tied values in row order.  A
        node's first minimum over its boundaries takes the lowest impurity,
        then the lowest feature, then the lowest threshold.
        """
        m, k = feats.shape
        best = np.full(m, np.inf), np.zeros(m, dtype=np.int64), np.zeros(m)
        leaf = self.min_samples_leaf
        end, first = np.cumsum(counts * k), np.cumsum(counts) - counts
        column = feats * len(X)  # where each candidate's ranks start in rank
        a = 0
        while a < m:
            b = max(a + 1, int(np.searchsorted(end, end[a] - counts[a] * k
                                               + _RUN, "right")))
            r = rows[first[a]:first[b - 1] + counts[b - 1]]
            local = np.repeat(np.arange(b - a), counts[a:b])
            # element e = p * k + s is row r[p] under its node's slot s
            rk = rank.ravel()[column[a:b][local] + r[:, None]]
            head = first[a:b] - first[a]  # each node's first row in r
            live = (np.minimum.reduceat(rk, head)
                    != np.maximum.reduceat(rk, head))
            size = (counts[a:b, None] * live).ravel()  # of group local * k + s
            start = np.cumsum(size) - size
            rb, pb = _widths(len(size), len(X), len(r))
            # each live element's key (group, rank, row position p)
            e = np.flatnonzero(live[local])
            p = e // k
            key = local[p]
            key *= k
            key += e % k
            key <<= rb
            key |= rk.ravel()[e]
            key <<= pb
            key |= p
            del rk, e  # the run's largest arrays: free them before the sort
            key.sort()
            # a split after sorted position i: the rank changes, the group not
            gr = key >> pb
            g = gr >> rb
            i = np.flatnonzero((gr[1:] != gr[:-1]) & (g[1:] == g[:-1]))
            p, g = key & ((1 << pb) - 1), g[i]
            nl, n = i + 1 - start[g], size[g]
            ok = (nl >= leaf) & (n - nl >= leaf)
            i, g, n, nl, node = i[ok], g[ok], n[ok], nl[ok], g[ok] // k
            ys, stat = y[r[p]], stats[a + node]
            # prefix sums of y, or of class counts, with a leading zero
            if self.mode == "regression":
                cs = np.concatenate(([0.0], ys)).cumsum()
                left = cs[i + 1] - cs[start[g]]
                c = stat[:, 1] - (left ** 2 / nl
                                  + (stat[:, 0] - left) ** 2 / (n - nl))
            else:
                # integer class counts: exact, so the sums of squares are
                # the same floats whatever the summation order
                sl = sr = 0
                for cls in range(self.n_classes):
                    cs = np.concatenate(([0], ys == cls)).cumsum()
                    left = cs[i + 1] - cs[start[g]]
                    sl, sr = sl + left ** 2, sr + (stat[:, cls] - left) ** 2
                c = (nl - sl / nl) + ((n - nl) - sr / (n - nl))
            new = _changes(node)
            low = np.minimum.reduceat(c, np.flatnonzero(new))
            hit = np.flatnonzero(c == low[np.cumsum(new) - 1])
            hit = hit[_changes(node[hit])]
            at, f, i = a + node[hit], feats[a + node[hit], g[hit] % k], i[hit]
            best[0][at], best[1][at] = low, f
            # the midpoint, or lo where it rounds up to hi (adjacent floats)
            lo, hi = (X[r[p[j]], f] for j in (i, i + 1))
            best[2][at] = np.where(0.5 * (lo + hi) < hi, 0.5 * (lo + hi), lo)
            a = b
        return best

    # -- prediction ---------------------------------------------------------

    def predict(self, X):
        """One prediction per row; a row's result never depends on the batch."""
        votes = leaf_values([self], X)[:, 0]
        if self.mode == "regression":
            return votes.mean(axis=1)
        # majority vote across trees, ties toward the lower class index
        counts = np.sum(votes[:, :, None] == np.arange(self.n_classes), axis=1)
        return np.argmax(counts, axis=1)

    @property
    def trees(self):
        """One Tree per tree in fitting order, found by following parents."""
        parent = np.r_[np.arange(self.n_trees),
                       np.repeat(np.flatnonzero(self.feature >= 0), 2)]
        tree = np.arange(len(self.feature))
        for _ in range(self._depth):
            tree = parent[tree]
        return [Tree(*(a[tree == t] for a in (self.feature, self.threshold,
                                              self.value)))
                for t in range(self.n_trees)]

    def to_dict(self):
        """Hyperparameters, every node's feature, the internal nodes'
        thresholds, the leaves' values and the summed importances."""
        internal = self.feature >= 0
        d = {key: getattr(self, key) for key in _PARAMS}
        d.update(feature=self.feature, threshold=self.threshold[internal],
                 value=self.value[~internal], importances=self.importances)
        return d

    @classmethod
    def from_dict(cls, d):
        """The forest of to_dict.  A field of the wrong type, a float array
        holding NaN or infinity, a feature array that is not a level-order
        layout, or an array that disagrees with it is refused with a
        ValueError naming the field."""
        _refuse("mode", d.get("mode") not in ("regression", "classification"),
                f"is {d.get('mode')!r}, not 'regression' or 'classification'")
        for key in ("n_trees", "max_depth", "min_samples_leaf", "seed",
                    "n_classes"):
            val = d.get(key)
            _refuse(key, isinstance(val, bool) or not isinstance(
                val, (int, np.integer)), f"is {val!r}, not an int")
        forest = cls(**{key: d[key] for key in _PARAMS})
        floats = {"threshold", "importances"} | (
            {"value"} if forest.mode == "regression" else set())
        for key in ("feature", "threshold", "value", "importances"):
            kinds, what = ("f", "floats") if key in floats else ("iu", "ints")
            _refuse(key, np.ndim(d.get(key)) != 1
                    or np.asarray(d[key]).dtype.kind not in kinds,
                    f"is not an array of {what}")
            _refuse(key, not np.isfinite(d[key]).all(),
                    "holds a NaN or infinite value")
        feature = np.asarray(d["feature"], dtype=np.int64)
        internal = feature >= 0
        n, n_internal, m = len(feature), int(internal.sum()), forest.n_trees
        # every node but a root is a child of an earlier internal node, so
        # every descent reaches a leaf within _depth steps
        _refuse("feature", m < 1 or n != m + 2 * n_internal
                or np.any(feature < _LEAF) or np.any(
                    np.flatnonzero(internal) >= m + 2 * np.arange(n_internal)),
                f"is not a level-order layout of {m} trees")
        for key, count, per in (("threshold", n_internal, "internal node"),
                                ("value", n - n_internal, "leaf")):
            _refuse(key, len(d[key]) != count, f"has {len(d[key])} entries, "
                    f"expected {count} (one per {per})")
        top = feature.max(initial=-1)
        _refuse("importances", top >= len(d["importances"]),
                f"has {len(d['importances'])} entries, but a node splits on "
                f"feature {top}")
        leaves = np.asarray(d["value"])
        _refuse("value", forest.mode == "classification" and np.any(
            (leaves < 0) | (leaves >= forest.n_classes)),
            f"holds a class outside 0..{forest.n_classes - 1}")
        threshold, value = np.zeros(n), np.zeros(n, dtype=leaves.dtype)
        threshold[internal], value[~internal] = d["threshold"], leaves
        forest._set_nodes(feature, threshold, value,
                          np.asarray(d["importances"], dtype=float))
        return forest


def ranks(X):
    """Each column's dense ranks: per column of X, np.unique's inverse."""
    return np.array([np.unique(c, return_inverse=True)[1] for c in X.T])


def leaf_values(forests, X):
    """The value of the leaf each row of X reaches in each tree of each
    forest, shape (rows, forests, trees), for forests of as many trees
    each.  Consecutive forests of at most _STACKED_NODES nodes together are
    descended as one, their node arrays laid end to end; a forest too large
    to share descends alone, on its own arrays."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    # the rows one after another, each ending in a -inf that a leaf's
    # feature -1 reads, so that the row takes the leaf's left child: itself
    flat = np.concatenate([X, np.full((len(X), 1), -np.inf)], axis=1).ravel()
    groups, size = [], _STACKED_NODES
    for forest in forests:
        if size + len(forest.feature) > _STACKED_NODES:
            groups.append([])
            size = 0
        groups[-1].append(forest)
        size += len(forest.feature)
    row_start = np.arange(len(X)) * (X.shape[1] + 1)
    return np.concatenate([_descend(group, flat, row_start)
                           for group in groups], axis=1)


def _descend(forests, flat, row_start):
    """leaf_values of forests laid end to end, for the rows of flat that
    begin at row_start: as many steps as the deepest forest needs (a leaf is
    its own child)."""
    n_rows, n_forests = len(row_start), len(forests)
    n_trees = forests[0].n_trees
    parts = zip(*map(attrgetter("feature", "threshold", "_left"), forests))
    feature, threshold, left = (p[0] if n_forests == 1 else np.concatenate(p)
                                for p in parts)
    # per (row, forest, tree): the forest's first node, and the row's start
    first = np.tile(np.array(list(accumulate(map(len, map(attrgetter(
        "feature"), forests[:-1])), initial=0))).repeat(n_trees), n_rows)
    at = row_start.repeat(n_forests * n_trees)
    node, step = first + np.arange(len(first)) % n_trees, first + 1
    for _ in range(max(map(attrgetter("_depth"), forests))):
        # the left child where value <= threshold, else the right (left + 1)
        node = left[node] + step - (flat[at + feature[node]]
                                    <= threshold[node])
    node = (node - first).reshape(n_rows, n_forests, n_trees)
    return np.concatenate([f.value[node[:, k]] for k, f in enumerate(
        forests)], axis=1).reshape(n_rows, n_forests, n_trees)
