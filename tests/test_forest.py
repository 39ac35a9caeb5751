import numpy as np
import pytest

from benloc.forest import RandomForest


def brute_force_best_sse_split(x, y):
    """Best threshold over sorted midpoints by sum of child SSEs."""
    order = np.argsort(x, kind="mergesort")
    xs, ys = x[order], y[order]
    best = None
    for i in range(1, len(xs)):
        if xs[i] == xs[i - 1]:
            continue
        thr = 0.5 * (xs[i - 1] + xs[i])
        l, r = ys[:i], ys[i:]
        sse = np.sum((l - l.mean()) ** 2) + np.sum((r - r.mean()) ** 2)
        if best is None or sse < best[0]:
            best = (sse, thr)
    return best


def one_tree(mode, **params):
    """A single tree: a one-tree forest fitted on every row."""
    return RandomForest(mode=mode, n_trees=1, bootstrap=False, **params)


class TestDecisionTree:
    def test_depth_one_split_matches_brute_force(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 1))
        y = np.where(X[:, 0] > 0.6, 5.0, 1.0) + 0.1 * rng.random(40)
        tree = one_tree("regression", max_depth=1, max_features="all")
        tree.fit(X, y)
        sse, thr = brute_force_best_sse_split(X[:, 0], y)
        assert abs(tree.threshold[0] - thr) < 1e-12
        # leaves predict the mean of the routed targets
        left_mask = X[:, 0] <= thr
        preds = tree.predict(X)
        assert np.allclose(preds[left_mask], y[left_mask].mean())
        assert np.allclose(preds[~left_mask], y[~left_mask].mean())

    def test_constant_targets(self):
        X = np.arange(10.0)[:, None]
        y = np.full(10, 3.25)
        tree = one_tree("regression").fit(X, y)
        assert np.allclose(tree.predict(X), 3.25)
        assert np.all(tree.importances == 0.0)

    def test_classification_tie_prefers_lower_class(self):
        X = np.ones((4, 1))  # no split possible
        y = np.array([0, 1, 0, 1])
        tree = one_tree("classification").fit(X, y)
        assert tree.predict(X).tolist() == [0, 0, 0, 0]

    def test_min_samples_leaf(self):
        X = np.arange(10.0)[:, None]
        y = np.array([0.0] * 9 + [100.0])
        tree = one_tree("regression", min_samples_leaf=3, max_features="all")
        tree.fit(X, y)
        # the isolated extreme point cannot sit alone in a leaf
        thr = tree.threshold[0]
        assert np.sum(X[:, 0] > thr) >= 3

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(2)
        X = rng.random((30, 4))
        y = X @ np.array([1.0, -2.0, 0.0, 0.5])
        tree = one_tree("regression", max_depth=4, max_features="all", seed=3)
        tree.fit(X, y)
        back = RandomForest.from_dict(tree.to_dict())
        assert np.array_equal(back.predict(X), tree.predict(X))


class TestRandomForest:
    def test_regression_learns_step(self):
        rng = np.random.default_rng(4)
        X = rng.random((120, 3))
        y = np.where(X[:, 1] > 0.5, 2.0, -2.0)
        forest = RandomForest(mode="regression", n_trees=30, seed=0).fit(X, y)
        X_new = rng.random((50, 3))
        X_new = X_new[np.abs(X_new[:, 1] - 0.5) > 0.05]
        preds = forest.predict(X_new)
        assert np.all((preds > 0) == (X_new[:, 1] > 0.5))

    def test_classification_learns_rule(self):
        rng = np.random.default_rng(5)
        X = rng.random((150, 2))
        y = (X[:, 0] > 0.5).astype(int)
        forest = RandomForest(mode="classification", n_trees=30, seed=0)
        forest.fit(X, y)
        X_new = rng.random((60, 2))
        X_new = X_new[np.abs(X_new[:, 0] - 0.5) > 0.05]
        assert np.array_equal(forest.predict(X_new),
                              (X_new[:, 0] > 0.5).astype(int))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        X = rng.random((60, 3))
        y = rng.random(60)
        a = RandomForest(mode="regression", n_trees=10, seed=42).fit(X, y)
        b = RandomForest(mode="regression", n_trees=10, seed=42).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))
        c = RandomForest(mode="regression", n_trees=10, seed=43).fit(X, y)
        assert not np.array_equal(a.predict(X), c.predict(X))

    def test_importances_sum_to_one_and_rank_signal(self):
        rng = np.random.default_rng(7)
        X = rng.random((120, 5))
        y = np.where(X[:, 3] > 0.5, 3.0, -3.0)
        forest = RandomForest(mode="regression", n_trees=20, seed=1).fit(X, y)
        imps = forest.feature_importances_
        assert abs(imps.sum() - 1.0) < 1e-9
        assert np.argmax(imps) == 3

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(8)
        X = rng.random((40, 3))
        y = (X[:, 0] > 0.4).astype(int)
        forest = RandomForest(mode="classification", n_trees=8, seed=2)
        forest.fit(X, y)
        back = RandomForest.from_dict(forest.to_dict())
        assert np.array_equal(back.predict(X), forest.predict(X))
        assert np.allclose(back.feature_importances_,
                           forest.feature_importances_)

    @pytest.mark.parametrize("field, change, reason", [
        ("sizes", lambda a: a[:-1], "does not split"),
        ("sizes", lambda a: np.r_[a[0] + a[1], 0, a[2:]], "does not split"),
        ("threshold", lambda a: a[:-1], "expected"),
        ("right", lambda a: a[1:], "expected"),
        ("value", lambda a: np.r_[a, a[:1]], "expected"),
        ("importances", lambda a: a[:1], "splits on feature"),
        ("right", lambda a: np.r_[0, a[1:]], "points outside its tree"),
        ("right", lambda a: a + 10**6, "points outside its tree"),
    ])
    def test_from_dict_names_a_bad_field(self, field, change, reason):
        rng = np.random.default_rng(8)
        X = rng.random((40, 4))
        d = RandomForest(mode="regression", n_trees=3, seed=2).fit(
            X, X[:, 3]).to_dict()
        d[field] = change(d[field])
        with pytest.raises(ValueError,
                           match=f"^forest field '{field}' .*{reason}"):
            RandomForest.from_dict(d)


@pytest.mark.parametrize("mode", ["regression", "classification"])
@pytest.mark.parametrize("n_trees", [5, 10, 50])
def test_batch_predict_equals_row_by_row_bitwise(mode, n_trees):
    rng = np.random.default_rng(9)
    X = rng.random((120, 4))
    y = X[:, 0] + rng.standard_normal(120) if mode == "regression" else \
        rng.integers(0, 3, size=120)
    forest = RandomForest(mode=mode, n_trees=n_trees, seed=3).fit(X, y)
    X_new = rng.random((300, 4))
    batch = forest.predict(X_new)
    rows = np.concatenate([forest.predict(X_new[i:i + 1])
                           for i in range(len(X_new))])
    assert batch.dtype == rows.dtype
    assert batch.tobytes() == rows.tobytes()


def test_classification_vote_spans_n_classes():
    X = np.arange(12.0)[:, None]
    y = (X[:, 0] > 5).astype(int)  # labels 0 and 1 only
    forest = RandomForest(mode="classification", n_trees=4, seed=0)
    forest.fit(X, y, n_classes=5)
    assert forest.n_classes == 5
    assert RandomForest.from_dict(forest.to_dict()).n_classes == 5
    assert set(forest.predict(X).tolist()) == {0, 1}
    with pytest.raises(ValueError, match="n_classes"):
        forest.fit(X, y, n_classes=1)
