import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benloc import forest as forest_module
from benloc.forest import RandomForest, _widths, leaf_values, ranks
from conftest import called_names


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
        # the summed MDI importances, normalized as a ranking shows them
        assert (forest.importances >= 0).all()
        imps = forest.importances / forest.importances.sum()
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
        assert np.array_equal(back.importances, forest.importances)

    @pytest.mark.parametrize("field, change, reason", [
        # one node too many; internal nodes after every leaf, past the
        # positions their parents reach; leaves that index no column
        ("feature", lambda a: np.r_[a, -1], "level-order layout of 3 trees"),
        ("feature", np.sort, "level-order layout of 3 trees"),
        ("feature", lambda a: np.where(a < 0, -5, a),
         "level-order layout of 3 trees"),
        ("threshold", lambda a: a[:-1], "expected"),
        ("value", lambda a: np.r_[a, a[:1]], "expected"),
        ("importances", lambda a: a[:1], "splits on feature"),
        ("mode", lambda a: "bogus", "not 'regression' or 'classification'"),
        ("n_classes", lambda a: "2", "not an int"),
        ("feature", lambda a: a + 0.5, "not an array of ints"),
        ("value", lambda a: a.astype(np.int64), "not an array of floats"),
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


def test_from_dict_refuses_a_leaf_outside_the_classes():
    X = np.arange(12.0)[:, None]
    d = RandomForest(mode="classification", n_trees=2, seed=0).fit(
        X, (X[:, 0] > 5).astype(int)).to_dict()
    d["value"] = np.r_[2, d["value"][1:]]
    with pytest.raises(ValueError, match="^forest field 'value' holds a "
                                         "class outside 0..1$"):
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


@pytest.mark.parametrize("stacked_nodes", [1 << 14, 3000, 1])
def test_one_descent_of_unequal_forests_equals_each_forest_bitwise(
        monkeypatch, stacked_nodes):
    """leaf_values over a depth-0 forest (a constant target) and two
    depth-12 ones gives, per forest, the same bits as the forest's own
    predict, and as a descent that follows each forest's children, whether
    the forests descend as one, in two groups or one by one."""
    monkeypatch.setattr(forest_module, "_STACKED_NODES", stacked_nodes)
    rng = np.random.default_rng(4)
    X = rng.random((400, 3))
    forests = [RandomForest(mode="regression", n_trees=6, seed=s).fit(X, y)
               for s, y in enumerate([np.zeros(400), rng.random(400),
                                      rng.random(400)])]
    assert [f._depth for f in forests] == [0, 12, 12]
    X_new = rng.random((50, 3))
    for rows in [X_new, *(X_new[i:i + 1] for i in range(len(X_new)))]:
        stacked = leaf_values(forests, rows).mean(axis=2)
        each = np.column_stack([f.predict(rows) for f in forests])
        assert stacked.tobytes() == each.tobytes()
    for k, f in enumerate(forests):  # the descent as the layout defines it
        node = np.tile(np.arange(f.n_trees), (len(X_new), 1))
        for _ in range(f._depth):  # a leaf stays; a node's right is left + 1
            go_right = ~(X_new[np.arange(len(X_new))[:, None],
                               f.feature[node]] <= f.threshold[node])
            node = f._left[node] + (go_right & (f.feature[node] >= 0))
        assert leaf_values(forests, X_new)[:, k].tobytes() == \
            f.value[node].tobytes()


def test_constant_target_fit_ranks_no_column():
    """A forest whose roots cannot split fits without ranking X."""
    X = np.random.default_rng(0).random((30, 4))

    def called(y):
        return set(called_names(
            RandomForest(mode="regression", n_trees=3, seed=0).fit, X, y))
    assert "unique" not in called(np.zeros(30))
    assert "unique" in called(X[:, 0])


def test_ranks_are_each_columns_unique_inverse():
    """Ties share a rank, -0.0 ranks as 0.0, a constant column ranks all
    zero; the table has one row per column of X."""
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.integers(0, 4, 50).astype(float),
                         rng.choice([-0.0, 0.0, 1.5, -2.0], 50),
                         np.full(50, 3.25), rng.random(50)])
    table = ranks(X)
    assert table.shape == (4, 50) and table.dtype == np.int64
    for j, c in enumerate(X.T):
        assert np.array_equal(table[j], np.unique(c, return_inverse=True)[1])
    assert not table[2].any()
    assert np.array_equal(table[1] == 1, X[:, 1] == 0.0)


@pytest.mark.parametrize("mode", ["regression", "classification"])
def test_fit_on_a_given_rank_table_is_the_same_forest(mode):
    rng = np.random.default_rng(6)
    X = np.column_stack([rng.integers(0, 5, 80).astype(float),
                         rng.random((80, 3)), np.zeros(80)])
    y = (X[:, 0] + rng.random(80) > 2.5).astype(int)
    a = RandomForest(mode=mode, n_trees=6, seed=1).fit(X, y)
    b = RandomForest(mode=mode, n_trees=6, seed=1).fit(X, y, rank=ranks(X))
    assert _frozen(a) == _frozen(b)


def _frozen(forest):
    """to_dict with each array as its dtype and bytes."""
    return {key: (v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray)
            else v for key, v in forest.to_dict().items()}


@pytest.mark.parametrize("bad", [
    lambda t: t.T, lambda t: t[:, :-1], lambda t: t.astype(float),
    lambda t: t.astype(bool), lambda t: t.astype(np.uint64),
    lambda t: t - 1, lambda t: t + 30 - t.max()])
def test_fit_refuses_a_rank_table_that_is_not_ranks_of_x(bad):
    """Wrong shape, a dtype other than signed int (a uint64 rank cannot
    join the int64 split-search key), or an entry outside 0..n-1."""
    X = np.random.default_rng(7).random((30, 3))
    with pytest.raises(ValueError, match=r"^rank must be ranks\(X\): a "
                                         r"\(3, 30\) table of signed ints "
                                         r"in 0\.\.29$"):
        RandomForest(mode="regression").fit(X, X[:, 0], rank=bad(ranks(X)))


@pytest.mark.parametrize("field, value, message", [
    ("min_samples_leaf", 0, "min_samples_leaf must be >= 1, got 0"),
    ("max_depth", -2, "max_depth must be >= 0, got -2"),
    ("max_features", "bogus", "max_features must be 'sqrt', 'all', None, an "
     "int >= 1 or a float in (0, 1], got 'bogus'")])
def test_fit_refuses_a_bad_growth_hyperparameter(field, value, message):
    X = np.random.default_rng(0).random((30, 3))
    with pytest.raises(ValueError) as e:
        RandomForest(mode="regression", **{field: value}).fit(X, X[:, 0])
    assert str(e.value) == message


@pytest.mark.parametrize("value", [0, -1, 0.0, 1.5, True, "SQRT", 2.0])
def test_fit_refuses_max_features_outside_its_forms(value):
    X = np.random.default_rng(0).random((30, 3))
    with pytest.raises(ValueError, match="^max_features must be"):
        RandomForest(mode="regression", max_features=value).fit(X, X[:, 0])


@pytest.mark.parametrize("mode, X, y, message", [
    ("regression", np.zeros((0, 3)), np.zeros(0), "X must be a 2-D array of "
     "at least one row and one column, got shape (0, 3)"),
    ("regression", np.zeros((4, 0)), np.arange(4.0), "X must be a 2-D array "
     "of at least one row and one column, got shape (4, 0)"),
    ("regression", np.eye(4), np.arange(3.0),
     "y must hold one value per row of X (4), got shape (3,)"),
    ("classification", np.eye(4), [0, 1, -1, 0],
     "y holds class label -1, not an int >= 0"),
    ("classification", np.eye(4), [0.5, 1.7, 0.5, 1.7],
     "y holds class label 0.5, not an int >= 0"),
    ("regression", np.eye(4), [0.0, np.nan, 1.0, 2.0],
     "y holds a NaN or infinite value"),
    ("regression", np.eye(4), [0.0, 1.0, -np.inf, 2.0],
     "y holds a NaN or infinite value")],
    ids=["no_rows", "no_columns", "y_length", "negative_label",
         "fractional_label", "nan_target", "infinite_target"])
def test_fit_refuses_bad_training_data(mode, X, y, message):
    """Data a forest cannot learn from is refused before any tree grows,
    rather than fitting NaN leaves or truncated labels."""
    with pytest.raises(ValueError) as e:
        RandomForest(mode=mode, n_trees=2).fit(X, y)
    assert str(e.value) == message


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


def reference_tree(mode, X, y, max_depth, min_leaf):
    """Level-order (feature, threshold, value) of a CART grown from a FIFO
    queue that tries every feature at every node: the lowest child impurity
    wins, then the lowest feature, then the lowest threshold."""
    n_classes = int(y.max()) + 1 if mode == "classification" else 0
    feature, threshold, value = [], [], []

    def impurity(ys):  # SSE, or n * gini from integer class counts
        if mode == "regression":
            mean = ys.sum() / len(ys)
            return mean, ((ys - mean) ** 2).sum()
        counts = np.bincount(ys, minlength=n_classes)
        return int(np.argmax(counts)), len(ys) - counts @ counts / len(ys)

    def child_impurity(ys, j):  # rows ys[:j] go left
        n = len(ys)
        if mode == "regression":
            left = ys[:j].sum()
            return (ys ** 2).sum() - (left ** 2 / j
                                      + (ys.sum() - left) ** 2 / (n - j))
        cl = np.bincount(ys[:j], minlength=n_classes)
        cr = np.bincount(ys[j:], minlength=n_classes)
        return (j - cl @ cl / j) + ((n - j) - cr @ cr / (n - j))

    queue = deque([(np.arange(len(y)), 0)])
    while queue:
        idx, depth = queue.popleft()
        leaf, imp = impurity(y[idx])
        feature.append(-1), threshold.append(0.0), value.append(leaf)
        if depth >= max_depth or len(idx) < 2 * min_leaf or imp <= 0:
            continue
        best = None
        for f in range(X.shape[1]):
            order = idx[np.argsort(X[idx, f], kind="stable")]
            xs = X[order, f]
            for j in range(min_leaf, len(idx) - min_leaf + 1):
                if xs[j - 1] == xs[j]:
                    continue
                child = child_impurity(y[order], j)
                if best is None or child < best[0]:
                    mid = 0.5 * (xs[j - 1] + xs[j])
                    best = (child, f, mid if mid < xs[j] else xs[j - 1])
        if best is None:
            continue
        _, f, thr = best
        feature[-1], threshold[-1], value[-1] = f, thr, 0
        go_left = X[idx, f] <= thr
        queue.extend([(idx[go_left], depth + 1), (idx[~go_left], depth + 1)])
    return feature, threshold, value


def exact_data(mode, seed, n=48, d=4):
    """Integer features and dyadic targets, so every sum is exact."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, d)).astype(float)
    y = rng.integers(-8, 9, size=n) / 4.0 if mode == "regression" else \
        rng.integers(0, 3, size=n)
    return X, y


def assert_same_tree(forest, reference):
    for name, want in zip(("feature", "threshold", "value"), reference):
        assert getattr(forest, name).tolist() == want, name


@pytest.mark.parametrize("mode", ["regression", "classification"])
@pytest.mark.parametrize("max_depth", range(1, 8))
@pytest.mark.parametrize("min_leaf", [1, 2, 3])
def test_level_builder_grows_the_reference_tree(mode, max_depth, min_leaf):
    X, y = exact_data(mode, seed=max_depth * 10 + min_leaf)
    forest = one_tree(mode, max_depth=max_depth, min_samples_leaf=min_leaf,
                      max_features="all").fit(X, y)
    assert_same_tree(forest, reference_tree(mode, X, y, max_depth, min_leaf))


@pytest.mark.parametrize("mode", ["regression", "classification"])
@pytest.mark.parametrize("seed", range(4))
def test_constant_sampled_features_fall_back_to_the_others(mode, seed):
    # one column varies and five are constant: a node whose one sampled
    # feature is constant must search the others, so every draw grows the
    # tree the reference grows from all features
    X, y = exact_data(mode, seed, d=1)
    X = np.hstack([np.full((len(y), 3), 2.0), X, np.full((len(y), 2), 7.0)])
    forest = RandomForest(mode=mode, n_trees=1, bootstrap=False,
                          max_features=1, seed=seed).fit(X, y)
    assert_same_tree(forest, reference_tree(mode, X, y, 12, 1))
    assert np.any(forest.feature == 3)


def repeated_data(mode, seed, layout, n=12, block=4):
    """exact_data's rows repeated in blocks, its columns in turn where
    layout holds a "v" and a constant column where it holds a "c".  The rows
    of a block share a feature vector, as the permutations of one family
    share their static features, but each row draws its own target, so a
    node holding one block's rows cannot split."""
    X, _ = exact_data(mode, seed, n=n)
    _, y = exact_data(mode, seed + 1, n=n * block)
    varying = iter(np.repeat(X, block, axis=0).T)
    return np.column_stack([next(varying) if c == "v" else
                            np.full(n * block, j + 2.0)
                            for j, c in enumerate(layout)]), y


@pytest.mark.parametrize("mode", ["regression", "classification"])
@pytest.mark.parametrize("layout", [
    # 0 to 3 constant columns before the varying ones
    "vvvv", "cvvvv", "ccvvvv", "cccvvvv",
    # more constant columns than varying ones, between them
    "cvccvcvccvc",
    # one varying column, so that a tree sampling one feature per node
    # grows the reference tree through the fallback to the other features
    "ccvcccc"], ids=["0", "1", "2", "3", "interleaved", "sampled"])
@pytest.mark.parametrize("min_leaf", [1, 2, 3])
def test_level_builder_grows_the_reference_tree_on_repeated_rows(
        mode, layout, min_leaf):
    # most (node, feature) groups take one value here and are never keyed,
    # and a column constant on X forms no group at all
    X, y = repeated_data(mode, seed=10 * layout.count("c") + min_leaf,
                         layout=layout)
    max_features = 1 if layout.count("v") == 1 else "all"
    forest = one_tree(mode, min_samples_leaf=min_leaf,
                      max_features=max_features).fit(X, y)
    assert_same_tree(forest, reference_tree(mode, X, y, 12, min_leaf))


@pytest.mark.parametrize("mode", ["regression", "classification"])
def test_repeated_rows_fall_back_to_the_others(mode):
    # test_constant_sampled_features_fall_back_to_the_others on rows repeated
    # in blocks: a block's nodes hold no live feature at all
    X, y = repeated_data(mode, seed=5, layout="cccvcc")
    forest = RandomForest(mode=mode, n_trees=1, bootstrap=False,
                          max_features=1, seed=5).fit(X, y)
    assert_same_tree(forest, reference_tree(mode, X, y, 12, 1))
    assert np.any(forest.feature == 3)


def test_search_key_wider_than_63_bits_is_refused():
    # (group, rank, row position) fields below 2^14, 240 and 2,400
    assert _widths(1 << 14, 240, 2400) == [8, 12]
    assert _widths(1 << 21, 1 << 21, 1 << 21) == [21, 21]
    with pytest.raises(ValueError, match="needs 64 bits, more than 63"):
        _widths(1 << 21, 1 << 21, 1 << 22)


def test_adjacent_float_split_sends_rows_both_ways():
    # the midpoint of 1 + 2^-52 and 1 + 2^-51 rounds to the upper value, so
    # a midpoint threshold sends every row left and grows empty leaves
    X = np.array([[1 + 2 ** -52], [1 + 2 ** -51]] * 2)
    forest = one_tree("regression", max_features="all").fit(X, [0, 1, 0, 1])
    assert forest.feature.tolist() == [0, -1, -1]
    assert forest.threshold[0] == 1 + 2 ** -52
    assert forest.predict(np.vstack([X, [[2.0]]])).tolist() == [0, 1, 0, 1, 1]


@st.composite
def layout_cases(draw):
    """A small fit: values drawn from a few adjacent floats, so columns tie
    and some midpoints round up, with every growth parameter drawn."""
    mode = draw(st.sampled_from(["regression", "classification"]))
    n, d = draw(st.integers(2, 16)), draw(st.integers(1, 3))
    base = np.array([1.0, 1 + 2 ** -52, 1 + 2 ** -51, 3.0])
    X = base[np.array(draw(st.lists(st.integers(0, 3), min_size=n * d,
                                    max_size=n * d))).reshape(n, d)]
    if draw(st.booleans()):
        X[:, -1] = X[:, 0]  # a column tied with another
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    if mode == "regression":
        y = y * 0.75
    forest = RandomForest(
        mode=mode, n_trees=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 6)),
        min_samples_leaf=draw(st.integers(1, 3)),
        max_features=draw(st.sampled_from(["sqrt", "all", 1])),
        bootstrap=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    return forest.fit(X, y), X


@settings(deadline=None, max_examples=80, derandomize=True)
@given(layout_cases())
def test_fitted_layout_is_level_order(case):
    forest, X = case
    internal = int(np.sum(forest.feature >= 0))
    assert len(forest.feature) == forest.n_trees + 2 * internal
    assert np.all(np.isfinite(forest.value[forest.feature < 0]))
    back = RandomForest.from_dict(forest.to_dict())
    X_new = np.vstack([X, X[::-1] * 1.5, [[0.0] * X.shape[1]]])
    a, b = forest.predict(X_new), back.predict(X_new)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_fit_memory_stays_bounded():
    """Fitting 5 trees on 2,400 x 56 two-class rows (the pair_ranker shape
    of the experiment benchmark) stays within 5 MB under tracemalloc.

    The depth-first grower this builder replaced peaked at 4.4 MB on the
    benchmark's pair_ranker fit and at 4.1 MB here.  The level builder peaks
    at 2.72 MB here because it searches each depth in runs of at most _RUN
    elements; searching a whole depth at once peaks at 6.3 MB."""
    rng = np.random.default_rng(0)
    X = np.hstack([np.tile(rng.random((240, 46)), (10, 1)),
                   np.repeat(np.eye(10), 240, axis=0)])
    y = (X[:, 0] + 0.3 * rng.standard_normal(2400) > 0.5).astype(int)
    tracemalloc.start()
    try:
        RandomForest(mode="classification", n_trees=5, seed=0).fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6
