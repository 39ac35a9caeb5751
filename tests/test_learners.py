import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benloc.dataset import build_oracle_dataset
from benloc.forest import RandomForest, leaf_values, ranks
from benloc.learners import (ExampleSet, FingerprintMismatchError,
                             TrainTestContaminationError, TrainedSelector,
                             build_examples, feature_fingerprint,
                             make_labels, predict_config, predict_indices,
                             train)
from benloc.logs import FeatureStage
from benloc.metrics import ConfigId, MissingEntryError, PerfTable
from benloc.synth import OracleSpec
from conftest import called_names, count_calls

CONFIGS = (ConfigId.default(), ConfigId.parse("RootCutLevel=3"))
FEATURES = ("f0", "f1")


def perf_two_configs():
    perf = PerfTable()
    perf.add("fam0", 0, CONFIGS[0], 6.0)
    perf.add("fam0", 0, CONFIGS[1], 12.0)
    perf.add("fam1", 0, CONFIGS[0], 10.0)
    perf.add("fam1", 0, CONFIGS[1], 5.0)
    return perf


def planted_examples(n=40, rng_seed=0, flip=False):
    """f0 > 0.5 makes the non-default configuration optimal."""
    X = np.random.default_rng(rng_seed).random((n, 2))
    times = np.where(X[:, :1] > 0.5, [10.0, 5.0], [10.0, 20.0])
    labels = np.log((times + 10.0) / (times[:, :1] + 10.0))
    if flip:
        labels = labels + 0.7  # common additive shift
    return ExampleSet([(f"fam{i}", 0) for i in range(n)], FEATURES, CONFIGS,
                      X, labels, times)


class TestLabels:
    def test_default_label_zero(self):
        configs, labels = make_labels(perf_two_configs(), shift=10.0)
        assert configs[0].is_default
        for vec in labels.values():
            assert vec[0] == 0.0

    def test_log_ratio_no_shift(self):
        perf = PerfTable()
        perf.add("f", 0, CONFIGS[0], 3.0)
        perf.add("f", 0, CONFIGS[1], 6.0)
        _, labels = make_labels(perf, shift=0.0)
        assert abs(labels[("f", 0)][1] - math.log(2.0)) < 1e-12

    def test_shifted_ratio(self):
        perf = PerfTable()
        perf.add("f", 0, CONFIGS[0], 6.0)
        perf.add("f", 0, CONFIGS[1], 12.0)
        _, labels = make_labels(perf, shift=10.0)
        assert abs(labels[("f", 0)][1] - math.log(22.0 / 16.0)) < 1e-12

    def test_missing_entry_raises(self):
        perf = perf_two_configs()
        perf.add("fam2", 0, CONFIGS[0], 4.0)  # lacks the second config
        with pytest.raises(MissingEntryError):
            make_labels(perf)

    def test_build_examples_class_index(self):
        fmap = {("fam0", 0): (FEATURES, np.array([0.1, 0.2])),
                ("fam1", 0): (FEATURES, np.array([0.9, 0.2]))}
        examples = build_examples(perf_two_configs(), fmap)
        assert examples.keys == [("fam0", 0), ("fam1", 0)]
        assert np.argmin(examples.times, axis=1).tolist() == [0, 1]
        assert examples.X.tolist() == [[0.1, 0.2], [0.9, 0.2]]


class TestExampleSet:
    def test_take_keeps_the_order_given(self):
        examples = planted_examples(6)
        keys = [("fam4", 0), ("fam1", 0), ("fam5", 0)]
        part = examples.take(keys)
        assert part.keys == keys
        for name in ("X", "labels", "times"):
            assert np.array_equal(getattr(part, name),
                                  getattr(examples, name)[[4, 1, 5]])
        assert (part.feature_names, part.configs) == (FEATURES, CONFIGS)

    def test_take_refuses_an_unknown_key(self):
        with pytest.raises(KeyError) as info:
            planted_examples(6).take([("fam1", 0), ("fam999", 0)])
        assert info.value.args == ("no example for (fam999, 0)",)

    def test_arrays_must_match_keys(self):
        ex = planted_examples(6)
        with pytest.raises(ValueError, match="do not match"):
            ExampleSet(ex.keys[:5], FEATURES, CONFIGS, ex.X, ex.labels,
                       ex.times)
        with pytest.raises(ValueError, match="do not match"):
            ExampleSet(ex.keys, FEATURES, CONFIGS, ex.X, ex.labels,
                       ex.times[:, :1])

    def test_train_on_rows_equals_train_on_take(self):
        examples = planted_examples(12)
        rows = list(examples)[2:9]
        assert [(r.family, r.seed) for r in rows] == examples.keys[2:9]
        a = train("knn", rows, seed=0)
        b = train("knn", examples.take(examples.keys[2:9]), seed=0)
        assert a.to_json() == b.to_json()

    def test_train_refuses_rows_from_two_sets(self):
        rows = list(planted_examples(5)) + list(planted_examples(5, 1))[3:]
        with pytest.raises(ValueError, match="^training rows come from "
                                             "different example sets$"):
            train("knn", rows, seed=0)

    def test_build_examples_refuses_layouts_that_disagree(self):
        fmap = {("fam0", 0): (FEATURES, np.array([0.1, 0.2])),
                ("fam1", 0): (("f1", "f0"), np.array([0.9, 0.2]))}
        with pytest.raises(FingerprintMismatchError,
                           match="instances disagree on features"):
            build_examples(perf_two_configs(), fmap)
        del fmap[("fam1", 0)]
        with pytest.raises(KeyError) as info:
            build_examples(perf_two_configs(), fmap)
        assert info.value.args == ("no features for (fam1, 0)",)

    def test_train_calls_do_not_grow_with_rows(self):
        """Python-level calls in train are the same at n and 4n instances:
        it reads the set's arrays, with no work per row in Python."""
        def calls(n_families):
            data = build_oracle_dataset(n_families=n_families, n_perms=3,
                                        spec=OracleSpec(seed=0), seed=0)
            examples = build_examples(
                data.perf, data.feature_map(FeatureStage.STATIC_ONLY))
            assert len(examples) == 3 * n_families
            return count_calls(train, "knn", examples, seed=0)
        assert calls(10) == calls(40)


class TestTrain:
    def test_constant_labels_predict_default(self):
        examples = ExampleSet([(f"fam{i}", 0) for i in range(10)], FEATURES,
                              CONFIGS, np.random.default_rng(1).random((10, 2)),
                              np.zeros((10, 2)), np.full((10, 2), 5.0))
        model = train("reg_forest", examples, seed=0)
        assert predict_config(model, np.array([0.3, 0.8])).is_default

    @staticmethod
    def tied_examples(n_configs, n=30):
        """Examples over n_configs configs whose features hold ties."""
        rng = np.random.default_rng(n_configs)
        configs = (ConfigId.default(),) + tuple(
            ConfigId.parse(f"RootCutLevel={k}") for k in range(n_configs - 1))
        times = rng.random((n, n_configs)) + 1.0
        return ExampleSet([(f"fam{i}", 0) for i in range(n)],
                          ("f0", "f1", "f2"), configs,
                          rng.integers(0, 4, (n, 3)).astype(float),
                          np.log(times / times[:, :1]), times)

    @pytest.mark.parametrize("n_configs", [2, 5])
    def test_pair_ranker_rank_table_is_ranks_of_its_stack(self, n_configs,
                                                          monkeypatch):
        """The table pair_ranker builds from ranks(X) and its indicator
        block is ranks of the stacked matrix it fits.  With 2 configs the
        one indicator column is all ones, so it ranks 0, not 1."""
        fitted, fit = [], RandomForest.fit

        def spy(forest, X, y, n_classes=None, rank=None):
            fitted.append((X, rank))
            return fit(forest, X, y, n_classes, rank)
        monkeypatch.setattr(RandomForest, "fit", spy)
        train("pair_ranker", self.tied_examples(n_configs),
              hyperparams={"n_trees": 2}, seed=0)
        (X_pair, rank), = fitted
        n_pairs = n_configs * (n_configs - 1) // 2
        assert X_pair.shape == (30 * n_pairs, 3 + n_pairs)
        assert rank.dtype == np.int64
        assert np.array_equal(rank, ranks(X_pair))
        if n_configs == 2:
            assert X_pair[:, -1].all() and not rank[-1].any()

    def test_pair_ranker_refuses_one_config(self):
        """With Default as the only config there is no pair to rank; the
        refusal names the config count."""
        with pytest.raises(ValueError) as info:
            train("pair_ranker", self.tied_examples(1), seed=0)
        assert str(info.value) == "pair_ranker needs at least 2 configs, got 1"

    def test_reg_forest_ranks_x_once(self):
        """Five configs' forests share one rank table: one np.unique per
        feature column."""
        names = called_names(train, "reg_forest", self.tied_examples(5),
                             hyperparams={"n_trees": 2}, seed=0)
        assert names.count("unique") == 3

    @pytest.mark.parametrize("kind", ["reg_forest", "clf_forest", "knn",
                                      "pair_ranker"])
    def test_recovers_planted_rule(self, kind):
        model = train(kind, planted_examples(60),
                      hyperparams={"n_trees": 30}, seed=0)
        rng = np.random.default_rng(99)
        correct = total = 0
        for _ in range(40):
            x = rng.random(2)
            if abs(x[0] - 0.5) < 0.1:
                continue  # stay away from the decision boundary
            want = CONFIGS[1] if x[0] > 0.5 else CONFIGS[0]
            correct += predict_config(model, x) == want
            total += 1
        assert correct / total >= 0.9

    def test_knn_k1_memorizes(self):
        examples = planted_examples(20)
        model = train("knn", examples, hyperparams={"k": 1}, seed=0)
        for x, times in zip(examples.X, examples.times):
            assert predict_config(model, x) == CONFIGS[int(np.argmin(times))]

    @pytest.mark.parametrize("k", [0, -1])
    def test_knn_k_below_one_refused(self, k):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            train("knn", planted_examples(12), hyperparams={"k": k}, seed=0)

    def test_deterministic(self):
        examples = planted_examples(30)
        a = train("reg_forest", examples, hyperparams={"n_trees": 10}, seed=5)
        b = train("reg_forest", examples, hyperparams={"n_trees": 10}, seed=5)
        assert a.to_json() == b.to_json()

    def test_contamination_hard_error(self):
        with pytest.raises(TrainTestContaminationError):
            train("knn", planted_examples(10), seed=0,
                  test_registry={"fam3", "elsewhere"})

    def test_registry_without_overlap_is_fine(self):
        train("knn", planted_examples(10), seed=0,
              test_registry={"other1", "other2"})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train("deep_net", planted_examples(10), seed=0)

    def test_argmin_invariant_under_label_shift(self):
        plain = train("reg_forest", planted_examples(30),
                      hyperparams={"n_trees": 20}, seed=3)
        shifted = train("reg_forest", planted_examples(30, flip=True),
                        hyperparams={"n_trees": 20}, seed=3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.random(2)
            assert predict_config(plain, x) == predict_config(shifted, x)


class TestPredict:
    def test_fingerprint_checked(self):
        model = train("knn", planted_examples(10), seed=0)
        with pytest.raises(FingerprintMismatchError):
            predict_config(model, np.array([0.1, 0.2]),
                           feature_names=("other", "names"))
        with pytest.raises(FingerprintMismatchError):
            predict_config(model, np.array([0.1, 0.2, 0.3]))

    def test_fingerprint_is_stable(self):
        assert feature_fingerprint(FEATURES) == feature_fingerprint(FEATURES)
        assert feature_fingerprint(FEATURES) != \
            feature_fingerprint(("f1", "f0"))

    @pytest.mark.parametrize("kind", ["reg_forest", "clf_forest", "knn",
                                      "pair_ranker"])
    def test_serialization_round_trip(self, kind):
        model = train(kind, planted_examples(25),
                      hyperparams={"n_trees": 10}, seed=1)
        back = TrainedSelector.from_json(model.to_json())
        rng = np.random.default_rng(11)
        for _ in range(15):
            x = rng.random(2)
            assert predict_config(back, x) == predict_config(model, x)

    def test_unknown_format_rejected(self):
        for text in ('{"format": "bogus"}', '[]'):
            with pytest.raises(ValueError, match="retrain the model"):
                TrainedSelector.from_json(text)
        # a v1 file is refused by its format, before its payload is read
        v1 = json.dumps({
            "format": "benloc-model-v1", "kind": "knn",
            "payload": {"X": {"__array__": [[0.0, 1.0]]}}})
        with pytest.raises(ValueError) as info:
            TrainedSelector.from_json(v1)
        assert str(info.value) == ("model format 'benloc-model-v1' is not "
                                   "'benloc-model-v3'; retrain the model")


@st.composite
def fitted_forests(draw):
    """Small forests of both modes, with tied values, d = 1, single-leaf
    trees (constant y) and class counts above the largest label."""
    mode = draw(st.sampled_from(["regression", "classification"]))
    n, d = draw(st.integers(2, 25)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)).round(draw(st.sampled_from([1, 3])))
    constant = draw(st.booleans())
    n_classes = None
    if mode == "regression":
        y = np.full(n, 0.5) if constant else rng.standard_normal(n)
    else:
        y = np.zeros(n, dtype=int) if constant else rng.integers(0, 3, n)
        n_classes = int(y.max()) + 1 + draw(st.integers(0, 2))
    forest = RandomForest(
        mode=mode, n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 6)),
        min_samples_leaf=draw(st.integers(1, 3)),
        max_features=draw(st.sampled_from(["sqrt", "all", 1, 0.5])),
        bootstrap=draw(st.booleans()), seed=seed)
    return forest.fit(X, y, n_classes=n_classes), X


@settings(deadline=None, max_examples=60)
@given(fitted_forests())
def test_model_file_round_trip_is_bit_identical(case):
    forest, X = case
    # the smallest selector that holds the forest and passes the load checks
    regression = forest.mode == "regression"
    key = "forest_0" if regression else "forest"
    configs = (ConfigId.default(),) + tuple(
        ConfigId.parse(f"RootCutLevel={c}")
        for c in range(0 if regression else forest.n_classes - 1))
    model = TrainedSelector(
        kind="reg_forest" if regression else "clf_forest", configs=configs,
        feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
        fingerprint="", seed=0, hyperparams={}, payload={key: forest})
    text = model.to_json()
    back = TrainedSelector.from_json(text)
    assert back.to_json() == text
    loaded = back.payload[key]
    for name in ("feature", "threshold", "value", "importances"):
        a, b = getattr(forest, name), getattr(loaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    X_new = np.vstack([X, X + 0.05, X - 0.05])
    a, b = forest.predict(X_new), loaded.predict(X_new)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRegForestDescent:
    def test_one_descent_equals_per_forest_predict_on_the_golden(self):
        """On the train/reg_forest golden's model, the configs' forests
        descended at once give each row the bits of column-stacked
        per-forest predicts."""
        from test_forest_golden import _examples
        examples = _examples()
        model = train("reg_forest", examples, hyperparams={"n_trees": 5},
                      seed=3)
        forests = [model.payload[f"forest_{k}"]
                   for k in range(len(model.configs))]
        assert forests[0]._depth == 0  # Default's label is 0 everywhere
        for rows in [examples.X] + [examples.X[i:i + 1]
                                    for i in range(len(examples))]:
            each = np.column_stack([f.predict(rows) for f in forests])
            assert leaf_values(forests, rows).mean(axis=2).tobytes() == \
                each.tobytes()
            assert predict_indices(model, rows).tolist() == \
                np.argmin(each, axis=1).tolist()

    @pytest.mark.parametrize("swapped", [0, 2])
    def test_forests_of_unequal_tree_counts_are_refused(self, swapped):
        """The descent reads every forest's tree count from forest_0, so a
        model whose forests disagree on it does not load.  With forest_0
        swapped, forest_1 is the first to disagree."""
        data = build_oracle_dataset(10, 3, seed=5)
        examples = build_examples(
            data.perf, data.feature_map(FeatureStage.UP_TO_ROOT_END))
        model = train("reg_forest", examples, hyperparams={"n_trees": 5},
                      seed=1)
        nine = train("reg_forest", examples, hyperparams={"n_trees": 9},
                     seed=1)
        model.payload[f"forest_{swapped}"] = nine.payload[f"forest_{swapped}"]
        named, n_trees = (1, 9) if swapped == 0 else (swapped, 5)
        with pytest.raises(ValueError) as e:
            TrainedSelector.from_json(model.to_json())
        assert e.value.args == (
            f"model field 'payload.forest_{named}' is not a forest of "
            f"{n_trees} trees, as forest_0 is",)

    def test_one_row_calls_do_not_grow_with_configs(self):
        """A one-row reg_forest selection makes as many Python-level calls
        with 5 configurations as with 2: the forests take one descent."""
        rng = np.random.default_rng(0)

        def calls(n_configs):
            configs = (ConfigId.default(),) + tuple(
                ConfigId.parse(f"RootCutLevel={k}")
                for k in range(n_configs - 1))
            times = rng.random((40, n_configs)) + 1.0
            examples = ExampleSet([(f"fam{i}", 0) for i in range(40)],
                                  FEATURES, configs, rng.random((40, 2)),
                                  np.log(times / times[:, :1]), times)
            model = train("reg_forest", examples, hyperparams={"n_trees": 4},
                          seed=0)
            x = rng.random(2)
            return count_calls(predict_config, model, x)
        assert calls(2) == calls(5)


class TestImportance:
    def test_planted_feature_ranks_first(self):
        model = train("reg_forest", planted_examples(60),
                      hyperparams={"n_trees": 20}, seed=0)
        # the MDI importances summed over every config's forest
        total = sum(model.payload[f"forest_{k}"].importances
                    for k in range(len(model.configs)))
        assert model.feature_names[np.argmax(total)] == "f0"

    @pytest.mark.parametrize("kind", ["reg_forest", "clf_forest", "knn",
                                      "pair_ranker"])
    def test_batch_selection_equals_one_row_at_a_time(self, small_oracle,
                                                      kind):
        fmap = small_oracle.feature_map(FeatureStage.UP_TO_ROOT_END)
        examples = build_examples(small_oracle.perf, fmap)
        model = train(kind, examples.take(examples.keys[:24]),
                      hyperparams={"n_trees": 10}, seed=2)
        names, X = examples.feature_names, examples.X
        assert [model.configs[i] for i in predict_indices(
            model, X, feature_names=names)] == [
            predict_config(model, x, feature_names=names) for x in X]
        with pytest.raises(FingerprintMismatchError):
            predict_indices(model, X[:, :-1])
        for bad in (X[0, :-1], X[:1], X[0, 0]):  # one vector of the layout
            with pytest.raises(FingerprintMismatchError):
                predict_config(model, bad)

    def test_pair_ranker_picks_per_instance(self, small_oracle):
        """Each (row, pair) input marks only its own pair, as in training, so
        the in-sample Copeland winner tracks PI-best."""
        from benloc.metrics import pi_best

        examples = build_examples(
            small_oracle.perf, small_oracle.feature_map(FeatureStage.UP_TO_ROOT_END))
        model = train("pair_ranker", examples, hyperparams={"n_trees": 10},
                      seed=0)
        chosen = [model.configs[i] for i in predict_indices(model, examples.X)]
        best, _ = pi_best(small_oracle.perf)
        assert ConfigId.parse("RootCutLevel=3") in chosen
        hits = sum(c == best[key] for key, c in zip(examples.keys, chosen))
        assert hits > len(examples) / 2
