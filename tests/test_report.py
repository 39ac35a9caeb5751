from dataclasses import replace

import pytest

from benloc.dataset import build_oracle_dataset
from benloc.learners import ExampleSet, build_examples, predict_indices
from benloc.logs import FeatureStage, MissingStageError
from benloc.metrics import MissingEntryError
from benloc.report import evaluate_split, fit_split, score_split
from benloc.splits import split_by_instance
from conftest import count_calls


def keep_logs(data, keep):
    """data with only the logs whose configuration keep accepts."""
    return replace(data, logs={
        key: {cfg: log for cfg, log in per_cfg.items() if keep(cfg)}
        for key, per_cfg in data.logs.items()})


def test_root_time_is_read_only_where_it_is_paid(small_oracle):
    split = split_by_instance(small_oracle.manifest(), 0.25, seed=0)
    static = FeatureStage.STATIC_ONLY
    only_default = keep_logs(small_oracle, lambda cfg: cfg.is_default)
    assert (evaluate_split(only_default, split, static, "knn")
            == evaluate_split(small_oracle, split, static, "knn"))

    root_end = evaluate_split(small_oracle, split,
                              FeatureStage.UP_TO_ROOT_END, "knn")
    (family, seed), cfg = next((pair, cfg) for pair, cfg
                               in root_end.predictions.items()
                               if cfg.affects_root)
    without = keep_logs(small_oracle, lambda other: other != cfg)
    with pytest.raises(MissingStageError,
                       match=rf"^no {cfg} log for \({family}, {seed}\)$"):
        evaluate_split(without, split, FeatureStage.UP_TO_ROOT_END, "knn")


def test_predicted_config_without_times_is_refused(small_oracle):
    """A model trained on configs the scored set lacks: the first test row
    whose choice has no times names it."""
    split = split_by_instance(small_oracle.manifest(), 0.25, seed=0)
    stage = FeatureStage.STATIC_ONLY
    examples = build_examples(small_oracle.perf,
                              small_oracle.feature_map(stage))
    model = fit_split(examples, split, "knn")
    chosen = [model.configs[i]
              for i in predict_indices(model, examples.take(split.test).X)]
    lost = next(c for c in chosen if not c.is_default)
    keep = [j for j, c in enumerate(examples.configs) if c != lost]
    lacking = ExampleSet(examples.keys, examples.feature_names,
                         tuple(examples.configs[j] for j in keep), examples.X,
                         examples.labels[:, keep], examples.times[:, keep])
    with pytest.raises(MissingEntryError) as e:
        score_split(small_oracle, split, model, lacking, stage)
    assert e.value.args == (f"no times for predicted config {lost}",)


def test_score_split_calls_do_not_grow_with_rows():
    """Pricing is by index: the Python calls of score_split do not depend on
    the number of test rows.  The depth cap, which both sizes reach, keeps
    forest.predict's loop over tree levels the same length."""
    stage = FeatureStage.STATIC_ONLY

    def calls(n_families):
        data = build_oracle_dataset(n_families=n_families, n_perms=5, seed=0)
        split = split_by_instance(data.manifest(), 0.2, seed=0)
        examples = build_examples(data.perf, data.feature_map(stage))
        model = fit_split(examples, split, "reg_forest",
                          {"n_trees": 5, "max_depth": 4})
        return count_calls(score_split, data, split, model, examples, stage)
    assert calls(30) == calls(120)
