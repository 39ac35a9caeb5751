from dataclasses import replace

import pytest

from benloc.logs import FeatureStage, MissingStageError
from benloc.report import evaluate_split
from benloc.splits import split_by_instance


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
