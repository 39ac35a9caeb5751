"""End-to-end evaluation and report tables.

evaluate_split runs one train/predict/evaluate pass as fit_split (train
side) then score_split (test side); the CLI train and evaluate commands run
the same two steps.  The Per-Dataset best baseline is chosen on the training
side only, predicted configurations pay the root re-solve cost when root-end
features were consumed, and all summary numbers are shifted geometric means
over the test instances.

Because it is ambiguous whether multi-seed improvements should be the mean of
per-split improvements or the improvement of averaged times (the two differ),
summaries report both, labeled mean_imp_* and imp_of_mean_* respectively.

Percentages print with two decimals, half-even rounding.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np

from .learners import build_examples, predict_indices, train
from .logs import FeatureStage, extra_cost, pays_root
from .metrics import (DEFAULT_SHIFT, ConfigId, MissingEntryError, baselines,
                      improvement, shifted_geomean)
from .splits import make_split


def format_pct(fraction):
    """Half-even percentage formatting, e.g. 0.0249195 -> '2.49%'."""
    q = Decimal("0.01")
    return f"{Decimal(fraction * 100).quantize(q, ROUND_HALF_EVEN)}%"


@dataclass
class EvalResult:
    stage: FeatureStage
    kind: str
    split_seed: int
    pd_config: ConfigId
    default_geomean: float
    pd_geomean: float
    pi_geomean: float
    pred_geomean: float
    predictions: dict  # (family, seed) -> ConfigId

    @property
    def imp_default(self):
        return improvement(self.default_geomean, self.pred_geomean)

    @property
    def imp_pd(self):
        return improvement(self.pd_geomean, self.pred_geomean)


def fit_split(examples, assignment, kind="reg_forest", hyperparams=None,
              seed=0):
    """Train a selector on the assignment's train side."""
    test = examples.take(assignment.test)  # an unknown instance fails here
    # family-disjoint strategies declare their test registry; the leaky
    # by_permutation strategy cannot (training would rightly refuse)
    registry = None
    if assignment.family_overlap() == 0:
        registry = {f for f, _ in test.keys}
    return train(kind, examples.take(assignment.train),
                 hyperparams=hyperparams, seed=seed, test_registry=registry)


def score_split(data, assignment, model, examples, stage,
                shift=DEFAULT_SHIFT):
    """Evaluate a trained selector on the assignment's test side."""
    test = examples.take(assignment.test)
    # taken, not read from the split, so that an unknown instance on the
    # train side fails here as it does in fit_split
    pd_col = baselines(examples.take(assignment.train).times, shift).pd_col
    base = baselines(test.times, shift, pd_col)
    idx = predict_indices(model, test.X, feature_names=test.feature_names)
    column = {c: j for j, c in enumerate(test.configs)}
    cols = np.array([column.get(c, -1) for c in model.configs])[idx]
    if np.any(cols < 0):
        cfg = model.configs[idx[np.argmax(cols < 0)]]
        raise MissingEntryError(f"no times for predicted config {cfg}")
    affects = np.array([c.affects_root for c in test.configs])[cols]
    root = np.zeros(len(test))
    # read only where paid: a dataset need not log every configuration
    for r in np.flatnonzero(pays_root(stage, affects)):
        root[r] = data.root_time(*test.keys[r], test.configs[cols[r]])
    pred = extra_cost(test.times[np.arange(len(test)), cols], root, stage,
                      affects)
    return EvalResult(
        stage=stage, kind=model.kind, split_seed=assignment.seed,
        pd_config=test.configs[pd_col], default_geomean=base.default,
        pd_geomean=base.pd, pi_geomean=base.pi,
        pred_geomean=shifted_geomean(pred, shift),
        predictions=dict(zip(test.keys, [model.configs[i] for i in idx])))


def evaluate_split(data, assignment, stage, kind="reg_forest",
                   hyperparams=None, shift=DEFAULT_SHIFT, train_seed=0):
    """Train on the assignment's train side, evaluate on its test side."""
    examples = build_examples(data.perf, data.feature_map(stage), shift)
    model = fit_split(examples, assignment, kind, hyperparams, train_seed)
    return score_split(data, assignment, model, examples, stage, shift)


def run_experiment(data, stage, kind="reg_forest", strategy="by_instance",
                   split_seeds=(0,), test_fraction=0.2, hyperparams=None,
                   shift=DEFAULT_SHIFT):
    """One evaluation per split seed; the learner seed follows the split seed."""
    examples = build_examples(data.perf, data.feature_map(stage), shift)
    results = []
    for s in split_seeds:
        assignment = make_split(strategy, data.manifest(), test_fraction, s,
                                perf=data.perf)
        model = fit_split(examples, assignment, kind, hyperparams, seed=s)
        results.append(score_split(data, assignment, model, examples, stage,
                                   shift))
    return results


def summarize(results):
    """Both aggregation conventions over a list of EvalResults."""
    imp_pd = [r.imp_pd for r in results]
    imp_default = [r.imp_default for r in results]
    mean_pred = float(np.mean([r.pred_geomean for r in results]))
    mean_pd = float(np.mean([r.pd_geomean for r in results]))
    mean_default = float(np.mean([r.default_geomean for r in results]))
    return {
        "n_splits": len(results),
        "mean_pred_geomean": mean_pred,
        "mean_pd_geomean": mean_pd,
        "mean_default_geomean": mean_default,
        "mean_imp_pd": float(np.mean(imp_pd)),
        "mean_imp_default": float(np.mean(imp_default)),
        "imp_of_mean_pd": improvement(mean_pd, mean_pred),
        "imp_of_mean_default": improvement(mean_default, mean_pred),
    }


def experiment_report_csv(results):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["split_seed", "stage", "kind", "pd_config", "default_geomean",
                "pd_geomean", "pi_geomean", "pred_geomean", "imp_default",
                "imp_pd"])
    for r in results:
        w.writerow([r.split_seed, r.stage.value, r.kind, str(r.pd_config),
                    f"{r.default_geomean:.6f}", f"{r.pd_geomean:.6f}",
                    f"{r.pi_geomean:.6f}", f"{r.pred_geomean:.6f}",
                    format_pct(r.imp_default), format_pct(r.imp_pd)])
    s = summarize(results)
    w.writerow([])
    w.writerow(["mean", "", "", "", f"{s['mean_default_geomean']:.6f}",
                f"{s['mean_pd_geomean']:.6f}", "",
                f"{s['mean_pred_geomean']:.6f}",
                format_pct(s["mean_imp_default"]),
                format_pct(s["mean_imp_pd"])])
    return buf.getvalue()


def experiment_report_text(results, label=""):
    s = summarize(results)
    lines = [
        f"{'Run':<22} {'Pred.':>10} {'PD Best':>10} {'Default':>10} "
        f"{'Imp.Def':>9} {'Imp.PD':>9}",
    ]
    for r in results:
        lines.append(
            f"{label + ' seed ' + str(r.split_seed):<22} "
            f"{r.pred_geomean:>10.4f} {r.pd_geomean:>10.4f} "
            f"{r.default_geomean:>10.4f} {format_pct(r.imp_default):>9} "
            f"{format_pct(r.imp_pd):>9}")
    lines.append(
        f"{'mean of improvements':<22} {s['mean_pred_geomean']:>10.4f} "
        f"{s['mean_pd_geomean']:>10.4f} {s['mean_default_geomean']:>10.4f} "
        f"{format_pct(s['mean_imp_default']):>9} "
        f"{format_pct(s['mean_imp_pd']):>9}")
    lines.append(
        f"{'improvement of means':<22} {'':>10} {'':>10} {'':>10} "
        f"{format_pct(s['imp_of_mean_default']):>9} "
        f"{format_pct(s['imp_of_mean_pd']):>9}")
    return "\n".join(lines) + "\n"


def suitability_rows(perf, shift=DEFAULT_SHIFT, name="dataset"):
    """One suitability row: instance count, PD/PI improvements, headroom."""
    b = baselines(perf.time_matrix(), shift)
    return {
        "dataset": name,
        "instance_count": len(perf.instances()),
        "pd_best_config": str(perf.configs()[b.pd_col]),
        "imp_pd_best": b.imp_pd,
        "imp_pi_best": b.imp_pi,
        "imp_upper_bound": b.headroom,
    }


def suitability_report_text(rows):
    lines = [f"{'Dataset':<16} {'Instance Cnt.':>13} {'PD Best (%)':>12} "
             f"{'PI Best (%)':>12} {'Imp. UB (%)':>12}"]
    for r in rows:
        lines.append(f"{r['dataset']:<16} {r['instance_count']:>13} "
                     f"{format_pct(r['imp_pd_best']):>12} "
                     f"{format_pct(r['imp_pi_best']):>12} "
                     f"{format_pct(r['imp_upper_bound']):>12}")
    return "\n".join(lines) + "\n"


def suitability_report_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["dataset", "instance_count", "pd_best_config", "imp_pd_best",
                "imp_pi_best", "imp_upper_bound"])
    for r in rows:
        w.writerow([r["dataset"], r["instance_count"], r["pd_best_config"],
                    format_pct(r["imp_pd_best"]), format_pct(r["imp_pi_best"]),
                    format_pct(r["imp_upper_bound"])])
    return buf.getvalue()
