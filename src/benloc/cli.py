"""Command-line entry points tying the pipeline together.

Bad input (a ValueError, KeyError or OSError from any command) prints one
``error in <command>: <message>`` line on stderr and exits with status 1.
A library warning shown during a command is one ``warning in <command>:
<message>`` line on stderr.
"""

from __future__ import annotations

import csv
import io
import os
import warnings

import click

from .dataset import (build_oracle_dataset, load_dataset, read_instance,
                      write_dataset)
from .instance import (permute_instance, read_file, read_mps, write_file,
                       write_mps)
from .learners import (MODEL_KINDS, TrainedSelector, build_examples,
                       predict_config)
from .logs import FeatureStage, assemble_features, dynamic_features, parse_log
from .metrics import DEFAULT_SHIFT, PerfTable
from .report import (experiment_report_csv, experiment_report_text,
                     fit_split, format_pct, run_experiment, score_split,
                     suitability_report_csv, suitability_report_text,
                     suitability_rows, summarize)
from .splits import STRATEGIES, DatasetManifest, SplitAssignment, make_split
from .static_features import static_features_csv
from .synth import OracleSpec, gen_indset, gen_setcover

STAGES = {
    "static": FeatureStage.STATIC_ONLY,
    "first_root_lp": FeatureStage.UP_TO_FIRST_ROOT_LP,
    "root_end": FeatureStage.UP_TO_ROOT_END,
}


def _parse_seeds(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


class _Main(click.Group):
    """Reports each warning as one line, and bad input from any command as
    one line and exit status 1."""

    def invoke(self, ctx):
        def say(what, message):
            click.echo(f"{what} in {ctx.invoked_subcommand}: {message}",
                       err=True)
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: say("warning", message)
            try:
                return super().invoke(ctx)
            except (ValueError, KeyError, OSError) as exc:
                say("error", exc.args[0] if isinstance(exc, KeyError)
                    and exc.args else exc)
                ctx.exit(1)


@click.group(cls=_Main)
def main():
    """Benchmark toolkit for learning per-instance MIP optimizer configurations."""


@main.command()
@click.option("--kind", type=click.Choice(["setcover", "indset"]),
              default="setcover", show_default=True)
@click.option("--rows", type=int, default=200, show_default=True)
@click.option("--cols", type=int, default=400, show_default=True)
@click.option("--density", type=float, default=0.05, show_default=True,
              help="Row density (setcover) or edge probability (indset).")
@click.option("--nodes", type=int, default=300, show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--oracle", is_flag=True,
              help="Build a full oracle dataset (instances, logs, perf.csv, "
                   "manifest.json) instead of bare MPS files.")
@click.option("--perms", type=int, default=10, show_default=True,
              help="Permutations per family (oracle mode).")
def synth(kind, rows, cols, density, nodes, count, seed, out_dir, oracle, perms):
    """Generate synthetic instances, optionally with planted oracle labels."""
    if oracle:
        data = build_oracle_dataset(n_families=count, n_perms=perms,
                                    spec=OracleSpec(seed=seed), kind=kind,
                                    seed=seed, keep_instances=True)
        manifest_path = write_dataset(data, out_dir)
        click.echo(f"wrote oracle dataset: {manifest_path}")
        return
    os.makedirs(out_dir, exist_ok=True)
    for k in range(count):
        if kind == "setcover":
            inst = gen_setcover(rows, cols, density, seed + k)
        else:
            inst = gen_indset(nodes, density, seed + k)
        path = os.path.join(out_dir, f"{inst.name}.mps")
        write_file(path, write_mps(inst))
        click.echo(path)


@main.command()
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--seeds", default="0..9", show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def permute(in_path, seeds, out_dir):
    """Write seed-indexed permutations of an MPS file plus JSON records."""
    os.makedirs(out_dir, exist_ok=True)
    inst = read_mps(in_path)
    stem = os.path.splitext(os.path.basename(in_path))[0]
    for s in _parse_seeds(seeds):
        permuted, record = permute_instance(inst, s)
        mps_path = os.path.join(out_dir, f"{stem}.perm{s}.mps")
        write_file(mps_path, write_mps(permuted))
        write_file(os.path.join(out_dir, f"{stem}.perm{s}.json"),
                   record.to_json())
        click.echo(mps_path)


@main.command()
@click.option("--mps", "mps_paths", type=click.Path(exists=True), multiple=True)
@click.option("--manifest", "manifest_path", type=click.Path(exists=True))
@click.option("--stage", type=click.Choice(sorted(STAGES)), default="static",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def features(mps_paths, manifest_path, stage, out_path):
    """Extract features to CSV (static stage works from MPS files alone)."""
    stage = STAGES[stage]
    if manifest_path:
        data = load_dataset(manifest_path)
        fmap = data.feature_map(stage)
        keys = sorted(fmap)
        names = fmap[keys[0]][0] if keys else []
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["family", "seed"] + list(names))
        for f, s in keys:
            w.writerow([f, s] + [repr(float(v)) for v in fmap[(f, s)][1]])
        write_file(out_path, buf.getvalue())
    else:
        if stage != FeatureStage.STATIC_ONLY:
            raise ValueError("dynamic stages need --manifest with logs")
        rows = [(os.path.basename(path), read_instance(path)[1])
                for path in mps_paths]
        write_file(out_path, static_features_csv(rows))
    click.echo(out_path)


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(exists=True),
              required=True)
@click.option("--strategy", type=click.Choice(STRATEGIES),
              default="by_instance", show_default=True)
@click.option("--test-frac", type=float, default=0.2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--perf", "perf_path", type=click.Path(exists=True),
              help="perf.csv (required by the stratified strategy).")
@click.option("--out", "out_path", type=click.Path(), required=True)
def split(manifest_path, strategy, test_frac, seed, perf_path, out_path):
    """Produce a train/test SplitAssignment as JSON."""
    manifest = DatasetManifest.read(manifest_path)
    perf = None
    perf_path = perf_path or manifest.perf_path
    if perf_path:
        perf = read_file(perf_path, PerfTable.from_csv)
    assignment = make_split(strategy, manifest, test_frac, seed, perf=perf)
    write_file(out_path, assignment.to_json())
    click.echo(f"train={len(assignment.train)} test={len(assignment.test)} "
               f"family_overlap={assignment.family_overlap()} "
               f"leakage={assignment.leakage_fraction():.3f}")


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(exists=True),
              required=True)
@click.option("--split", "split_path", type=click.Path(exists=True),
              required=True)
@click.option("--stage", type=click.Choice(sorted(STAGES)), default="static",
              show_default=True)
@click.option("--kind", type=click.Choice(MODEL_KINDS),
              default="reg_forest", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--shift", type=float, default=DEFAULT_SHIFT, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def train(manifest_path, split_path, stage, kind, seed, shift, out_path):
    """Train a configuration selector on the training side of a split."""
    data = load_dataset(manifest_path)
    assignment = read_file(split_path, SplitAssignment.from_json)
    examples = build_examples(data.perf, data.feature_map(STAGES[stage]), shift)
    model = fit_split(examples, assignment, kind, seed=seed)
    write_file(out_path, model.to_json())
    click.echo(out_path)


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True),
              required=True)
@click.option("--mps", "mps_path", type=click.Path(exists=True), required=True)
@click.option("--log", "log_path", type=click.Path(exists=True))
@click.option("--stage", type=click.Choice(sorted(STAGES)), default="static",
              show_default=True)
def predict(model_path, mps_path, log_path, stage):
    """Predict the configuration for a single instance."""
    model = read_file(model_path, TrainedSelector.from_json)
    static = read_instance(mps_path)[1]
    dyn = (dynamic_features([read_file(log_path, parse_log)]) if log_path
           else None)
    names, X = assemble_features([static], dyn, STAGES[stage])
    click.echo(str(predict_config(model, X[0], feature_names=names)))


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(exists=True),
              required=True)
@click.option("--model", "model_path", type=click.Path(exists=True),
              required=True)
@click.option("--split", "split_path", type=click.Path(exists=True),
              required=True)
@click.option("--stage", type=click.Choice(sorted(STAGES)), default="static",
              show_default=True)
@click.option("--shift", type=float, default=DEFAULT_SHIFT, show_default=True)
def evaluate(manifest_path, model_path, split_path, stage, shift):
    """Evaluate a trained model on the test side of a split."""
    stage = STAGES[stage]
    data = load_dataset(manifest_path)
    model = read_file(model_path, TrainedSelector.from_json)
    assignment = read_file(split_path, SplitAssignment.from_json)
    examples = build_examples(data.perf, data.feature_map(stage), shift)
    r = score_split(data, assignment, model, examples, stage, shift)
    click.echo(f"pred={r.pred_geomean:.4f} default={r.default_geomean:.4f} "
               f"pd_best={r.pd_geomean:.4f} ({r.pd_config}) "
               f"pi_best={r.pi_geomean:.4f}")
    click.echo(f"imp_default={format_pct(r.imp_default)} "
               f"imp_pd_best={format_pct(r.imp_pd)}")


@main.command()
@click.option("--perf", "perf_path", type=click.Path(exists=True), required=True)
@click.option("--name", default="dataset", show_default=True)
@click.option("--shift", type=float, default=DEFAULT_SHIFT, show_default=True)
@click.option("--out-csv", type=click.Path())
def suitability(perf_path, name, shift, out_csv):
    """Dataset suitability: PD-best / PI-best improvements and the headroom."""
    perf = read_file(perf_path, PerfTable.from_csv)
    rows = [suitability_rows(perf, shift, name)]
    click.echo(suitability_report_text(rows), nl=False)
    if out_csv:
        write_file(out_csv, suitability_report_csv(rows))


@main.command()
@click.option("--manifest", "manifest_path", type=click.Path(exists=True),
              required=True)
@click.option("--stage", type=click.Choice(sorted(STAGES)), default="static",
              show_default=True)
@click.option("--kind", type=click.Choice(MODEL_KINDS),
              default="reg_forest", show_default=True)
@click.option("--strategy", type=click.Choice(STRATEGIES),
              default="by_instance", show_default=True)
@click.option("--seeds", default="0..4", show_default=True)
@click.option("--test-frac", type=float, default=0.2, show_default=True)
@click.option("--shift", type=float, default=DEFAULT_SHIFT, show_default=True)
@click.option("--n-trees", type=int, default=50, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def pipeline(manifest_path, stage, kind, strategy, seeds, test_frac, shift,
             n_trees, out_dir):
    """Full pass: features, split, train, predict, evaluate, report."""
    os.makedirs(out_dir, exist_ok=True)
    data = load_dataset(manifest_path)
    results = run_experiment(data, STAGES[stage], kind=kind, strategy=strategy,
                             split_seeds=_parse_seeds(seeds),
                             test_fraction=test_frac,
                             hyperparams={"n_trees": n_trees}, shift=shift)
    csv_path = os.path.join(out_dir, "report_per_seed.csv")
    write_file(csv_path, experiment_report_csv(results))
    txt_path = os.path.join(out_dir, "report.txt")
    write_file(txt_path, experiment_report_text(results, label=kind))
    s = summarize(results)
    click.echo(f"mean imp over Default: {format_pct(s['mean_imp_default'])}; "
               f"mean imp over PD best: {format_pct(s['mean_imp_pd'])}")
    click.echo(csv_path)
    click.echo(txt_path)


if __name__ == "__main__":
    main()
