"""Span tracing of benloc's layers from outside the library.

A Tracer replaces the entry points of each benloc module with thin
``time.perf_counter`` wrappers while it is installed, and restores the
originals afterwards.  The benchmark installs it only around traced set-ups and
passes, so untraced passes and every check call the library unmodified.

Names are replaced wherever they are looked up, not only where they are
defined: ``benloc.report`` and ``benloc.cli`` import ``predict_config``,
``train`` and friends by name, so every ``benloc`` module attribute that is the
original function is swapped for the wrapper.  Methods are wrapped on their
class, which covers every caller.

Only the functions that other modules (or the benchmark) call are wrapped.
Helpers called from inside their own module, such as ``classify_constraint``
or ``MipInstance.row_entries`` under ``extract_static``, are covered by the
span of their caller; wrapping them would add a span per constraint row.

A span is ``[name, start, end, parent, size]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``size`` the instance nnz for the parse and
feature spans, used for the log-log slope.  The benchmark opens one root span
per set-up (``setup``) and per pass (``pass``); every library span belongs to
the phase of its root.  Spans are kept in memory and written by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager

# module -> {public function: span name}.  Several functions may share a span
# name; nested spans of one name are fine because metrics use self time.
FUNCTIONS = {
    "instance": {
        "parse_mps": "instance.parse",
        "write_mps": "instance.write",
        "permute_instance": "instance.permute",
        "apply_permutation": "instance.permute",
    },
    "static_features": {"extract_static": "static_features.extract"},
    "graph": {
        "build_graph": "graph.signature",
        "canonical_signature": "graph.signature",
    },
    "logs": {
        "parse_log": "logs.parse",
        "dynamic_features": "logs.dynamic_features",
        "assemble_features": "logs.dynamic_features",
    },
    "metrics": {
        "pd_best": "metrics.baselines",
        "pd_best_geomean": "metrics.baselines",
        "pi_best": "metrics.baselines",
        "shifted_geomean": "metrics.baselines",
        "improvement_upper_bound": "metrics.baselines",
    },
    "splits": {
        "split_by_instance": "splits.split",
        "split_by_permutation": "splits.split",
        "stratified_split": "splits.split",
    },
    "learners": {
        "make_labels": "learners.build_examples",
        "build_examples": "learners.build_examples",
        "train": "learners.train",
        "predict_config": "learners.predict_config",
    },
    "dataset": {
        "build_oracle_dataset": "dataset.build_oracle",
        "write_dataset": "dataset.write",
        "load_dataset": "dataset.load",
    },
    "synth": {
        "gen_setcover": "synth.generate",
        "gen_indset": "synth.generate",
        "oracle_times": "synth.generate",
        "planted_optimum": "synth.generate",
    },
    "report": {
        "run_experiment": "report.evaluate_split",
        "evaluate_split": "report.evaluate_split",
    },
}

# (module, class) -> {method: span name}
METHODS = {
    ("forest", "RandomForest"): {"fit": "forest.fit", "predict": "forest.predict"},
    ("learners", "TrainedSelector"): {"to_json": "learners.model_write",
                                      "from_json": "learners.model_read"},
}

# (module, class, method) -> counter; calls are counted without a span, for
# lookups too small and too frequent to time one by one
COUNTED = {("metrics", "PerfTable", "time"): "metrics.perf_time_calls"}

# per-layer metric -> (unit, what it measures); the order is the print order.
# Plain names are per pass; dataset.build_oracle_s, synth.generate_s and
# setup.forest.fit_s are per set-up, the only phase those layers run in.
LAYER_METRICS = {
    "instance.parse_s": ("s", "self time of parse_mps"),
    "instance.parse_calls": ("count", "parse_mps calls"),
    "instance.parse_mb": ("MB", "MPS text parsed"),
    "instance.parse_slope": ("ratio", "log-log slope of parse time against nnz"),
    "instance.write_s": ("s", "self time of write_mps"),
    "instance.permute_s": ("s", "self time of permute_instance"),
    "static_features.extract_s": ("s", "self time of extract_static"),
    "static_features.nnz": ("count", "nnz passed to extract_static"),
    "static_features.extract_slope": ("ratio",
                                      "log-log slope of extract time against nnz"),
    "graph.signature_s": ("s", "self time of build_graph + canonical_signature"),
    "logs.parse_s": ("s", "self time of parse_log"),
    "logs.parse_calls": ("count", "parse_log calls"),
    "logs.dynamic_features_s": ("s", "self time of dynamic/assemble_features"),
    "metrics.baselines_s": ("s", "self time of pd_best/pi_best/shifted_geomean"),
    "metrics.perf_time_calls": ("count", "PerfTable.time lookups"),
    "splits.split_s": ("s", "self time of the splitters"),
    "learners.build_examples_s": ("s", "self time of build_examples/make_labels"),
    "learners.train_s": ("s", "self time of train"),
    "report.evaluate_split_s": ("s", "self time of run_experiment/evaluate_split"),
    "forest.fit_s": ("s", "self time of RandomForest.fit"),
    "forest.trees": ("count", "trees fitted"),
    "forest.nodes": ("count", "tree nodes fitted"),
    "forest.fit_us_per_node": ("us", "forest.fit_s per fitted node"),
    "forest.predict_s": ("s", "self time of RandomForest.predict"),
    "forest.predict_calls": ("count", "RandomForest.predict calls"),
    "forest.predict_rows": ("count", "rows passed to RandomForest.predict"),
    "learners.predict_config_s": ("s", "self time of predict_config"),
    "learners.predict_calls": ("count", "predict_config calls"),
    "learners.model_write_s": ("s", "self time of TrainedSelector.to_json"),
    "learners.model_read_s": ("s", "self time of TrainedSelector.from_json"),
    "learners.model_bytes": ("bytes", "size of the serialized model"),
    "dataset.write_s": ("s", "self time of write_dataset"),
    "dataset.files_written": ("count", "files written by write_dataset"),
    "dataset.bytes_written": ("bytes", "bytes written by write_dataset"),
    "dataset.load_s": ("s", "self time of load_dataset"),
    "dataset.build_oracle_s": ("s", "self time of build_oracle_dataset per set-up"),
    "synth.generate_s": ("s", "self time of the generators and oracle per set-up"),
    "setup.forest.fit_s": ("s", "self time of RandomForest.fit per set-up"),
    "trace.pass_s": ("s", "median traced pass"),
    "trace.unattributed_s": ("s", "pass time outside every library span"),
    "trace.overhead_frac": ("fraction", "traced pass_s / untraced pass_s - 1"),
}

_SETUP_SCOPED = {"dataset.build_oracle_s": "dataset.build_oracle",
                 "synth.generate_s": "synth.generate",
                 "setup.forest.fit_s": "forest.fit"}


def _dir_usage(path):
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, n))
    return files, size


def _after_parse(tracer, rec, args, result):
    rec[4] = result.nnz
    tracer.count("instance.parse_calls")
    tracer.count("instance.parse_mb", len(args[0]) / 1e6)


def _after_extract(tracer, rec, args, result):
    rec[4] = args[0].nnz
    tracer.count("static_features.nnz", args[0].nnz)


def _after_fit(tracer, rec, args, result):
    tracer.count("forest.trees", len(result.trees))
    tracer.count("forest.nodes", sum(len(t.feature) for t in result.trees))


def _after_predict(tracer, rec, args, result):
    tracer.count("forest.predict_calls")
    tracer.count("forest.predict_rows", len(result))


def _after_write_dataset(tracer, rec, args, result):
    files, size = _dir_usage(args[1])
    tracer.count("dataset.files_written", files)
    tracer.count("dataset.bytes_written", size)


AFTER = {
    "parse_mps": _after_parse,
    "extract_static": _after_extract,
    "parse_log": lambda t, r, a, res: t.count("logs.parse_calls"),
    "predict_config": lambda t, r, a, res: t.count("learners.predict_calls"),
    "write_dataset": _after_write_dataset,
    "RandomForest.fit": _after_fit,
    "RandomForest.predict": _after_predict,
    "TrainedSelector.to_json": lambda t, r, a, res: t.count(
        "learners.model_bytes", len(res)),
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # (phase, key) -> value
        self._parent = -1
        self._phase = None
        self._restore = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name):
        """Record a span around the block; a root span names the phase."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._parent, None]
        self.spans.append(rec)
        outer_phase = self._phase
        if self._parent < 0:
            self._phase = name
        self._parent = idx
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._parent = rec[3]
            self._phase = outer_phase

    def count(self, key, value=1):
        k = (self._phase, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, rec, args, result)
            return result

        return traced

    def _wrap_count(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    # -- installing ---------------------------------------------------------

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        """Wrap the entry points of every benloc module, where looked up."""
        importlib.import_module("benloc.cli")  # so its by-name imports are patched
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "benloc" or n.startswith("benloc."))]
        replace = {}
        for mod_name, funcs in FUNCTIONS.items():
            mod = sys.modules[f"benloc.{mod_name}"]
            for fname, span_name in funcs.items():
                fn = getattr(mod, fname)
                replace[id(fn)] = (fn, self._wrap(fn, span_name, AFTER.get(fname)))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"benloc.{mod_name}"], cls_name)
            for meth, span_name in methods.items():
                self._patch_method(cls, meth, lambda fn: self._wrap(
                    fn, span_name, AFTER.get(f"{cls_name}.{meth}")))
        for (mod_name, cls_name, meth), key in COUNTED.items():
            cls = getattr(sys.modules[f"benloc.{mod_name}"], cls_name)
            self._patch_method(cls, meth, lambda fn: self._wrap_count(fn, key))

    def _patch_method(self, cls, meth, make):
        orig = cls.__dict__[meth]
        if isinstance(orig, classmethod):
            new = classmethod(make(orig.__func__))
        else:
            new = make(orig)
        self._restore.append((cls, meth, orig))
        setattr(cls, meth, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- reporting ----------------------------------------------------------

    def _self_times(self):
        """Per span: (phase, self time); self = duration minus direct children."""
        n = len(self.spans)
        child = [0.0] * n
        root = [0] * n
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        return [(self.spans[root[i]][0], s[2] - s[1] - child[i])
                for i, s in enumerate(self.spans)]

    def _slope(self, span_name, selfs):
        """Least-squares slope of log(self time) on log(nnz), per distinct nnz."""
        by_size = {}
        for rec, (phase, t) in zip(self.spans, selfs):
            if rec[0] == span_name and phase == "pass" and rec[4] and t > 0:
                by_size.setdefault(rec[4], []).append(t)
        if len(by_size) < 2:
            return 0.0
        xs = [math.log(k) for k in by_size]
        ys = [math.log(statistics.median(v)) for v in by_size.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx

    def layer_metrics(self, untraced_pass_times):
        """Every LAYER_METRICS entry, from the recorded spans and counters."""
        selfs = self._self_times()
        passes = [s[2] - s[1] for s in self.spans if s[3] < 0 and s[0] == "pass"]
        n_pass = max(len(passes), 1)
        n_setup = max(sum(1 for s in self.spans
                          if s[3] < 0 and s[0] == "setup"), 1)
        self_sum = {}
        for rec, (phase, t) in zip(self.spans, selfs):
            key = (phase, rec[0])
            self_sum[key] = self_sum.get(key, 0.0) + t

        out = {}
        for name in LAYER_METRICS:
            if name in _SETUP_SCOPED:
                out[name] = self_sum.get(("setup", _SETUP_SCOPED[name]), 0.0) / n_setup
            elif name.endswith("_s") and not name.startswith("trace."):
                out[name] = self_sum.get(("pass", name[:-2]), 0.0) / n_pass
            elif name in ("instance.parse_slope", "static_features.extract_slope"):
                out[name] = self._slope(name.rsplit("_", 1)[0], selfs)
            elif not name.startswith(("trace.", "forest.fit_us")):
                out[name] = self.counts.get(("pass", name), 0) / n_pass
        nodes = out["forest.nodes"]
        out["forest.fit_us_per_node"] = (out["forest.fit_s"] / nodes * 1e6
                                         if nodes else 0.0)
        traced = statistics.median(passes) if passes else 0.0
        out["trace.pass_s"] = traced
        out["trace.unattributed_s"] = self_sum.get(("pass", "pass"), 0.0) / n_pass
        untraced = statistics.median(untraced_pass_times)
        out["trace.overhead_frac"] = traced / untraced - 1.0
        return {name: out[name] for name in LAYER_METRICS}

    def dump(self, path, header):
        """Write every span and counter, with the run's provenance."""
        doc = dict(header)
        doc["span_fields"] = ["name", "start", "end", "parent", "nnz"]
        doc["spans"] = self.spans
        doc["counts"] = [[p, k, v] for (p, k), v in sorted(
            self.counts.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]
        with open(path, "w") as fh:
            json.dump(doc, fh)
