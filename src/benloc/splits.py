"""Dataset manifest and train/test splitting strategies.

split_by_instance allocates whole permutation families to one side, which is
the recommended, leakage-free strategy.  split_by_permutation assigns each
permuted instance independently; it is implemented deliberately so the
leakage inflation can be measured and reported.  stratified_split is a
family-level split that balances per-family best-configuration labels and
default solve-time quartiles across the two sides.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .metrics import DEFAULT_SHIFT, ConfigId, pd_best, shifted_geomean

STRATEGIES = ("by_instance", "by_permutation", "stratified")


class SplitError(ValueError):
    pass


@dataclass
class DatasetManifest:
    """Names the permuted instance files of each family plus sidecar stores."""

    name: str
    families: dict  # family id -> {seed: path}
    perf_path: str | None = None
    log_dir: str | None = None
    feature_path: str | None = None

    def pairs(self):
        return sorted((f, int(s)) for f, seeds in self.families.items()
                      for s in seeds)

    def family_ids(self):
        return sorted(self.families)

    def validate(self, check_files=True):
        for fam, seeds in self.families.items():
            if len(set(seeds)) != len(seeds):
                raise ValueError(f"duplicate seeds in family {fam!r}")
            if check_files:
                for s, path in seeds.items():
                    if not os.path.exists(path):
                        raise FileNotFoundError(f"{fam} seed {s}: {path}")
        if check_files:
            for p in (self.perf_path, self.log_dir, self.feature_path):
                if p and not os.path.exists(p):
                    raise FileNotFoundError(p)

    def to_json(self):
        return json.dumps({
            "name": self.name,
            "families": {f: {str(s): p for s, p in seeds.items()}
                         for f, seeds in self.families.items()},
            "perf_path": self.perf_path,
            "log_dir": self.log_dir,
            "feature_path": self.feature_path,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            name=d["name"],
            families={f: {int(s): p for s, p in seeds.items()}
                      for f, seeds in d["families"].items()},
            perf_path=d.get("perf_path"),
            log_dir=d.get("log_dir"),
            feature_path=d.get("feature_path"),
        )

    @classmethod
    def read(cls, path):
        """The manifest at path, its relative paths resolved against the
        manifest's directory (absolute paths are kept)."""
        with open(path) as fh:
            m = cls.from_json(fh.read())
        base = os.path.dirname(path)

        def resolve(p):
            return p and os.path.join(base, p)

        m.families = {f: {s: resolve(p) for s, p in seeds.items()}
                      for f, seeds in m.families.items()}
        m.perf_path = resolve(m.perf_path)
        m.log_dir = resolve(m.log_dir)
        m.feature_path = resolve(m.feature_path)
        return m


@dataclass
class SplitAssignment:
    train: list  # of (family, seed)
    test: list
    strategy: str
    seed: int
    test_fraction: float

    def __post_init__(self):
        self.train = sorted((f, int(s)) for f, s in self.train)
        self.test = sorted((f, int(s)) for f, s in self.test)
        if set(self.train) & set(self.test):
            raise SplitError("train and test overlap")

    def train_families(self):
        return sorted({f for f, _ in self.train})

    def test_families(self):
        return sorted({f for f, _ in self.test})

    def family_overlap(self):
        return len(set(self.train_families()) & set(self.test_families()))

    def leakage_fraction(self):
        """Fraction of test pairs whose family also appears in training."""
        if not self.test:
            return 0.0
        train_fams = set(self.train_families())
        leaked = sum(1 for f, _ in self.test if f in train_fams)
        return leaked / len(self.test)

    def covers(self, manifest):
        return set(self.train) | set(self.test) == set(manifest.pairs())

    def to_json(self):
        return json.dumps({
            "strategy": self.strategy,
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "train": [[f, s] for f, s in self.train],
            "test": [[f, s] for f, s in self.test],
        }, indent=2)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(train=[tuple(p) for p in d["train"]],
                   test=[tuple(p) for p in d["test"]],
                   strategy=d["strategy"], seed=d["seed"],
                   test_fraction=d["test_fraction"])


def _check_fraction(test_fraction):
    if not 0 < test_fraction < 1:
        raise SplitError(f"test_fraction must be in (0, 1), got {test_fraction}")


def _clamp_count(n_total, n_test):
    return min(max(n_test, 1), n_total - 1)


def split_by_instance(manifest, test_fraction=0.2, seed=0):
    """Whole families go to one side; no permutation of a test problem is
    ever seen in training."""
    _check_fraction(test_fraction)
    fams = manifest.family_ids()
    if len(fams) < 2:
        raise SplitError("need at least 2 families")
    rng = np.random.default_rng(seed)
    order = [fams[i] for i in rng.permutation(len(fams))]
    n_test = _clamp_count(len(fams), round(test_fraction * len(fams)))
    test_fams = set(order[:n_test])
    train, test = [], []
    for f, s in manifest.pairs():
        (test if f in test_fams else train).append((f, s))
    return SplitAssignment(train, test, "by_instance", seed, test_fraction)


def split_by_permutation(manifest, test_fraction=0.2, seed=0):
    """Each permuted instance assigned independently. Leaks family structure
    across the split; kept so the inflation is measurable."""
    _check_fraction(test_fraction)
    pairs = manifest.pairs()
    if len({f for f, _ in pairs}) < 2:
        raise SplitError("need at least 2 families")
    rng = np.random.default_rng(seed)
    order = [pairs[i] for i in rng.permutation(len(pairs))]
    n_test = _clamp_count(len(pairs), round(test_fraction * len(pairs)))
    test = order[:n_test]
    train = order[n_test:]
    return SplitAssignment(train, test, "by_permutation", seed, test_fraction)


def stratified_split(manifest, perf, test_fraction=0.2, seed=0,
                     shift=DEFAULT_SHIFT, n_buckets=4):
    """Family-level split stratified by (family best-config label, default
    solve-time quartile), so both sides see similar label proportions."""
    _check_fraction(test_fraction)
    if perf is None:
        raise SplitError("stratified_split needs a performance table")
    fams = manifest.family_ids()
    if len(fams) < 2:
        raise SplitError("need at least 2 families")

    default = ConfigId.default()
    labels = {}
    log_times = {}
    for fam in fams:
        pairs = [(fam, s) for s in manifest.families[fam]]
        labels[fam] = pd_best(perf, shift, instances=pairs)
        log_times[fam] = math.log(
            shifted_geomean(perf.times_for_config(default, pairs), shift) + shift)

    values = np.array([log_times[f] for f in fams])
    qs = np.quantile(values, np.linspace(0, 1, n_buckets + 1)[1:-1])

    strata = {}
    for fam in fams:
        bucket = int(np.searchsorted(qs, log_times[fam], side="right"))
        strata.setdefault((str(labels[fam]), bucket), []).append(fam)

    rng = np.random.default_rng(seed)
    test_fams = set()
    for key in sorted(strata):
        members = strata[key]
        order = [members[i] for i in rng.permutation(len(members))]
        n_test = round(test_fraction * len(members))
        test_fams.update(order[:n_test])
    # keep both sides nonempty at the family level
    all_order = [fams[i] for i in rng.permutation(len(fams))]
    if not test_fams:
        test_fams.add(all_order[0])
    if len(test_fams) == len(fams):
        test_fams.discard(all_order[-1])

    train, test = [], []
    for f, s in manifest.pairs():
        (test if f in test_fams else train).append((f, s))
    return SplitAssignment(train, test, "stratified", seed, test_fraction)


def make_split(strategy, manifest, test_fraction=0.2, seed=0, perf=None):
    """Split with the named strategy; perf is needed only by stratified."""
    # names resolve at call time, so a wrapped module attribute is seen
    if strategy == "by_instance":
        return split_by_instance(manifest, test_fraction, seed)
    if strategy == "by_permutation":
        return split_by_permutation(manifest, test_fraction, seed)
    if strategy == "stratified":
        return stratified_split(manifest, perf, test_fraction, seed)
    raise SplitError(f"unknown split strategy {strategy!r}; "
                     f"choose from {', '.join(STRATEGIES)}")
