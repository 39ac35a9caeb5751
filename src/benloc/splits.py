"""Dataset manifest and train/test splitting strategies.

split_by_instance allocates whole permutation families to one side, which is
the recommended, leakage-free strategy.  split_by_permutation assigns each
permuted instance independently; it is implemented deliberately so the
leakage inflation can be measured and reported.  stratified_split is a
family-level split that balances per-family best-configuration labels and
default solve-time quartiles across the two sides.  All three take their
test side from pick_test_units, so each gives the exact test share.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .instance import read_file
from .metrics import DEFAULT_SHIFT, baselines

STRATEGIES = ("by_instance", "by_permutation", "stratified")


class SplitError(ValueError):
    pass


def _json_object(text, what, keys):
    """The JSON object of text; anything else, or one missing a key, is
    refused."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"{what} is not a JSON object")
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} lacks key {key!r}")
    return d


@dataclass
class DatasetManifest:
    """Names the permuted instance files of each family plus sidecar stores."""

    name: str
    families: dict  # family id -> {seed: path}
    perf_path: str | None = None
    log_dir: str | None = None

    def pairs(self):
        return sorted((f, int(s)) for f, seeds in self.families.items()
                      for s in seeds)

    def family_ids(self):
        return sorted(self.families)

    def validate(self):
        """Refuse the manifest if a file it names does not exist."""
        for fam, seeds in self.families.items():
            for s, path in seeds.items():
                if not os.path.exists(path):
                    raise FileNotFoundError(f"{fam} seed {s}: {path}")
        for p in (self.perf_path, self.log_dir):
            if p and not os.path.exists(p):
                raise FileNotFoundError(p)

    def to_json(self):
        return json.dumps({
            "name": self.name,
            "families": {f: {str(s): p for s, p in seeds.items()}
                         for f, seeds in self.families.items()},
            "perf_path": self.perf_path,
            "log_dir": self.log_dir,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = _json_object(text, "manifest", ("name", "families"))
        if not isinstance(d["families"], dict):
            raise ValueError("manifest 'families' is not a JSON object")
        families = {}
        for f, seeds in d["families"].items():
            if not (isinstance(seeds, dict)
                    and all(isinstance(p, str) for p in seeds.values())):
                raise ValueError(f"manifest family {f!r} is not an object "
                                 f"of seed -> path")
            if not seeds:
                raise ValueError(f"manifest family {f!r} has no seeds")
            families[f] = {}
            for s, p in seeds.items():
                try:
                    families[f][int(s)] = p
                except ValueError:
                    raise ValueError(f"manifest family {f!r} seed {s!r} is "
                                     f"not an integer") from None
            if len(families[f]) != len(seeds):
                raise ValueError(f"manifest family {f!r} repeats a seed")
        for key in ("perf_path", "log_dir"):
            if not isinstance(d.get(key), (str, type(None))):
                raise ValueError(f"manifest {key!r} is not a string or null")
        return cls(
            name=d["name"],
            families=families,
            perf_path=d.get("perf_path"),
            log_dir=d.get("log_dir"),
        )

    @classmethod
    def read(cls, path):
        """The manifest at path, its relative paths resolved against the
        manifest's directory (absolute paths are kept)."""
        m = read_file(path, cls.from_json)
        base = os.path.dirname(path)

        def resolve(p):
            return p and os.path.join(base, p)

        m.families = {f: {s: resolve(p) for s, p in seeds.items()}
                      for f, seeds in m.families.items()}
        m.perf_path = resolve(m.perf_path)
        m.log_dir = resolve(m.log_dir)
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
        d = _json_object(text, "split", ("train", "test", "strategy", "seed",
                                         "test_fraction"))
        for side in ("train", "test"):
            if not (isinstance(d[side], list) and all(
                    isinstance(p, list) and len(p) == 2
                    and isinstance(p[0], str) and type(p[1]) is int
                    for p in d[side])):
                raise ValueError(f"split {side!r} is not a list of "
                                 f"[family, seed] pairs")
        # a bool is no seed, and NaN is in no interval
        for key, ok, what in (
                ("strategy", STRATEGIES.__contains__,
                 f"one of {', '.join(STRATEGIES)}"),
                ("seed", lambda v: type(v) is int, "an int"),
                ("test_fraction", lambda v: type(v) in (int, float)
                 and 0 < v < 1, "a number in (0, 1)")):
            if not ok(d[key]):
                raise ValueError(f"split {key!r} is not {what}")
        return cls(train=[tuple(p) for p in d["train"]],
                   test=[tuple(p) for p in d["test"]],
                   strategy=d["strategy"], seed=d["seed"],
                   test_fraction=d["test_fraction"])


def require_families(families):
    """families, refused when fewer than two: a split needs one per side."""
    if len(families) < 2:
        raise SplitError("need at least 2 families")
    return families


def pick_test_units(strata, test_fraction, rng):
    """The test side of a split: the one allocator of every strategy.

    strata maps a key to its list of units.  In total clamp(round(f * n), 1,
    n - 1) of the n units go to test; each stratum gets floor(f * size), and
    the units left over go to the largest fractional remainders (ties: the
    earlier key).  Strata are visited in sorted key order, each drawing one
    rng.permutation of its members and taking that many from its front.
    """
    if not 0 < test_fraction < 1:
        raise SplitError(f"test_fraction must be in (0, 1), got {test_fraction}")
    keys = sorted(strata)
    shares = [test_fraction * len(strata[k]) for k in keys]
    n = sum(len(strata[k]) for k in keys)
    counts = [math.floor(x) for x in shares]
    left = min(max(round(test_fraction * n), 1), n - 1) - sum(counts)
    by_remainder = sorted(range(len(keys)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:left]:  # the sort is stable: earlier keys win ties
        counts[i] += 1
    test = []
    for key, count in zip(keys, counts):
        members = strata[key]
        test += [members[i] for i in rng.permutation(len(members))[:count]]
    return test


def _family_split(manifest, test_fams, strategy, seed, test_fraction):
    test_fams = set(test_fams)
    train, test = [], []
    for f, s in manifest.pairs():
        (test if f in test_fams else train).append((f, s))
    return SplitAssignment(train, test, strategy, seed, test_fraction)


def split_by_instance(manifest, test_fraction=0.2, seed=0):
    """Whole families go to one side; no permutation of a test problem is
    ever seen in training."""
    fams = require_families(manifest.family_ids())
    test_fams = pick_test_units({0: fams}, test_fraction,
                                np.random.default_rng(seed))
    return _family_split(manifest, test_fams, "by_instance", seed,
                         test_fraction)


def split_by_permutation(manifest, test_fraction=0.2, seed=0):
    """Each permuted instance assigned independently. Leaks family structure
    across the split; kept so the inflation is measurable."""
    require_families(manifest.family_ids())
    pairs = manifest.pairs()
    test = pick_test_units({0: pairs}, test_fraction,
                           np.random.default_rng(seed))
    train = set(pairs) - set(test)
    return SplitAssignment(train, test, "by_permutation", seed, test_fraction)


def stratified_split(manifest, perf, test_fraction=0.2, seed=0):
    """Family-level split stratified by (family best-config label, default
    solve-time quartile), so both sides see similar label proportions."""
    if perf is None:
        raise SplitError("stratified_split needs a performance table")
    fams = require_families(manifest.family_ids())
    # rows in the manifest's seed order, which each family's geomeans sum in
    times = perf.time_matrix([(f, s) for f in fams
                              for s in manifest.families[f]])
    configs = perf.configs()
    sizes = [len(manifest.families[f]) for f in fams]
    labels, log_times = [], []
    for block in np.split(times, np.cumsum(sizes)[:-1]):
        b = baselines(block)
        labels.append(str(configs[b.pd_col]))
        log_times.append(math.log(b.default + DEFAULT_SHIFT))
    quartiles = np.quantile(log_times, [0.25, 0.5, 0.75])
    buckets = np.searchsorted(quartiles, log_times, side="right")
    strata = {}
    for fam, label, bucket in zip(fams, labels, buckets):
        strata.setdefault((label, int(bucket)), []).append(fam)
    test_fams = pick_test_units(strata, test_fraction,
                                np.random.default_rng(seed))
    return _family_split(manifest, test_fams, "stratified", seed,
                         test_fraction)


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
