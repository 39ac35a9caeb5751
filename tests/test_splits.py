import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benloc.metrics import (DEFAULT_SHIFT, ConfigId, PerfTable, pd_best,
                            shifted_geomean)
from benloc.splits import (STRATEGIES, DatasetManifest, SplitAssignment,
                           SplitError, make_split, pick_test_units,
                           split_by_instance, split_by_permutation,
                           stratified_split)


def make_manifest(n_families=10, n_seeds=10):
    families = {f"fam{i:02d}": {s: f"fam{i:02d}.perm{s}.mps"
                                for s in range(n_seeds)}
                for i in range(n_families)}
    return DatasetManifest(name="toy", families=families)


class TestManifest:
    def test_pairs_and_validation(self, tmp_path):
        m = make_manifest(3, 2)
        assert len(m.pairs()) == 6
        m.families = {f: {s: str(tmp_path / p) for s, p in seeds.items()}
                      for f, seeds in m.families.items()}
        for seeds in m.families.values():
            for path in seeds.values():
                open(path, "w").close()
        m.validate()

    def test_missing_file_detected(self):
        m = make_manifest(2, 1)
        with pytest.raises(FileNotFoundError):
            m.validate()

    def test_json_round_trip(self):
        m = make_manifest(3, 2)
        back = DatasetManifest.from_json(m.to_json())
        assert back.families == m.families
        assert back.name == m.name

    def test_from_json_refuses_a_non_object_or_a_missing_key(self):
        with pytest.raises(ValueError, match="^manifest is not a JSON object$"):
            DatasetManifest.from_json("[]")
        d = json.loads(make_manifest(2, 1).to_json())
        del d["families"]
        with pytest.raises(ValueError,
                           match="^manifest lacks key 'families'$"):
            DatasetManifest.from_json(json.dumps(d))

    @pytest.mark.parametrize("families, reason", [
        ([], "manifest 'families' is not a JSON object"),
        ({"a": ["x.mps"]}, "manifest family 'a' is not an object of seed -> path"),
        ({"a": {"0": 1}}, "manifest family 'a' is not an object of seed -> path"),
        ({"a": {"0": "x.mps", "00": "y.mps"}},
         "manifest family 'a' repeats a seed"),
    ], ids=["list", "family_list", "path_not_text", "repeated_seed"])
    def test_from_json_refuses_families_of_the_wrong_shape(self, families,
                                                           reason):
        text = json.dumps({"name": "x", "families": families})
        with pytest.raises(ValueError, match=f"^{reason}$"):
            DatasetManifest.from_json(text)

    def test_manifest_with_feature_path_key_loads(self):
        d = json.loads(make_manifest(2, 1).to_json())
        d["feature_path"] = "features.csv"
        assert DatasetManifest.from_json(json.dumps(d)) == make_manifest(2, 1)


class TestByInstance:
    def test_exact_division(self):
        split = split_by_instance(make_manifest(10, 10), 0.2, seed=0)
        assert len(split.test_families()) == 2
        assert len(split.test) == 20
        assert len(split.train) == 80

    def test_zero_family_overlap(self):
        for seed in range(5):
            split = split_by_instance(make_manifest(9, 7), 0.3, seed=seed)
            assert split.family_overlap() == 0
            assert split.leakage_fraction() == 0.0

    def test_deterministic(self):
        a = split_by_instance(make_manifest(10, 10), 0.2, seed=3)
        b = split_by_instance(make_manifest(10, 10), 0.2, seed=3)
        assert a.to_json() == b.to_json()

    def test_partition(self):
        m = make_manifest(6, 4)
        split = split_by_instance(m, 0.25, seed=1)
        assert split.covers(m)
        assert not set(split.train) & set(split.test)

    def test_too_few_families(self):
        with pytest.raises(SplitError):
            split_by_instance(make_manifest(1, 10), 0.2, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(SplitError):
            split_by_instance(make_manifest(5, 2), 1.5, seed=0)


class TestByPermutation:
    def test_pair_counts(self):
        split = split_by_permutation(make_manifest(10, 10), 0.2, seed=0)
        assert len(split.test) == 20
        assert len(split.train) == 80

    def test_leaks_families(self):
        split = split_by_permutation(make_manifest(10, 10), 0.2, seed=0)
        assert split.family_overlap() > 0
        assert split.leakage_fraction() > 0.8

    def test_partition_and_determinism(self):
        m = make_manifest(5, 6)
        a = split_by_permutation(m, 0.3, seed=2)
        b = split_by_permutation(m, 0.3, seed=2)
        assert a.to_json() == b.to_json()
        assert a.covers(m)


class TestStratified:
    def perf_with_labels(self, fams_default, fams_alt):
        """Families in fams_alt are faster under RootCutLevel=3."""
        perf = PerfTable()
        alt = ConfigId.parse("RootCutLevel=3")
        for f in fams_default + fams_alt:
            perf.add(f, 0, ConfigId.default(), 10.0)
            perf.add(f, 0, alt, 5.0 if f in fams_alt else 20.0)
        return perf

    def test_one_family_per_stratum(self):
        m = make_manifest(0, 0)
        m.families = {f: {0: f + ".mps"} for f in ["a", "b", "c", "d"]}
        perf = self.perf_with_labels(["a", "b"], ["c", "d"])
        split = stratified_split(m, perf, 0.5, seed=0)
        test_fams = set(split.test_families())
        assert len(test_fams & {"a", "b"}) == 1
        assert len(test_fams & {"c", "d"}) == 1
        assert split.family_overlap() == 0

    def test_requires_perf(self):
        with pytest.raises(SplitError):
            stratified_split(make_manifest(4, 1), None, 0.5, seed=0)

    def test_label_proportions_balanced(self, small_oracle):
        manifest = small_oracle.manifest()
        split = stratified_split(manifest, small_oracle.perf, 0.25, seed=0)
        assert split.covers(manifest)
        assert split.family_overlap() == 0

    def test_exact_test_share(self):
        """40 families at 0.25 put 10 on the test side, as by_instance does,
        not 8 from rounding each stratum on its own."""
        from benloc.dataset import build_oracle_dataset
        from benloc.synth import OracleSpec

        data = build_oracle_dataset(40, 2, spec=OracleSpec(seed=0), seed=0)
        for seed in range(10):
            split = stratified_split(data.manifest(), data.perf, 0.25, seed)
            assert len(split.test_families()) == 10

    def test_partition_nonempty_sides(self):
        m = make_manifest(0, 0)
        m.families = {f: {0: f + ".mps"} for f in ["a", "b", "c"]}
        perf = self.perf_with_labels(["a", "b", "c"], [])
        split = stratified_split(m, perf, 0.2, seed=0)
        assert split.train and split.test


def _expected_test_count(test_fraction, n):
    return min(max(round(test_fraction * n), 1), n - 1)


def _assert_floor_or_ceil(count, test_fraction, size):
    share = test_fraction * size
    assert math.floor(share) <= count <= math.ceil(share)


class TestAllocator:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8),
           test_fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
    def test_exact_total_and_floor_or_ceil_per_stratum(self, sizes,
                                                       test_fraction, seed):
        strata = {f"s{k}": [(k, i) for i in range(size)]
                  for k, size in enumerate(sizes)}
        n = sum(sizes)
        assume(n >= 2)
        test = pick_test_units(strata, test_fraction,
                               np.random.default_rng(seed))
        assert len(set(test)) == len(test) == _expected_test_count(
            test_fraction, n)
        for key, members in strata.items():
            _assert_floor_or_ceil(len(set(test) & set(members)),
                                  test_fraction, len(members))

    def test_remainder_ties_go_to_earlier_keys(self):
        strata = {"c": ["c0"], "a": ["a0"], "b": ["b0"]}
        test = pick_test_units(strata, 0.5, np.random.default_rng(0))
        assert sorted(test) == ["a0", "b0"]  # round(1.5) = 2

    def test_single_stratum_is_permutation_prefix(self):
        units = list("abcdefghij")
        test = pick_test_units({0: units}, 0.3, np.random.default_rng(4))
        order = np.random.default_rng(4).permutation(10)
        assert test == [units[i] for i in order[:3]]

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction(self, fraction):
        with pytest.raises(SplitError, match="test_fraction"):
            pick_test_units({0: [1, 2, 3]}, fraction, np.random.default_rng(0))


LABELS = ("Default", "RootCutLevel=3", "TreeCutLevel=1")


@st.composite
def split_cases(draw):
    """A manifest and a perf table whose families differ in best config and
    default solve time."""
    n_families = draw(st.integers(2, 30))
    n_perms = draw(st.integers(1, 3))
    perf = PerfTable()
    for i in range(n_families):
        best = draw(st.sampled_from(LABELS))
        base = draw(st.sampled_from([1.0, 5.0, 30.0, 200.0, 3000.0]))
        for s in range(n_perms):
            for label in LABELS:
                scale = 0.5 if label == best else 1.0 + LABELS.index(label)
                perf.add(f"fam{i:02d}", s, ConfigId.parse(label), base * scale)
    return (make_manifest(n_families, n_perms), perf,
            draw(st.floats(0.01, 0.99)), draw(st.integers(0, 2**32 - 1)))


def _reference_strata(manifest, perf):
    """(PD-best label, default-time quartile) -> families, per the docs."""
    fams = manifest.family_ids()
    labels, log_times = [], []
    for fam in fams:
        pairs = [(fam, s) for s in manifest.families[fam]]
        labels.append(str(pd_best(perf, instances=pairs)))
        t = perf.times_for_config(ConfigId.default(), pairs)
        log_times.append(math.log(shifted_geomean(t) + DEFAULT_SHIFT))
    quartiles = np.quantile(log_times, [0.25, 0.5, 0.75])
    strata = {}
    for fam, label, x in zip(fams, labels, log_times):
        key = (label, int(np.searchsorted(quartiles, x, side="right")))
        strata.setdefault(key, []).append(fam)
    return strata


class TestSplitProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=split_cases(), strategy=st.sampled_from(STRATEGIES))
    def test_every_strategy(self, case, strategy):
        manifest, perf, test_fraction, seed = case
        split = make_split(strategy, manifest, test_fraction, seed, perf=perf)
        assert split.covers(manifest)
        assert not set(split.train) & set(split.test)
        if strategy == "by_permutation":
            units, test = manifest.pairs(), split.test
        else:
            assert split.family_overlap() == 0
            units, test = manifest.family_ids(), split.test_families()
        assert len(test) == _expected_test_count(test_fraction, len(units))
        if strategy == "stratified":
            for members in _reference_strata(manifest, perf).values():
                _assert_floor_or_ceil(len(set(test) & set(members)),
                                      test_fraction, len(members))


class TestAssignment:
    def test_overlap_rejected(self):
        with pytest.raises(SplitError):
            SplitAssignment(train=[("f", 0)], test=[("f", 0)],
                            strategy="by_instance", seed=0, test_fraction=0.5)

    def test_from_json_refuses_a_non_object_or_a_missing_key(self):
        with pytest.raises(ValueError, match="^split is not a JSON object$"):
            SplitAssignment.from_json("[]")
        d = json.loads(split_by_instance(make_manifest(5, 3)).to_json())
        del d["test"]
        with pytest.raises(ValueError, match="^split lacks key 'test'$"):
            SplitAssignment.from_json(json.dumps(d))

    @pytest.mark.parametrize("side", ["train", "test"])
    @pytest.mark.parametrize("pairs", [
        {}, [1], [["fam00"]], [["fam00", 0, 1]], [[0, 0]], [["fam00", "0"]],
        [["fam00", True]]],
        ids=["object", "int", "single", "triple", "int_family", "str_seed",
             "bool_seed"])
    def test_from_json_refuses_sides_that_are_not_pairs(self, side, pairs):
        d = json.loads(split_by_instance(make_manifest(5, 3)).to_json())
        d[side] = pairs
        with pytest.raises(ValueError, match=rf"^split '{side}' is not a list "
                                             rf"of \[family, seed\] pairs$"):
            SplitAssignment.from_json(json.dumps(d))

    @pytest.mark.parametrize("key, value, what", [
        ("strategy", 5, "one of by_instance, by_permutation, stratified"),
        ("strategy", "by_coin", "one of by_instance, by_permutation, "
         "stratified"),
        ("seed", "x", "an int"), ("seed", True, "an int"),
        ("seed", 1.0, "an int"),
        ("test_fraction", "a", r"a number in \(0, 1\)"),
        ("test_fraction", float("nan"), r"a number in \(0, 1\)"),
        ("test_fraction", 1, r"a number in \(0, 1\)"),
        ("test_fraction", True, r"a number in \(0, 1\)")])
    def test_from_json_refuses_a_bad_scalar(self, key, value, what):
        d = json.loads(split_by_instance(make_manifest(5, 3)).to_json())
        d[key] = value
        with pytest.raises(ValueError, match=rf"^split '{key}' is not {what}$"):
            SplitAssignment.from_json(json.dumps(d))

    def test_json_round_trip(self):
        split = split_by_instance(make_manifest(5, 3), 0.2, seed=4)
        back = SplitAssignment.from_json(split.to_json())
        assert back.train == split.train
        assert back.test == split.test
        assert back.strategy == split.strategy
        assert json.loads(split.to_json())["seed"] == 4


class TestMakeSplit:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_dispatches_by_name(self, small_oracle, strategy):
        m = small_oracle.manifest()
        split = make_split(strategy, m, 0.25, seed=3, perf=small_oracle.perf)
        assert split.strategy == strategy
        assert split.covers(m)

    def test_unknown_strategy(self):
        with pytest.raises(SplitError, match="by_instance"):
            make_split("by_coin", make_manifest(4, 2))
