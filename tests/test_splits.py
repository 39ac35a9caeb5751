import json

import pytest

from benloc.metrics import ConfigId, PerfTable
from benloc.splits import (STRATEGIES, DatasetManifest, SplitAssignment,
                           SplitError, make_split, split_by_instance,
                           split_by_permutation, stratified_split)


def make_manifest(n_families=10, n_seeds=10):
    families = {f"fam{i:02d}": {s: f"fam{i:02d}.perm{s}.mps"
                                for s in range(n_seeds)}
                for i in range(n_families)}
    return DatasetManifest(name="toy", families=families)


class TestManifest:
    def test_pairs_and_validation(self):
        m = make_manifest(3, 2)
        assert len(m.pairs()) == 6
        m.validate(check_files=False)

    def test_missing_file_detected(self):
        m = make_manifest(2, 1)
        with pytest.raises(FileNotFoundError):
            m.validate(check_files=True)

    def test_json_round_trip(self):
        m = make_manifest(3, 2)
        back = DatasetManifest.from_json(m.to_json())
        assert back.families == m.families
        assert back.name == m.name


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

    def test_partition_nonempty_sides(self):
        m = make_manifest(0, 0)
        m.families = {f: {0: f + ".mps"} for f in ["a", "b", "c"]}
        perf = self.perf_with_labels(["a", "b", "c"], [])
        split = stratified_split(m, perf, 0.2, seed=0)
        assert split.train and split.test


class TestAssignment:
    def test_overlap_rejected(self):
        with pytest.raises(SplitError):
            SplitAssignment(train=[("f", 0)], test=[("f", 0)],
                            strategy="by_instance", seed=0, test_fraction=0.5)

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
