import math

import numpy as np
import pytest

from benloc.instance import BINARY, GE, LE
from benloc.logs import parse_log
from benloc.metrics import ConfigId, pd_best_geomean, pi_best
from benloc.static_features import extract_static
from benloc.synth import (DEFAULT_BASE_MULTIPLIERS, RULE_THRESHOLD, OracleSpec,
                          gen_indset, gen_setcover, oracle_solve_logs,
                          oracle_times, planted_optimum)


class TestGenerators:
    def test_setcover_density_one(self):
        inst = gen_setcover(5, 7, 1.0, seed=0)
        for i in range(5):
            cols, _ = inst.row_entries(i)
            assert len(cols) == 7

    def test_setcover_structure(self):
        inst = gen_setcover(6, 11, 0.3, seed=1)
        assert inst.sense == "minimize"
        assert (inst.row_senses == GE).all()
        assert np.all(inst.rhs == 1.0)
        assert (inst.var_types == BINARY).all()
        for i in range(inst.num_rows):
            cols, vals = inst.row_entries(i)
            assert len(cols) >= 1  # empty supports are resampled
            assert np.all(vals == 1.0)

    def test_setcover_deterministic(self):
        assert gen_setcover(6, 11, 0.3, seed=1) == gen_setcover(6, 11, 0.3,
                                                                seed=1)

    def test_setcover_arg_validation(self):
        with pytest.raises(ValueError):
            gen_setcover(0, 5, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_setcover(5, 5, 0.0, seed=0)

    def test_indset_no_edges(self):
        inst = gen_indset(6, 0.0, seed=0)
        assert inst.num_rows == 0
        assert inst.sense == "maximize"
        # with no conflicts all vertices can be picked
        assert inst.obj_coeffs.sum() == 6.0

    def test_indset_complete_triangle(self):
        inst = gen_indset(3, 1.0, seed=0)
        assert inst.num_rows == 3
        for i in range(3):
            cols, vals = inst.row_entries(i)
            assert len(cols) == 2
            assert np.all(vals == 1.0)
            assert inst.rhs[i] == 1.0
            assert inst.row_senses[i] == LE

    def test_indset_deterministic(self):
        assert gen_indset(9, 0.4, seed=3) == gen_indset(9, 0.4, seed=3)


class TestOracle:
    def spec_noiseless(self, **kw):
        return OracleSpec(seed=0, family_sigma=0.0, noise_sigma=0.0, **kw)

    def test_noise_zero_times_exact(self):
        spec = self.spec_noiseless()
        inst = gen_setcover(8, 16, 0.7, seed=0)
        feats = extract_static(inst)
        times, _ = oracle_times("famX", 0, feats, spec,
                                instance_stats=(8, 16, 16))
        favored = planted_optimum(spec, "famX", feats)
        for cfg, t in times.items():
            expected = spec.base_time * DEFAULT_BASE_MULTIPLIERS[str(cfg)]
            if cfg == favored:
                expected *= spec.rule_factor
            assert abs(t - expected) < 1e-9

    def test_planted_rule_over_generated_instances(self):
        spec = self.spec_noiseless()
        rule_cfg = ConfigId.parse("RootCutLevel=3")
        for k in range(100):
            dens = 0.2 if k % 2 == 0 else 0.8
            inst = gen_setcover(6 + k % 5, 10 + k % 7, dens, seed=k)
            feats = extract_static(inst)
            times, _ = oracle_times(f"fam{k}", 0, feats, spec)
            best = min(times, key=lambda c: (times[c], c.sort_key()))
            want = rule_cfg if feats["NonZeros"] > 0.5 else ConfigId.default()
            assert planted_optimum(spec, f"fam{k}", feats) == want
            assert best == want

    def test_logs_conform_to_schema(self):
        spec = OracleSpec(seed=3)
        inst = gen_setcover(8, 16, 0.4, seed=3)
        feats = extract_static(inst)
        _, logs = oracle_times("famY", 2, feats, spec,
                               instance_stats=(8, 16, 16))
        for raw in logs.values():
            log = parse_log(raw)
            assert log.unknown_lines == 0
            assert log.root_time <= log.total_time
            assert list(log.stages) == ["presolve", "global_cut",
                                        "first_root_lp", "root_end"]

    def test_solve_logs_are_what_the_log_text_parses_to(self):
        spec = OracleSpec(seed=4, rule_source="latent")
        feats = extract_static(gen_setcover(8, 16, 0.4, seed=4))
        _, texts = oracle_times("famW", 1, feats, spec)
        _, logs = oracle_solve_logs("famW", 1, feats, spec)
        assert texts.keys() == logs.keys()
        for cfg, text in texts.items():
            assert parse_log(text) == logs[cfg]

    def test_latent_rule_shows_in_root_end_nodes(self):
        spec = OracleSpec(seed=1, rule_source="latent", family_sigma=0.0,
                          noise_sigma=0.0)
        inst = gen_setcover(8, 16, 0.4, seed=1)
        feats = extract_static(inst)
        _, logs = oracle_times("famZ", 0, feats, spec,
                               instance_stats=(8, 16, 16))
        log = parse_log(logs[ConfigId.default()])
        nodes = log.stages["root_end"]["nodes"]
        r = (nodes - 1) / 999.0
        favored = planted_optimum(spec, "famZ", feats)
        want = spec.rule_config if r > RULE_THRESHOLD else ConfigId.default()
        assert favored == want

    def test_dataset_has_positive_headroom(self, small_oracle):
        _, pd_g = pd_best_geomean(small_oracle.perf)
        _, pi_g = pi_best(small_oracle.perf)
        assert pi_g < pd_g

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            OracleSpec(noise_sigma=-1.0)


class TestDatasetRoundTrip:
    def test_write_and_load(self, small_oracle, tmp_path):
        from benloc.dataset import load_dataset, write_dataset

        manifest_path = write_dataset(small_oracle, str(tmp_path / "ds"))
        loaded = load_dataset(manifest_path)
        assert loaded.pairs() == small_oracle.pairs()
        assert loaded.perf.configs() == small_oracle.perf.configs()
        for key in small_oracle.pairs():
            assert loaded.static[key] == small_oracle.static[key]
            for cfg, log in small_oracle.logs[key].items():
                other = loaded.logs[key][cfg]
                assert other.total_time == log.total_time
                assert other.root_time == log.root_time
                assert other.stages["root_end"] == log.stages["root_end"]

    def test_time_limit_survives_write_and_load(self, tmp_path):
        from benloc.dataset import (build_oracle_dataset, load_dataset,
                                    write_dataset)

        data = build_oracle_dataset(
            4, 2, spec=OracleSpec(seed=0, base_time=9000, time_limit=20000),
            seed=0, keep_instances=True)
        assert data.perf.time_matrix().max() > 7200.0
        loaded = load_dataset(write_dataset(data, str(tmp_path / "ds")))
        assert loaded.perf.time_limit == 20000.0
        assert np.array_equal(loaded.perf.time_matrix(),
                              data.perf.time_matrix())

    def test_missing_log_skipped_other_errors_raised(self, small_oracle,
                                                     tmp_path):
        """A run without a log file loads without that log; any other error
        opening a log, here a directory in its place, is raised."""
        from benloc.dataset import load_dataset, write_dataset

        manifest_path = write_dataset(small_oracle, str(tmp_path / "ds"))
        key = small_oracle.pairs()[0]
        cfg = next(iter(small_oracle.logs[key]))
        log = tmp_path / "ds" / "logs" / f"{key[0]}.perm{key[1]}.{cfg}.log"
        log.unlink()
        loaded = load_dataset(manifest_path)
        assert set(loaded.logs[key]) == set(small_oracle.logs[key]) - {cfg}
        log.mkdir()
        with pytest.raises(IsADirectoryError):
            load_dataset(manifest_path)

    def test_load_names_a_corrupted_instance_file(self, small_oracle,
                                                  tmp_path):
        from benloc.dataset import load_dataset, write_dataset
        from benloc.instance import MpsError

        manifest_path = write_dataset(small_oracle, str(tmp_path / "ds"))
        bad = tmp_path / "ds" / "instances" / "fam003.perm1.mps"
        bad.write_text(bad.read_text().replace("COLUMNS", "COLUMNZ", 1))
        with pytest.raises(MpsError) as info:
            load_dataset(manifest_path)
        assert info.value.path == str(bad)
        assert str(info.value).startswith(f"{bad}: line ")

    def test_write_refuses_data_without_instances(self, small_oracle,
                                                  tmp_path):
        from dataclasses import replace

        from benloc.dataset import write_dataset

        bare = replace(small_oracle, instances={})
        with pytest.raises(ValueError, match="keep_instances"):
            write_dataset(bare, str(tmp_path / "ds"))
        assert not (tmp_path / "ds").exists()
