import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from benloc.dataset import build_oracle_dataset
from benloc.metrics import (ConfigId, MissingEntryError, PerfTable,
                            baselines, improvement, improvement_upper_bound,
                            pd_best, pd_best_geomean, pi_best, shifted_geomean)
from benloc.report import suitability_rows
from benloc.splits import DatasetManifest, stratified_split
from benloc.synth import OracleSpec


def simple_table(entries, limit=7200.0):
    table = PerfTable(limit)
    for f, s, c, t in entries:
        table.add(f, s, ConfigId.parse(c), t)
    return table


class TestConfigId:
    def test_default(self):
        d = ConfigId.default()
        assert d.is_default
        assert str(d) == "Default"
        assert ConfigId.parse("Default") == d

    def test_parse_round_trip(self):
        c = ConfigId("RootCutLevel", 3)
        assert ConfigId.parse(str(c)) == c
        assert str(c) == "RootCutLevel=3"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ConfigId("NotAParam", 1)
        with pytest.raises(ValueError):
            ConfigId("RootCutLevel", 9)
        with pytest.raises(ValueError):
            ConfigId(None, 2)

    def test_sort_order_default_first(self):
        cfgs = [ConfigId("TreeCutLevel", 1), ConfigId.default(),
                ConfigId("RootCutLevel", -1), ConfigId("RootCutLevel", 2)]
        ordered = sorted(cfgs, key=ConfigId.sort_key)
        assert ordered[0].is_default
        assert str(ordered[1]) == "RootCutLevel=-1"

    def test_affects_root(self):
        assert not ConfigId("TreeCutLevel", 1).affects_root
        assert ConfigId("RootCutLevel", 1).affects_root
        assert not ConfigId.default().affects_root


class TestShiftedGeomean:
    def test_constant_list(self):
        for shift in (0.0, 10.0, 100.0):
            assert abs(shifted_geomean([5.0, 5.0, 5.0], shift) - 5.0) < 1e-9

    def test_plain_geometric_mean(self):
        assert abs(shifted_geomean([1.0, 100.0], 0.0) - 10.0) < 1e-12

    def test_shifted_value(self):
        expected = math.exp((math.log(12.0) + math.log(18.0)) / 2) - 10.0
        got = shifted_geomean([2.0, 8.0], 10.0)
        assert abs(got - expected) < 1e-12
        assert abs(got - 4.6969) < 1e-4

    def test_errors(self):
        with pytest.raises(ValueError):
            shifted_geomean([], 10.0)
        with pytest.raises(ValueError):
            shifted_geomean([1.0, -2.0], 10.0)
        with pytest.raises(ValueError):
            shifted_geomean([1.0], -1.0)

    @given(st.lists(st.floats(0.01, 1e5), min_size=1, max_size=20),
           st.floats(0, 100))
    def test_permutation_invariant_and_bounded(self, times, shift):
        g = shifted_geomean(times, shift)
        assert abs(g - shifted_geomean(list(reversed(times)), shift)) < 1e-6
        assert min(times) - 1e-6 <= g <= max(times) + 1e-6

    def test_scaling_with_co_scaled_shift(self):
        times = [2.0, 8.0, 31.0]
        k = 3.5
        a = shifted_geomean([t * k for t in times], 10.0 * k)
        assert abs(a - k * shifted_geomean(times, 10.0)) < 1e-9


class TestBaselines:
    def test_single_config(self):
        t = simple_table([("f", 0, "Default", 5.0), ("g", 0, "Default", 7.0)])
        assert pd_best(t) == ConfigId.default()
        chosen, g = pi_best(t)
        assert all(c == ConfigId.default() for c in chosen.values())

    def test_dominance(self):
        t = simple_table([("f", 0, "Default", 5.0),
                          ("f", 0, "RootCutLevel=3", 2.0),
                          ("g", 0, "Default", 7.0),
                          ("g", 0, "RootCutLevel=3", 3.0)])
        assert pd_best(t) == ConfigId.parse("RootCutLevel=3")

    def test_tie_breaks_toward_default(self):
        t = simple_table([("f", 0, "Default", 5.0),
                          ("f", 0, "RootCutLevel=3", 5.0)])
        assert pd_best(t) == ConfigId.default()
        chosen, _ = pi_best(t)
        assert chosen[("f", 0)] == ConfigId.default()

    def test_pi_beats_pd_beats_default(self):
        rng = np.random.default_rng(0)
        configs = ["Default", "RootCutLevel=3", "TreeCutLevel=1"]
        for trial in range(25):
            entries = [(f"f{i}", 0, c, float(rng.uniform(1, 100)))
                       for i in range(6) for c in configs]
            t = simple_table(entries)
            d = shifted_geomean(t.times_for_config(ConfigId.default()), 10.0)
            _, pd_g = pd_best_geomean(t, 10.0)
            _, pi_g = pi_best(t, 10.0)
            assert pi_g <= pd_g + 1e-9 <= d + 1e-9

    def test_kernel_equals_per_column_loops(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            times = rng.uniform(1, 100, size=(7, 4))
            times[:, 2] = times[:, 0]  # a tie: the first column wins
            b = baselines(times, 10.0)
            geomeans = [shifted_geomean(list(times[:, j]), 10.0)
                        for j in range(4)]
            pd_col = min(range(4), key=lambda j: (geomeans[j], j))
            pi = [min(row) for row in times.tolist()]
            assert (b.default, b.pd_col, b.pd) == (geomeans[0], pd_col,
                                                   geomeans[pd_col])
            assert b.pi_cols.tolist() == [row.index(min(row))
                                          for row in times.tolist()]
            assert b.pi == shifted_geomean(pi, 10.0)
            assert b.headroom == (improvement(geomeans[0], b.pi)
                                  - improvement(geomeans[0], b.pd))
            given = baselines(times, 10.0, pd_col=3)
            assert (given.pd_col, given.pd) == (3, geomeans[3])
        with pytest.raises(ValueError, match="empty performance table"):
            baselines(np.zeros((0, 3)))

    def test_table_without_default(self):
        """PD-best and PI-best answer; what compares with Default names the
        first cell it lacks."""
        t = simple_table([(f, s, c, float(1 + s + 2 * (c == "TreeCutLevel=1")))
                          for f in ("fam000", "fam001") for s in (0, 1)
                          for c in ("RootCutLevel=3", "TreeCutLevel=1")])
        assert pd_best(t) == ConfigId.parse("RootCutLevel=3")
        assert set(pi_best(t)[0].values()) == {ConfigId.parse("RootCutLevel=3")}
        manifest = DatasetManifest("m", {f: {0: "a.mps", 1: "b.mps"}
                                         for f in ("fam000", "fam001")})
        for call in (lambda: improvement_upper_bound(t),
                     lambda: suitability_rows(t),
                     lambda: stratified_split(manifest, t, 0.5)):
            with pytest.raises(MissingEntryError) as e:
                call()
            assert e.value.args == ("no entry for (fam000, 0, Default)",)

    def test_oracle_pi_map_matches_planted(self, small_oracle):
        chosen, _ = pi_best(small_oracle.perf)
        agree = sum(chosen[key] == small_oracle.planted_pi[key]
                    for key in chosen)
        assert agree / len(chosen) >= 0.95


class TestImprovement:
    def test_paper_style_value(self):
        assert abs(improvement(46.55, 45.39) - 0.0249) < 5e-5

    def test_zero_when_equal(self):
        assert improvement(5.0, 5.0) == 0.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            improvement(0.0, 1.0)

    def test_upper_bound_single_config_zero(self):
        t = simple_table([("f", 0, "Default", 5.0), ("g", 0, "Default", 7.0)])
        assert improvement_upper_bound(t) == 0.0

    def test_upper_bound_nonnegative(self):
        rng = np.random.default_rng(1)
        configs = ["Default", "RootCutLevel=3"]
        for trial in range(25):
            entries = [(f"f{i}", 0, c, float(rng.uniform(1, 100)))
                       for i in range(5) for c in configs]
            assert improvement_upper_bound(simple_table(entries)) >= -1e-12

    def test_oracle_upper_bound_positive(self, small_oracle):
        assert improvement_upper_bound(small_oracle.perf) > 0.0


class TestPerfTable:
    def test_cap_at_time_limit(self):
        t = PerfTable(100.0)
        t.add("f", 0, ConfigId.default(), 500.0)
        assert t.time("f", 0, ConfigId.default()) == 100.0

    def test_nonpositive_time_rejected(self):
        t = PerfTable()
        with pytest.raises(ValueError):
            t.add("f", 0, ConfigId.default(), 0.0)

    def test_missing_entry(self):
        t = simple_table([("f", 0, "Default", 5.0)])
        with pytest.raises(MissingEntryError):
            t.time("f", 0, ConfigId.parse("RootCutLevel=3"))

    def test_time_matrix_columns_in_config_order(self):
        t = simple_table([("g", 0, "RootCutLevel=3", 2.0),
                          ("g", 0, "Default", 7.0),
                          ("f", 0, "Default", 5.0),
                          ("f", 0, "RootCutLevel=3", 3.0)])
        assert t.time_matrix().tolist() == [[5.0, 3.0], [7.0, 2.0]]
        assert t.time_matrix([("g", 0)]).tolist() == [[7.0, 2.0]]
        assert t.time_matrix([]).shape == (0, 2)

    def test_time_matrix_missing_cell(self):
        t = simple_table([("f", 0, "Default", 5.0),
                          ("f", 0, "RootCutLevel=3", 2.0),
                          ("g", 0, "Default", 7.0)])
        with pytest.raises(MissingEntryError, match="RootCutLevel=3"):
            t.time_matrix()

    def test_csv_round_trip(self):
        t = simple_table([("f", 0, "Default", 5.0),
                          ("f", 0, "RootCutLevel=3", 2.25),
                          ("g", 1, "Default", 7.125)])
        back = PerfTable.from_csv(t.to_csv())
        assert back.instances() == t.instances()
        assert back.configs() == t.configs()
        for f, s in t.instances():
            for c in t.configs():
                try:
                    assert back.time(f, s, c) == t.time(f, s, c)
                except MissingEntryError:
                    pass

    def test_csv_keeps_time_limit(self):
        t = PerfTable(20000.0)
        t.add("f", 0, ConfigId.default(), 11478.7)
        t.add("f", 0, ConfigId.parse("RootCutLevel=3"), 30000.0)
        back = PerfTable.from_csv(t.to_csv())
        assert back.time_limit == 20000.0
        assert back.time_matrix().tolist() == [[11478.7, 20000.0]]
        assert back.to_csv() == t.to_csv()

    def test_csv_without_time_limit_gets_default(self):
        back = PerfTable.from_csv("family,seed,config,time,status\n"
                                  "f,0,Default,9000.0,optimal\n")
        assert back.time_limit == 7200.0
        assert back.time("f", 0, ConfigId.default()) == 7200.0

    @pytest.mark.parametrize("row, message", [
        ("g,0,Default", "short row"),
        ("g,0,Default,abc,optimal,7200.0", "bad time 'abc'"),
        ("g,0,Default,-1.0,optimal,7200.0", "nonpositive time -1.0 for g.0"),
        ("g,0,Default,nan,optimal,7200.0", "nonpositive time nan for g.0"),
        ("g,0,Foo=1,5.0,optimal,7200.0", "bad config 'Foo=1'"),
        ("g,x,Default,5.0,optimal,7200.0", "bad seed 'x'"),
        ("f,0,Default,6.0,optimal,7200.0", "repeated row for (f, 0, Default)"),
        ("g,0,Default,5.0,optimal,-5.0", "time limit -5.0 is not positive"),
        ("g,0,Default,5.0,optimal,0", "time limit 0.0 is not positive"),
        ("g,0,Default,5.0,optimal,nan", "time limit nan is not positive"),
        ("g,0,Default,5.0,bogus,7200.0", "unknown status 'bogus' for g.0"),
        ("g,0,Default,5.0,,7200.0", "unknown status '' for g.0"),
    ])
    def test_csv_bad_row_names_its_line(self, row, message):
        text = ("family,seed,config,time,status,time_limit\n"
                "f,0,Default,5.0,optimal,7200.0\n\n" + row + "\n")
        with pytest.raises(ValueError) as info:
            PerfTable.from_csv(text)
        assert str(info.value) == f"line 4: {message}"

    def test_time_limit_must_be_positive(self):
        """A limit that is not > 0 is refused, in a table or an oracle spec;
        an infinite one means no limit."""
        for limit in (0, -5.0, math.nan):
            with pytest.raises(ValueError, match="is not positive"):
                PerfTable(limit)
        with pytest.raises(ValueError, match="time limit 0.0 is not positive"):
            build_oracle_dataset(2, 1, spec=OracleSpec(time_limit=0))
        t = PerfTable(math.inf)
        t.add("f", 0, ConfigId.default(), 1e9)
        assert PerfTable.from_csv(t.to_csv()).time("f", 0, ConfigId()) == 1e9

    def test_unfinished_run_is_charged_the_time_limit(self):
        """A time_limit or error cell costs the limit, whatever time it
        records; optimal and infeasible runs finished and keep theirs."""
        t = PerfTable(100.0)
        for seed, status in enumerate(("time_limit", "error", "optimal",
                                       "infeasible")):
            t.add("f", seed, ConfigId.default(), 30.0, status)
        assert t.times_for_config(ConfigId.default()).tolist() == [
            100.0, 100.0, 30.0, 30.0]
        assert PerfTable.from_csv(t.to_csv()).to_csv() == t.to_csv()

    def test_unfinished_run_needs_a_finite_limit(self):
        for status in ("time_limit", "error"):
            with pytest.raises(ValueError) as info:
                PerfTable.from_csv("family,seed,config,time,status,time_limit\n"
                                   f"f,0,Default,5.0,{status},inf\n")
            assert str(info.value) == (f"line 2: status {status!r} for f.0 "
                                       "needs a finite time limit")

    def test_erroring_config_is_never_best(self):
        """Every DivingHeurLevel=2 run of an oracle dataset recorded as an
        error after 0.5 s: charged the time limit, the config is neither
        PD-best nor any instance's PI-best, and the headroom is unchanged."""
        perf = build_oracle_dataset(12, 3, seed=0).perf
        diving = ConfigId.parse("DivingHeurLevel=2")
        lines = perf.to_csv().splitlines(keepends=True)
        crashed = PerfTable.from_csv("".join(
            line.replace(",optimal,", ",error,").replace(
                line.split(",")[3], "0.5") if f",{diving}," in line else line
            for line in lines))
        assert crashed.times_for_config(diving).tolist() == [7200.0] * 36
        assert pd_best_geomean(crashed)[0] != diving
        assert diving not in pi_best(crashed)[0].values()
        assert improvement_upper_bound(crashed) == \
            improvement_upper_bound(perf)

    def test_csv_mixed_time_limits_rejected(self):
        text = ("family,seed,config,time,status,time_limit\n"
                "f,0,Default,5.0,optimal,100.0\n"
                "g,0,Default,5.0,optimal,200.0\n")
        with pytest.raises(ValueError, match="time limits"):
            PerfTable.from_csv(text)
