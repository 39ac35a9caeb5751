import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import logs_reference
from benloc.dataset import build_oracle_dataset, load_dataset, write_dataset
from benloc.logs import (COPIED_KEYS, DYNAMIC_GROUPS, STAGE_LINES, STATUSES,
                         FeatureStage, IncompleteLogError, LogSchemaError,
                         MissingStageError, SolveLog, assemble_features,
                         dynamic_features, extra_cost, gap_features,
                         parse_log, render_log)
from benloc.metrics import ConfigId
from benloc.static_features import extract_static
from benloc.synth import OracleSpec, gen_setcover, oracle_times

FULL_LOG = """\
META instance=fam000.perm0 config=Default
PRESOLVE rows=10 cols=20 integers=20
GLOBALCUT c_d=120.0 c_p=150.0 c_l=100.0
ROOTLP active=10 intinf=20 glbred=0.0 gap=0.3 time=0.2 obj_density=1.0 symmetries=0
ROOT_END nodes=301 lpit_per_node=11.0 glbfix=0 cuts=3 mcp=0 sepa=1 conf=0 time=1.0
STATUS status=optimal total_time=20.0 root_time=1.0
"""


class TestParseLog:
    def test_minimal_presolve_only(self):
        log = parse_log("PRESOLVE rows=5 cols=9 integers=9\n"
                        "STATUS status=optimal total_time=3.0 root_time=1.0\n")
        assert set(log.stages) == {"presolve"}
        assert log.status == "optimal"
        assert log.total_time == 3.0

    def test_full_log(self):
        log = parse_log(FULL_LOG)
        assert log.instance_id == "fam000.perm0"
        assert log.config_id == "Default"
        assert list(log.stages) == ["presolve", "global_cut",
                                    "first_root_lp", "root_end"]
        assert log.unknown_lines == 0

    def test_oracle_root_time_matches_root_end_line(self):
        inst = gen_setcover(8, 16, 0.4, seed=0)
        feats = extract_static(inst)
        _, logs = oracle_times("fam000", 0, feats, OracleSpec(seed=0),
                               instance_stats=(8, 16, 16))
        for raw in logs.values():
            line = next(l for l in raw.splitlines() if l.startswith("ROOT_END"))
            stated = float(dict(tok.split("=") for tok in line.split()[1:])["time"])
            log = parse_log(raw)
            assert log.root_time == stated
            assert log.unknown_lines == 0

    def test_truncated_log_rejected(self):
        with pytest.raises(IncompleteLogError):
            parse_log("PRESOLVE rows=1 cols=1 integers=0\n")

    def test_out_of_order_stages_rejected(self):
        with pytest.raises(LogSchemaError):
            parse_log("ROOT_END nodes=1\nPRESOLVE rows=1 cols=1 integers=0\n"
                      "STATUS status=optimal total_time=1.0 root_time=0.5\n")

    def test_root_time_exceeding_total_rejected(self):
        with pytest.raises(LogSchemaError):
            parse_log("STATUS status=optimal total_time=1.0 root_time=2.0\n")

    def test_bad_status_rejected(self):
        with pytest.raises(LogSchemaError):
            parse_log("STATUS status=weird total_time=1.0 root_time=0.5\n")

    # one case per raise site of parse_log that no other test reaches
    @pytest.mark.parametrize("text, message", [
        ("PRESOLVE rows\n", "line 1: expected key=value, got 'rows'"),
        ("STATUS status=optimal total_time=1.0 root_time=0.5\n"
         "PRESOLVE rows=1\n", "line 2: stage line after STATUS"),
        ("# a comment\nSTATUS status=optimal total_time=-1.0 root_time=0.0\n",
         "line 2: negative time"),
        ("STATUS status=optimal total_time=inf root_time=inf\n",
         "line 1: infinite value 'inf' for 'total_time'"),
        ("ROOTLP active=1 gap=-1e400\n", "line 1: infinite value '-1e400' "
         "for 'gap'")])
    def test_error_messages(self, text, message):
        with pytest.raises(LogSchemaError) as info:
            parse_log(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("key", ["total_time", "root_time"])
    @pytest.mark.parametrize("value", ["abc", "nan"])
    def test_non_numeric_status_time_names_the_line(self, key, value):
        times = {"total_time": "2.0", "root_time": "1.0", key: value}
        text = ("PRESOLVE rows=1 cols=1 integers=0\nSTATUS status=optimal "
                + " ".join(f"{k}={v}" for k, v in times.items()) + "\n")
        with pytest.raises(LogSchemaError) as info:
            parse_log(text)
        assert str(info.value) == (f"line 2: non-numeric value {value!r} "
                                   f"for {key!r}")

    def test_bare_stage_line_leaves_the_stage_absent(self):
        log = parse_log("PRESOLVE\nGLOBALCUT c_d=1.0 c_p=2.0 c_l=0.5\n"
                        "STATUS status=optimal total_time=1.0 root_time=0.5\n")
        assert log.stages == {"global_cut": {"c_d": 1.0, "c_p": 2.0,
                                             "c_l": 0.5}}

    def test_unknown_lines_counted(self):
        log = parse_log("HELLO world\n"
                        "STATUS status=optimal total_time=1.0 root_time=0.0\n")
        assert log.unknown_lines == 1


# tokens of the schema: no whitespace (str.split and splitlines boundaries
# are all in categories Z and C), and no '=' inside a key
_ids = st.text(st.characters(exclude_categories=("Z", "C")), max_size=8)
_keys = st.text(st.characters(exclude_categories=("Z", "C"),
                              exclude_characters="="), min_size=1, max_size=8)


@st.composite
def solve_logs(draw):
    stages = draw(st.lists(st.sampled_from(list(STAGE_LINES)), unique=True))
    root_time, total_time = sorted(draw(st.lists(
        st.floats(min_value=0.0), min_size=2, max_size=2)))
    return SolveLog(
        instance_id=draw(_ids), config_id=draw(_ids),
        stages={stage: draw(st.dictionaries(_keys, st.floats(allow_nan=False),
                                            min_size=1, max_size=4))
                for stage in STAGE_LINES if stage in stages},
        total_time=total_time, root_time=root_time,
        status=draw(st.sampled_from(STATUSES)))


class TestLogRoundTrip:
    @pytest.mark.parametrize("log, key", [
        (SolveLog(stages={"first_root_lp": {"gap": -math.inf}}), "gap"),
        (SolveLog(total_time=math.inf, root_time=1.0), "total_time"),
        (SolveLog(total_time=1.0, root_time=math.nan), "root_time")])
    def test_render_refuses_non_finite_value(self, log, key):
        with pytest.raises(ValueError, match=f"for '{key}'"):
            render_log(log)

    @settings(deadline=None)
    @given(solve_logs())
    def test_render_then_parse_is_identity(self, log):
        values = [v for stage in log.stages.values() for v in stage.values()]
        if not all(map(math.isfinite, values + [log.total_time,
                                                log.root_time])):
            # the schema refuses infinities, so the writer does too
            with pytest.raises(ValueError, match="non-finite value"):
                render_log(log)
            return
        text = render_log(log)
        back = parse_log(text)
        assert back == log
        assert list(back.stages) == list(log.stages)
        assert render_log(back) == text


class TestGapFeatures:
    def test_equal_dual_and_initial(self):
        d, _, _, _ = gap_features(7.0, 9.0, 7.0)
        assert d == 0.0

    def test_primal_initial_saturates(self):
        _, _, pi, _ = gap_features(3.0, 10.0, 0.0)
        assert pi == 1.0

    def test_gap_closed_complement(self):
        # c_p=4, c_d=3: PrimalDualGap = 1/4
        _, pd, _, closed = gap_features(3.0, 4.0, 1.0)
        assert pd == 0.25
        assert closed == 0.75

    def test_all_zero_defined_as_zero(self):
        assert gap_features(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, 1.0)

    @given(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12),
           st.floats(-1e12, 1e12))
    def test_gaps_in_unit_interval(self, c_d, c_p, c_l):
        d, pd, pi, closed = gap_features(c_d, c_p, c_l)
        for g in (d, pd, pi):
            assert 0.0 <= g <= 1.0
        assert closed == 1.0 - pd


class TestAssemble:
    def test_static_only_ignores_log(self):
        inst = gen_setcover(5, 9, 0.5, seed=1)
        static = extract_static(inst)
        names, X = assemble_features([static], None,
                                     FeatureStage.STATIC_ONLY)
        values = X[0]
        assert len(names) == len(static) == len(values)

    def test_first_root_lp_without_root_end(self):
        text = FULL_LOG.replace(
            "ROOT_END nodes=301 lpit_per_node=11.0 glbfix=0 cuts=3 mcp=0 "
            "sepa=1 conf=0 time=1.0\n", "")
        dyn = dynamic_features([parse_log(text)])
        static = extract_static(gen_setcover(5, 9, 0.5, seed=1))
        names, X = assemble_features([static], dyn,
                                     FeatureStage.UP_TO_FIRST_ROOT_LP)
        expected = len(static) + sum(
            len(DYNAMIC_GROUPS[g])
            for g in ("presolve", "global_cut", "first_root_lp"))
        assert len(names) == expected
        with pytest.raises(MissingStageError):
            assemble_features([static], dyn, FeatureStage.UP_TO_ROOT_END)

    def test_dynamic_values(self):
        dyn = {g: dict(zip(DYNAMIC_GROUPS[g], values[0]))
               for g, (_, values) in dynamic_features(
                   [parse_log(FULL_LOG)]).items()}
        assert dyn["presolve"]["PresolRows"] == np.log(10)
        assert dyn["presolve"]["PresolIntegers"] == 1.0
        assert (dyn["global_cut"]["GapClosed"]
                == 1.0 - dyn["global_cut"]["PrimalDualGap"])
        assert dyn["root_end"]["Nodes"] == 301
        assert dyn["root_end"]["LPit/n"] == 11.0

    def test_unpopulated_groups_absent(self):
        log = parse_log("PRESOLVE rows=5 cols=9 integers=9\n"
                        "STATUS status=optimal total_time=3.0 root_time=1.0\n")
        dyn = dynamic_features([log])
        assert {g for g, (has, _) in dyn.items() if has[0]} == {"presolve"}
        static = extract_static(gen_setcover(5, 9, 0.5, seed=1))
        with pytest.raises(MissingStageError, match=r"log has \['presolve'\]"):
            assemble_features([static], dyn, FeatureStage.UP_TO_ROOT_END)


# the log keys each dynamic group reads
_GROUP_KEYS = {"presolve": ("rows", "cols", "integers"),
               "global_cut": ("c_d", "c_p", "c_l"),
               **{stage: tuple(keys) for stage, keys in COPIED_KEYS.items()}}
# the edges of the formulas: zero of either sign, the smallest and largest
# magnitudes, and small values of both signs
_EDGES = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0,
                          -1.0, 2.5, -7.0])
_VALUES = _EDGES | st.floats(allow_nan=False, allow_infinity=False)
_STATIC = extract_static(gen_setcover(5, 9, 0.5, seed=1))


@st.composite
def feature_logs(draw):
    """A SolveLog whose stages are each absent, partial or complete, with
    values at the formulas' edges: rows or cols zero or negative, bounds all
    zero or of mixed sign, -0.0, 1e-300 and 1e300."""
    stages = {}
    for stage, keys in _GROUP_KEYS.items():
        kv = draw(st.none() | st.dictionaries(st.sampled_from(keys), _VALUES)
                  | st.fixed_dictionaries({key: _VALUES for key in keys}))
        if kv is not None:
            stages[stage] = kv
    return SolveLog(stages=stages)


def _reference_rows(logs, stage):
    """Per log: the reference's (names, values), or the message of the
    MissingStageError it raises."""
    rows = []
    for log in logs:
        dyn = (None if stage == FeatureStage.STATIC_ONLY
               else logs_reference.dynamic_features(log))
        try:
            rows.append(logs_reference.assemble_features(_STATIC, dyn, stage))
        except MissingStageError as exc:
            rows.append(str(exc))
    return rows


def _batched(logs, stage):
    """assemble_features over dynamic_features of the logs, or the message of
    the MissingStageError it raises."""
    try:
        return assemble_features([_STATIC] * len(logs),
                                 dynamic_features(logs), stage)
    except MissingStageError as exc:
        return str(exc)


class TestFeatureOracle:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.lists(feature_logs(), min_size=1, max_size=6))
    @example([SolveLog(stages={
        "presolve": {"rows": 0.0, "cols": -0.0, "integers": 3.0},
        "global_cut": {"c_d": 0.0, "c_p": -0.0, "c_l": 0.0},
        "first_root_lp": {}, "root_end": {"nodes": -0.0}})])
    @example([SolveLog(stages={
        "presolve": {"rows": -4.0, "cols": 1e-300, "integers": 1e300},
        "global_cut": {"c_d": -1e300, "c_p": 1e300, "c_l": 1e-300},
        "first_root_lp": {"gap": 1e300}, "root_end": {}}),
        SolveLog(stages={"presolve": {"rows": 1e300, "cols": 2.0}})])
    def test_batch_matches_the_per_log_reference(self, logs):
        """At every stage the batched matrix equals the per-log reference
        row by row, byte for byte, or raises the first row's error; and a
        batch of n logs equals n batches of one."""
        for stage in FeatureStage:
            want = _reference_rows(logs, stage)
            got = _batched(logs, stage)
            errors = [row for row in want if isinstance(row, str)]
            if errors:
                assert got == errors[0]
            else:
                names, X = got
                assert len(X) == len(logs)
                for (ref_names, ref_values), row in zip(want, X):
                    assert names == ref_names
                    assert row.tobytes() == ref_values.tobytes()
            singles = [_batched([log], stage) for log in logs]
            for one, ref in zip(singles, want):
                if isinstance(ref, str):
                    assert one == ref
                else:
                    assert one[0] == ref[0]
            if not errors:
                assert X.tobytes() == b"".join(
                    one[1].tobytes() for one in singles)


class TestFeatureMap:
    @pytest.mark.parametrize("stage", list(FeatureStage))
    def test_equals_the_per_instance_loop(self, small_oracle, stage):
        got = small_oracle.feature_map(stage)
        want = logs_reference.feature_map(small_oracle, stage)
        assert list(got) == list(want)
        for key, (names, values) in want.items():
            assert got[key][0] == names
            assert got[key][1].tobytes() == values.tobytes()

    def test_first_error_is_the_per_instance_loops_first(self):
        """The 2nd instance lacks global_cut and the 5th its Default log:
        the 2nd instance's error is raised, as the per-instance loop raises
        it; without the 2nd's fault, the 5th's."""
        data = build_oracle_dataset(n_families=3, n_perms=2, seed=4)
        keys = list(data.static)
        default = ConfigId.default()
        second = data.logs[keys[1]][default].stages
        cut = second.pop("global_cut")
        fifth = data.logs[keys[4]].pop(default)
        stage = FeatureStage.UP_TO_ROOT_END

        def message(feature_map):
            with pytest.raises(MissingStageError) as info:
                feature_map(stage)
            return str(info.value)
        assert message(data.feature_map) == (
            "stage root_end needs groups ['global_cut'], log has "
            "['first_root_lp', 'presolve', 'root_end']")
        assert message(data.feature_map) == message(
            lambda st: logs_reference.feature_map(data, st))
        second["global_cut"] = cut
        assert message(data.feature_map) == message(
            lambda st: logs_reference.feature_map(data, st)) == (
            f"no Default log for ({keys[4][0]}, {keys[4][1]})")
        data.logs[keys[4]][default] = fifth
        assert len(data.feature_map(stage)) == 6

    def test_static_only_reads_no_log(self, small_oracle, tmp_path,
                                      monkeypatch):
        """A manifest with log_dir null loads with no logs, and its static
        stage matches the full dataset's; a later stage names the first
        instance's missing log."""
        path = write_dataset(small_oracle, str(tmp_path))
        with open(path) as fh:
            manifest = json.load(fh)
        with open(path, "w") as fh:
            json.dump(dict(manifest, log_dir=None), fh)
        data = load_dataset(path)
        assert all(logs == {} for logs in data.logs.values())
        monkeypatch.setattr(type(data), "log", None)  # any log read fails
        static = data.feature_map(FeatureStage.STATIC_ONLY)
        want = small_oracle.feature_map(FeatureStage.STATIC_ONLY)
        assert {key: values.tobytes() for key, (_, values) in static.items()} \
            == {key: values.tobytes() for key, (_, values) in want.items()}
        monkeypatch.undo()
        first = list(data.static)[0]
        with pytest.raises(MissingStageError,
                           match=rf"^no Default log for \({first[0]}, "
                                 rf"{first[1]}\)$"):
            data.feature_map(FeatureStage.UP_TO_FIRST_ROOT_LP)


class TestExtraCost:
    def test_static_only_identity(self):
        assert extra_cost(10.0, 3.0, FeatureStage.STATIC_ONLY, True) == 10.0

    def test_root_end_pays_root_again(self):
        assert extra_cost(10.0, 3.0, FeatureStage.UP_TO_ROOT_END, True) == 13.0

    def test_root_neutral_config_costs_nothing(self):
        assert extra_cost(10.0, 3.0, FeatureStage.UP_TO_ROOT_END, False) == 10.0

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            extra_cost(-1.0, 0.0, FeatureStage.STATIC_ONLY, False)

    @pytest.mark.parametrize("stage", list(FeatureStage))
    def test_arrays_match_scalars(self, stage):
        total, root = np.array([10.0, 4.0, 7.5]), np.array([3.0, 0.5, 2.0])
        affects = np.array([True, False, True])
        assert extra_cost(total, root, stage, affects).tolist() == [
            extra_cost(t, r, stage, a) for t, r, a in zip(total, root, affects)]
        with pytest.raises(ValueError):
            extra_cost(total, -root, stage, affects)

    @given(st.floats(0, 1e6), st.floats(0, 1e6),
           st.sampled_from(list(FeatureStage)), st.booleans())
    def test_monotone(self, total, root, stage, affects):
        assert extra_cost(total, root, stage, affects) >= total
