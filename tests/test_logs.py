import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benloc.logs import (DYNAMIC_GROUPS, STAGE_LINES, STATUSES, FeatureStage,
                         IncompleteLogError, LogSchemaError, MissingStageError,
                         SolveLog, assemble_features, dynamic_features,
                         extra_cost, gap_features, parse_log, render_log)
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
        names, values = assemble_features(static, None,
                                          FeatureStage.STATIC_ONLY)
        assert len(names) == len(static) == len(values)

    def test_first_root_lp_without_root_end(self):
        text = FULL_LOG.replace(
            "ROOT_END nodes=301 lpit_per_node=11.0 glbfix=0 cuts=3 mcp=0 "
            "sepa=1 conf=0 time=1.0\n", "")
        dyn = dynamic_features(parse_log(text))
        static = extract_static(gen_setcover(5, 9, 0.5, seed=1))
        names, values = assemble_features(static, dyn,
                                          FeatureStage.UP_TO_FIRST_ROOT_LP)
        expected = len(static) + sum(
            len(DYNAMIC_GROUPS[g])
            for g in ("presolve", "global_cut", "first_root_lp"))
        assert len(names) == expected
        with pytest.raises(MissingStageError):
            assemble_features(static, dyn, FeatureStage.UP_TO_ROOT_END)

    def test_dynamic_values(self):
        dyn = dynamic_features(parse_log(FULL_LOG))
        assert dyn["presolve"]["PresolRows"] == np.log(10)
        assert dyn["presolve"]["PresolIntegers"] == 1.0
        assert (dyn["global_cut"]["GapClosed"]
                == 1.0 - dyn["global_cut"]["PrimalDualGap"])
        assert dyn["root_end"]["Nodes"] == 301
        assert dyn["root_end"]["LPit/n"] == 11.0

    def test_unpopulated_groups_absent(self):
        log = parse_log("PRESOLVE rows=5 cols=9 integers=9\n"
                        "STATUS status=optimal total_time=3.0 root_time=1.0\n")
        dyn = dynamic_features(log)
        assert set(dyn) == {"presolve"}
        with pytest.raises(KeyError):
            dyn["root_end"]


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
