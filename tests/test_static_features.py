import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benloc.instance import (BINARY, CONTINUOUS, LE, SENSES, VAR_TYPES,
                             MipInstance, parse_mps, permute_instance,
                             write_mps)
from benloc.static_features import (CONSTRAINT_CLASSES, STATIC_FEATURE_NAMES,
                                    DegenerateInstanceError, extract_static,
                                    static_features_csv)
from benloc.synth import gen_indset, gen_setcover
from conftest import count_calls


def one_by_one():
    return MipInstance(
        name="unit", sense="minimize", obj_coeffs=np.array([1.0]),
        mat_rows=np.array([0]), mat_cols=np.array([0]),
        mat_vals=np.array([1.0]), row_senses=[LE], rhs=np.array([1.0]),
        var_lb=np.zeros(1), var_ub=np.ones(1), var_types=[CONTINUOUS],
        row_names=["r"], col_names=["x"])


def one_row_class(coefs, var_types, sense, rhs):
    """The class extract_static gives the one row of an instance holding
    these entries, the sense and types named as in SENSES and VAR_TYPES:
    the one class whose ratio reads 1."""
    n = len(coefs)
    inst = MipInstance(
        name="row", sense="minimize", obj_coeffs=np.ones(n),
        mat_rows=np.zeros(n, dtype=int), mat_cols=np.arange(n),
        mat_vals=coefs, row_senses=[SENSES.index(sense)], rhs=[rhs],
        var_lb=np.zeros(n),
        var_ub=[1.0 if t == "binary" else 10.0 for t in var_types],
        var_types=list(map(VAR_TYPES.index, var_types)), row_names=["r"],
        col_names=[f"x{j}" for j in range(n)])
    feats = extract_static(inst)
    [found] = [c for c in CONSTRAINT_CLASSES if feats[c] == 1.0]
    return found


class TestClassify:
    def test_set_covering(self):
        assert one_row_class([1, 1, 1], ["binary"] * 3, ">=", 1) == \
            "SetCovering"

    def test_set_partitioning(self):
        assert one_row_class([1, 1], ["binary"] * 2, "=", 1) == \
            "SetPartitioning"

    def test_set_packing(self):
        assert one_row_class([1, 1], ["binary"] * 2, "<=", 1) == \
            "SetPacking"

    def test_cardinality(self):
        assert one_row_class([1, 1, 1], ["binary"] * 3, "=", 2) == \
            "Cardinality"

    def test_knapsack_family(self):
        assert one_row_class([2, 3], ["binary"] * 2, "=", 5) == \
            "KnapsackEquality"
        assert one_row_class([2, 3], ["binary"] * 2, "<=", 5) == \
            "Knapsack"
        assert one_row_class([2, 3], ["integer", "binary"], "<=", 5) == \
            "KnapsackInteger"
        assert one_row_class([0.5, 1.5], ["binary"] * 2, "<=", 2) == \
            "BinaryPacking"

    def test_variable_bounds(self):
        assert one_row_class([1, -3], ["binary", "continuous"], ">=", 0) \
            == "VariableLowerBound"
        assert one_row_class([1, -3], ["binary", "continuous"], "<=", 0) \
            == "VariableUpperBound"

    def test_mixed_and_continuous(self):
        assert one_row_class([1, 2, 3], ["binary", "continuous",
                                         "continuous"], "=", 1.5) == \
            "MixedBinary"
        assert one_row_class([1.5, 2], ["integer", "integer"], ">=", 1) \
            == "MixedInteger"
        assert one_row_class([1.5], ["continuous"], "<=", 1) == \
            "Continuous"

    def test_empty_row_rejected(self):
        inst = replace(one_by_one(), mat_rows=[], mat_cols=[], mat_vals=[])
        with pytest.raises(DegenerateInstanceError,
                           match="row 'r' \\(index 0\\) has no nonzeros"):
            extract_static(inst)

    def test_generator_rows(self):
        assert extract_static(gen_setcover(6, 12, 0.4, seed=2))[
            "SetCovering"] == 1.0
        assert extract_static(gen_indset(8, 0.5, seed=2))["SetPacking"] == 1.0


def reference_class(coefs, var_types, sense, rhs):
    """The first-match rule chain, one row at a time, as the reference for
    the rule table."""
    def integral(x):
        return abs(x - round(x)) <= 1e-9

    n_bin = var_types.count("binary")
    n_int = var_types.count("integer")
    n_cont = var_types.count("continuous")
    all_binary = n_bin == len(coefs)
    all_ones = all(abs(v - 1.0) <= 1e-9 for v in coefs)
    int_coefs = all(integral(v) for v in coefs)
    pos_coefs = all(v > 0 for v in coefs)
    rhs_one = abs(rhs - 1.0) <= 1e-9
    if all_ones and all_binary and sense == "=" and rhs_one:
        return "SetPartitioning"
    if all_ones and all_binary and sense == "<=" and rhs_one:
        return "SetPacking"
    if all_ones and all_binary and sense == ">=" and rhs_one:
        return "SetCovering"
    if all_ones and all_binary and sense == "=" and integral(rhs) and rhs >= 2:
        return "Cardinality"
    if all_binary and int_coefs and sense == "=":
        return "KnapsackEquality"
    if all_binary and int_coefs and pos_coefs and sense == "<=":
        return "Knapsack"
    if n_cont == 0 and int_coefs and sense == "<=":
        return "KnapsackInteger"
    if all_binary and pos_coefs and sense == "<=":
        return "BinaryPacking"
    if len(coefs) == 2 and n_bin == 1:
        if sense == ">=":
            return "VariableLowerBound"
        if sense == "<=":
            return "VariableUpperBound"
    if n_bin >= 1 and n_cont >= 1:
        return "MixedBinary"
    if n_bin + n_int >= 1:
        return "MixedInteger"
    return "Continuous"


# values near the rules' edges: 1 + 1e-10 and 1 + 1e-12 are within the
# tolerance of 1, 0.5 and 3.5 are not integral
COEFS = st.sampled_from([1.0, 1 + 1e-10, 0.5, 2.0, 7.0, -1.0, -3.0])
RHS = st.sampled_from([0.0, 1.0, 1 + 1e-12, 2.0, 3.5, -1.0])


TYPES = st.lists(st.sampled_from(VAR_TYPES), min_size=1, max_size=6)


@st.composite
def rows(draw, n_cols):
    """(columns, coefficients, sense, rhs) of a row of 1-6 entries."""
    cols = sorted(draw(st.sets(st.integers(0, n_cols - 1), min_size=1,
                               max_size=min(6, n_cols))))
    coefs = draw(st.lists(COEFS, min_size=len(cols), max_size=len(cols)))
    return cols, coefs, draw(st.sampled_from(SENSES)), draw(RHS)


@st.composite
def mixed_instances(draw):
    types = draw(TYPES)
    n = len(types)
    drawn = draw(st.lists(rows(n), min_size=1, max_size=10))
    inst = MipInstance(
        name="mixed", sense="minimize", obj_coeffs=np.ones(n),
        mat_rows=[i for i, (cols, *_) in enumerate(drawn) for _ in cols],
        mat_cols=[j for cols, *_ in drawn for j in cols],
        mat_vals=[v for _, coefs, *_ in drawn for v in coefs],
        row_senses=[SENSES.index(r[2]) for r in drawn],
        rhs=[r[3] for r in drawn], var_lb=np.zeros(n),
        var_ub=[1.0 if t == "binary" else 10.0 for t in types],
        var_types=list(map(VAR_TYPES.index, types)),
        row_names=[f"r{i}" for i in range(len(drawn))],
        col_names=[f"x{j}" for j in range(n)])
    return inst, types, drawn


class TestRuleTable:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_one_row_matches_reference(self, data):
        types = data.draw(TYPES)
        coefs = data.draw(st.lists(COEFS, min_size=len(types),
                                   max_size=len(types)))
        sense, rhs = data.draw(st.sampled_from(SENSES)), data.draw(RHS)
        assert one_row_class(coefs, types, sense, rhs) == \
            reference_class(coefs, types, sense, rhs)

    @settings(deadline=None, max_examples=150)
    @given(mixed_instances())
    def test_class_shares_match_reference_counts(self, drawn):
        inst, types, drawn_rows = drawn
        feats = extract_static(inst)
        found = [reference_class(coefs, [types[j] for j in cols], sense, rhs)
                 for cols, coefs, sense, rhs in drawn_rows]
        for c in CONSTRAINT_CLASSES:
            assert feats[c] == found.count(c) / len(drawn_rows)

    def test_calls_do_not_grow_with_rows(self):
        """Python-level calls in extract_static are the same at m and 4m
        rows: no work is done per row in Python."""
        def calls(inst):
            return count_calls(extract_static, inst)
        small, large = (gen_setcover(m, 60, 0.1, seed=0) for m in (50, 200))
        assert large.num_rows == 4 * small.num_rows
        assert calls(small) == calls(large)


class TestExtract:
    def test_one_by_one(self):
        feats = extract_static(one_by_one())
        assert feats["Rows"] == 0.0
        assert feats["Columns"] == 0.0
        assert feats["NonZeros"] == 1.0
        assert feats["Coefficient_oom"] == 0.0

    def test_binary_ratio(self):
        n = 8
        inst = MipInstance(
            name="ratio", sense="minimize", obj_coeffs=np.ones(n),
            mat_rows=np.zeros(n, dtype=int), mat_cols=np.arange(n),
            mat_vals=np.ones(n), row_senses=[LE], rhs=np.array([4.0]),
            var_lb=np.zeros(n), var_ub=np.ones(n),
            var_types=[BINARY] * 4 + [CONTINUOUS] * 4,
            row_names=["r"], col_names=[f"x{j}" for j in range(n)])
        feats = extract_static(inst)
        assert feats["Binaries"] == 0.5
        assert feats["Integers"] == 0.0

    def test_setcover_nonzeros_vs_file_scan(self):
        inst = gen_setcover(10, 20, 0.3, seed=0)
        feats = extract_static(inst)
        # independent count: scan the serialized file for constraint entries
        text = write_mps(inst)
        columns = text.split("COLUMNS\n")[1].split("RHS\n")[0]
        nnz = sum(1 for line in columns.splitlines()
                  if "cover_" in line)
        assert abs(feats["NonZeros"] - nnz / 200) < 1e-12

    def test_rows_columns_are_logs(self):
        inst = gen_setcover(10, 20, 0.3, seed=1)
        feats = extract_static(inst)
        assert feats["Rows"] == math.log(10)
        assert feats["Columns"] == math.log(20)

    def test_ratio_groups_sum_to_one(self):
        inst = gen_indset(10, 0.4, seed=4)
        feats = extract_static(inst)
        senses = feats["LessThan"] + feats["GreaterThan"] + feats["Equality"]
        classes = sum(feats[c] for c in CONSTRAINT_CLASSES)
        assert abs(senses - 1.0) < 1e-12
        assert abs(classes - 1.0) < 1e-12
        for name in STATIC_FEATURE_NAMES:
            if name.endswith("_oom") or name in ("Rows", "Columns"):
                continue
            assert 0.0 <= feats[name] <= 1.0

    def test_symmetries_constant_zero(self):
        assert extract_static(one_by_one())["Symmetries"] == 0.0

    def test_oom_features(self):
        inst = MipInstance(
            name="oom", sense="minimize", obj_coeffs=np.array([2.0, -20.0]),
            mat_rows=np.array([0, 0]), mat_cols=np.array([0, 1]),
            mat_vals=np.array([0.5, -50.0]), row_senses=[LE],
            rhs=np.array([4.0]), var_lb=np.zeros(2), var_ub=np.ones(2) * 9,
            var_types=[CONTINUOUS] * 2, row_names=["r"],
            col_names=["x", "y"])
        feats = extract_static(inst)
        assert abs(feats["Coefficient_oom"] - math.log(100.0)) < 1e-12
        assert feats["RightHandSide_oom"] == 0.0
        assert abs(feats["Objective_oom"] - math.log(10.0)) < 1e-12

    def test_coefficient_oom_scale_invariant(self):
        inst = gen_setcover(5, 9, 0.5, seed=6)
        scaled = MipInstance(
            name=inst.name, sense=inst.sense, obj_coeffs=inst.obj_coeffs,
            mat_rows=inst.mat_rows, mat_cols=inst.mat_cols,
            mat_vals=inst.mat_vals * 37.5, row_senses=inst.row_senses,
            rhs=inst.rhs, var_lb=inst.var_lb, var_ub=inst.var_ub,
            var_types=inst.var_types, row_names=inst.row_names,
            col_names=inst.col_names)
        a = extract_static(inst)
        b = extract_static(scaled)
        assert a["Coefficient_oom"] == b["Coefficient_oom"]

    def test_degenerate_rejected(self):
        inst = MipInstance(
            name="deg", sense="minimize", obj_coeffs=np.array([1.0]),
            mat_rows=np.array([], dtype=int), mat_cols=np.array([], dtype=int),
            mat_vals=np.array([]), row_senses=[], rhs=np.array([]),
            var_lb=np.zeros(1), var_ub=np.ones(1), var_types=[CONTINUOUS],
            row_names=[], col_names=["x"])
        with pytest.raises(DegenerateInstanceError):
            extract_static(inst)
        empty_row = MipInstance(
            name="deg", sense="minimize", obj_coeffs=np.array([1.0]),
            mat_rows=np.array([0]), mat_cols=np.array([0]),
            mat_vals=np.array([1.0]), row_senses=[LE, LE],
            rhs=np.array([1.0, 1.0]), var_lb=np.zeros(1), var_ub=np.ones(1),
            var_types=[CONTINUOUS], row_names=["r0", "r1"], col_names=["x"])
        with pytest.raises(DegenerateInstanceError,
                           match=r"row 'r1' \(index 1\) has no nonzeros"):
            extract_static(empty_row)

    def test_permutation_invariance_exact(self):
        for inst_seed in range(10):
            inst = gen_setcover(6 + inst_seed, 10 + inst_seed, 0.4,
                                seed=inst_seed)
            base = extract_static(inst)
            for perm_seed in range(1, 4):
                permuted, _ = permute_instance(inst, perm_seed)
                assert extract_static(permuted) == base


class TestCsv:
    def test_header_uses_names_verbatim(self):
        feats = extract_static(one_by_one())
        text = static_features_csv([("unit", feats)])
        header = text.splitlines()[0]
        assert header == ",".join(["instance"] + STATIC_FEATURE_NAMES)
        assert len(text.splitlines()) == 2

    def test_rejects_foreign_layout(self):
        feats = extract_static(one_by_one())
        feats.names = tuple(reversed(feats.names))
        with pytest.raises(ValueError):
            static_features_csv([("unit", feats)])
