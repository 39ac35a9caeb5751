import dataclasses
import math

import numpy as np
import pytest

from benloc.graph import build_graph, canonical_signature
from benloc.instance import (BINARY, CONTINUOUS, EQ, GE, LE, MipInstance,
                             permute_instance)
from benloc.synth import gen_setcover


def tiny_instance():
    return MipInstance(
        name="tiny", sense="minimize",
        obj_coeffs=np.array([1.0, 0.0]),
        mat_rows=np.array([0, 0]), mat_cols=np.array([0, 1]),
        mat_vals=np.array([2.0, -1.0]),
        row_senses=[LE], rhs=np.array([4.0]),
        var_lb=np.array([0.0, 0.0]), var_ub=np.array([1.0, 3.0]),
        var_types=[BINARY, CONTINUOUS],
        row_names=["c1"], col_names=["x", "y"])


class TestBuild:
    def test_counts(self):
        g = build_graph(tiny_instance())
        assert g.num_constraints == 1
        assert g.num_variables == 2
        assert g.num_edges == 2

    def test_sense_encodings(self):
        inst = MipInstance(
            name="senses", sense="minimize", obj_coeffs=np.ones(1),
            mat_rows=np.array([0, 1, 2]), mat_cols=np.zeros(3, dtype=int),
            mat_vals=np.array([1.0, 2.0, 3.0]),
            row_senses=[LE, GE, EQ], rhs=np.array([4.0, 2.0, 5.0]),
            var_lb=np.zeros(1), var_ub=np.ones(1), var_types=[CONTINUOUS],
            row_names=["a", "b", "c"], col_names=["x"])
        g = build_graph(inst)
        assert g.con_lb[0] == -math.inf and g.con_ub[0] == 4.0
        assert (g.con_hlb[0], g.con_hub[0]) == (0, 1)
        assert g.con_lb[1] == 2.0 and g.con_ub[1] == math.inf
        assert (g.con_hlb[1], g.con_hub[1]) == (1, 0)
        assert g.con_lb[2] == g.con_ub[2] == 5.0
        assert (g.con_hlb[2], g.con_hub[2]) == (1, 1)

    def test_binary_folds_into_integer(self):
        g = build_graph(tiny_instance())
        assert g.var_types.dtype == np.int8
        assert g.var_types.tolist() == [1, 0]

    def test_degree_sums_equal_nnz(self):
        inst = gen_setcover(7, 13, 0.4, seed=3)
        g = build_graph(inst)
        con_deg = np.bincount(g.edge_con, minlength=g.num_constraints)
        var_deg = np.bincount(g.edge_var, minlength=g.num_variables)
        assert con_deg.sum() == var_deg.sum() == inst.nnz


class TestSignature:
    def test_invariant_under_permutation(self):
        inst = gen_setcover(8, 14, 0.4, seed=5)
        base = canonical_signature(build_graph(inst))
        for seed in range(1, 5):
            permuted, _ = permute_instance(inst, seed)
            assert canonical_signature(build_graph(permuted)) == base

    def test_distinguishes_different_instances(self):
        a = canonical_signature(build_graph(gen_setcover(8, 14, 0.4, seed=5)))
        b = canonical_signature(build_graph(gen_setcover(8, 14, 0.4, seed=6)))
        assert a != b

    def test_negative_zero_equals_zero(self):
        g = build_graph(tiny_instance())
        g.edge_weight[1] = 0.0  # a graph built by hand may hold a zero weight
        negative = dataclasses.replace(g, **{
            key: np.where(getattr(g, key) == 0.0, -0.0, getattr(g, key))
            for key in ("var_obj", "var_lb", "edge_weight")})
        assert np.signbit(negative.var_lb).all()
        assert canonical_signature(negative) == canonical_signature(g)

    @pytest.mark.parametrize("key, index, value", [
        ("edge_weight", 3, 2.5), ("var_ub", 4, 7.0), ("con_lb", 2, -9.0),
        pytest.param("var_types", 0, CONTINUOUS,
                     id="var_types-0-continuous")])
    def test_one_changed_field_changes_the_signature(self, key, index, value):
        g = build_graph(gen_setcover(6, 9, 0.5, seed=2))
        changed = getattr(g, key).copy()
        assert changed[index] != value
        changed[index] = value
        assert (canonical_signature(dataclasses.replace(g, **{key: changed}))
                != canonical_signature(g))
