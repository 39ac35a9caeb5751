"""Bipartite variable/constraint graph construction and its canonical
signature.

Constraint nodes carry interval bounds derived from the row sense
(ax <= b -> (-inf, b], ax >= b -> [b, +inf), ax = b -> [b, b]) plus 0/1
indicators hlb/hub marking which side is finite.  Variable nodes carry bound
indicators, the objective coefficient, the bounds themselves and a type flag,
1 for an integer or binary variable and 0 for a continuous one.  Edges are the
nonzero matrix coefficients.  No embeddings or message passing happen here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .instance import CONTINUOUS, GE, LE, fields_equal

INF = math.inf


@dataclass(eq=False)
class BipartiteGraph:
    con_lb: np.ndarray
    con_ub: np.ndarray
    con_hlb: np.ndarray  # 0/1
    con_hub: np.ndarray  # 0/1
    var_hlb: np.ndarray
    var_hub: np.ndarray
    var_obj: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    var_types: np.ndarray  # int8: 1 integer (or binary), 0 continuous
    edge_con: np.ndarray
    edge_var: np.ndarray
    edge_weight: np.ndarray

    @property
    def num_constraints(self):
        return len(self.con_lb)

    @property
    def num_variables(self):
        return len(self.var_obj)

    @property
    def num_edges(self):
        return len(self.edge_weight)

    __eq__ = fields_equal


def build_graph(inst):
    """Build the bipartite graph of a MipInstance."""
    has_lb, has_ub = inst.row_senses != LE, inst.row_senses != GE
    return BipartiteGraph(
        con_lb=np.where(has_lb, inst.rhs, -INF),
        con_ub=np.where(has_ub, inst.rhs, INF),
        con_hlb=has_lb.astype(np.int64),
        con_hub=has_ub.astype(np.int64),
        var_hlb=(inst.var_lb > -INF).astype(np.int64),
        var_hub=(inst.var_ub < INF).astype(np.int64),
        var_obj=inst.obj_coeffs.copy(),
        var_lb=inst.var_lb.copy(),
        var_ub=inst.var_ub.copy(),
        var_types=(inst.var_types != CONTINUOUS).astype(np.int8),
        edge_con=inst.mat_rows.copy(),
        edge_var=inst.mat_cols.copy(),
        edge_weight=inst.mat_vals.copy(),
    )


def canonical_signature(g):
    """Order-independent signature: a SHA-256 digest of the constraint nodes
    and one of the variable nodes.  The digests are equal for graphs that
    differ only by a relabeling of constraint and variable indices, or by
    -0.0 in place of 0.0."""
    # the variable head names the types present, and a node's type value is
    # the rank of its type among them
    present = np.flatnonzero(np.bincount(g.var_types, minlength=2))
    types = map(("continuous", "integer").__getitem__, present.tolist())
    return (_nodes_digest((g.con_lb, g.con_ub, g.con_hlb, g.con_hub),
                          g.edge_con, g.edge_weight, b""),
            _nodes_digest((g.var_hlb, g.var_hub, g.var_obj, g.var_lb, g.var_ub,
                           present.searchsorted(g.var_types)), g.edge_var,
                          g.edge_weight, "\0".join(types).encode()))


def _nodes_digest(fields, node, weight, head):
    """SHA-256 of head and the sorted keys of one side's nodes.  A node's key
    is its fields and its degree, then the weights of its edges in ascending
    order, all as float64 bytes with -0.0 made 0.0; the fixed-size part
    holds the degree, so the joined keys have one reading."""
    degree = np.bincount(node, minlength=len(fields[0]))
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone
    record = np.column_stack([*fields, degree]).astype(float) + 0.0
    heads = record.view(np.dtype((np.void, 8 * record.shape[1]))).ravel()
    weight = weight + 0.0
    weights = weight[np.lexsort((weight, node))].tobytes()
    ends = 8 * np.cumsum(degree)
    tails = map(weights.__getitem__, map(slice, (ends - 8 * degree).tolist(),
                                         ends.tolist()))
    digest = hashlib.sha256(head)
    digest.update(b"".join(sorted(map(bytes.__add__, heads.tolist(), tails))))
    return digest.digest()
