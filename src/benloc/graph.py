"""Bipartite variable/constraint graph construction and export.

Constraint nodes carry interval bounds derived from the row sense
(ax <= b -> (-inf, b], ax >= b -> [b, +inf), ax = b -> [b, b]) plus 0/1
indicators hlb/hub marking which side is finite.  Variable nodes carry bound
indicators, the objective coefficient, the bounds themselves and a type tag
(binary folds into "integer").  Edges are the nonzero matrix coefficients.

The export format is deterministic JSON with one node or edge per line;
infinite bounds are written as the strings "inf"/"-inf" so the file stays
standard JSON.  No embeddings or message passing happen here: the file is the
boundary to external graph-learning pipelines.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .instance import fields_equal

INF = math.inf

FORMAT_TAG = "benloc-graph-v1"


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
    var_types: list  # "integer" | "continuous"
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
    senses = np.array(inst.row_senses, dtype="U2")
    has_lb, has_ub = senses != "<=", senses != ">="
    var_hlb = (inst.var_lb > -INF).astype(np.int64)
    var_hub = (inst.var_ub < INF).astype(np.int64)
    var_types = ["continuous" if t == "continuous" else "integer"
                 for t in inst.var_types]

    return BipartiteGraph(
        con_lb=np.where(has_lb, inst.rhs, -INF),
        con_ub=np.where(has_ub, inst.rhs, INF),
        con_hlb=has_lb.astype(np.int64),
        con_hub=has_ub.astype(np.int64),
        var_hlb=var_hlb,
        var_hub=var_hub,
        var_obj=inst.obj_coeffs.copy(),
        var_lb=inst.var_lb.copy(),
        var_ub=inst.var_ub.copy(),
        var_types=var_types,
        edge_con=inst.mat_rows.copy(),
        edge_var=inst.mat_cols.copy(),
        edge_weight=inst.mat_vals.copy(),
    )


def _enc(v):
    if v == INF:
        return '"inf"'
    if v == -INF:
        return '"-inf"'
    return repr(float(v))


def _dec(v):
    if isinstance(v, str):
        return INF if v == "inf" else -INF
    return float(v)


def export_graph(g):
    """Serialize a graph: node tables, then one edge per line. Valid JSON."""
    lines = ["{", f'"format": "{FORMAT_TAG}",', '"constraint_nodes": [']
    con = [f"[{_enc(g.con_lb[i])}, {_enc(g.con_ub[i])}, "
           f"{int(g.con_hlb[i])}, {int(g.con_hub[i])}]"
           for i in range(g.num_constraints)]
    lines.append(",\n".join(con))
    lines.append('],')
    lines.append('"variable_nodes": [')
    var = [f"[{int(g.var_hlb[j])}, {int(g.var_hub[j])}, {_enc(g.var_obj[j])}, "
           f"{_enc(g.var_lb[j])}, {_enc(g.var_ub[j])}, \"{g.var_types[j]}\"]"
           for j in range(g.num_variables)]
    lines.append(",\n".join(var))
    lines.append('],')
    lines.append('"edges": [')
    edges = [f"[{int(g.edge_con[e])}, {int(g.edge_var[e])}, {_enc(g.edge_weight[e])}]"
             for e in range(g.num_edges)]
    lines.append(",\n".join(edges))
    lines.append(']')
    lines.append("}")
    return "\n".join(lines) + "\n"


def import_graph(text):
    """Inverse of export_graph."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    d = json.loads(text)
    if d.get("format") != FORMAT_TAG:
        raise ValueError(f"unknown graph format {d.get('format')!r}")
    con = d["constraint_nodes"]
    var = d["variable_nodes"]
    edges = d["edges"]
    return BipartiteGraph(
        con_lb=np.array([_dec(r[0]) for r in con]),
        con_ub=np.array([_dec(r[1]) for r in con]),
        con_hlb=np.array([int(r[2]) for r in con], dtype=np.int64),
        con_hub=np.array([int(r[3]) for r in con], dtype=np.int64),
        var_hlb=np.array([int(r[0]) for r in var], dtype=np.int64),
        var_hub=np.array([int(r[1]) for r in var], dtype=np.int64),
        var_obj=np.array([_dec(r[2]) for r in var]),
        var_lb=np.array([_dec(r[3]) for r in var]),
        var_ub=np.array([_dec(r[4]) for r in var]),
        var_types=[r[5] for r in var],
        edge_con=np.array([int(e[0]) for e in edges], dtype=np.int64),
        edge_var=np.array([int(e[1]) for e in edges], dtype=np.int64),
        edge_weight=np.array([float(e[2]) for e in edges]),
    )


def canonical_signature(g):
    """Order-independent signature: a SHA-256 digest of the constraint nodes
    and one of the variable nodes.  The digests are equal for graphs that
    differ only by a relabeling of constraint and variable indices, or by
    -0.0 in place of 0.0."""
    types = sorted(set(g.var_types))
    var_type = np.fromiter(map({t: k for k, t in enumerate(types)}.__getitem__,
                               g.var_types), float, g.num_variables)
    return (_nodes_digest((g.con_lb, g.con_ub, g.con_hlb, g.con_hub),
                          g.edge_con, g.edge_weight, b""),
            _nodes_digest((g.var_hlb, g.var_hub, g.var_obj, g.var_lb, g.var_ub,
                           var_type), g.edge_var, g.edge_weight,
                          "\0".join(types).encode()))


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
