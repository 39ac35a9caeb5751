"""Handcrafted static features: matrix/variable counts, constraint-type and
sense ratios, and order-of-magnitude scaling features.

Feature order is fixed and exported as STATIC_FEATURE_NAMES; the CSV emitter
uses these names verbatim as the header.  All ratio features live in [0, 1],
and every feature is exactly invariant under row/column permutation (counts,
ratios and extrema only, no order-dependent float sums).

The Symmetries column is emitted as a constant 0: detecting symmetry orbits
needs a solver-internal detector, which is out of scope here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

CONSTRAINT_CLASSES = [
    "SetPartitioning",
    "SetPacking",
    "SetCovering",
    "Cardinality",
    "KnapsackEquality",
    "Knapsack",
    "KnapsackInteger",
    "BinaryPacking",
    "VariableLowerBound",
    "VariableUpperBound",
    "MixedBinary",
    "MixedInteger",
    "Continuous",
]

STATIC_FEATURE_NAMES = (
    ["Rows", "Columns", "NonZeros", "Symmetries", "Binaries", "Integers",
     "LessThan", "GreaterThan", "Equality"]
    + CONSTRAINT_CLASSES
    + ["Coefficient_oom", "RightHandSide_oom", "Objective_oom"]
)

_INT_TOL = 1e-9


class DegenerateInstanceError(ValueError):
    """Instance with no rows, no columns or an empty row; static features are
    undefined."""


@dataclass(eq=False)
class StaticFeatureVector:
    names: tuple
    values: np.ndarray

    def __post_init__(self):
        self.names = tuple(self.names)
        self.values = np.asarray(self.values, dtype=float)

    def __getitem__(self, name):
        return float(self.values[self.names.index(name)])

    def __eq__(self, other):
        if not isinstance(other, StaticFeatureVector):
            return NotImplemented
        return self.names == other.names and np.array_equal(self.values, other.values)

    def __len__(self):
        return len(self.values)


def _is_integral(x):
    return abs(x - round(x)) <= _INT_TOL


def classify_constraint(coefs, var_types, sense, rhs):
    """Map one row to its structural class. First matching rule wins."""
    coefs = np.asarray(coefs, dtype=float)
    if len(coefs) == 0:
        raise ValueError("constraint row has no nonzeros")
    n_bin = sum(t == "binary" for t in var_types)
    n_int = sum(t == "integer" for t in var_types)
    n_cont = sum(t == "continuous" for t in var_types)
    all_binary = n_bin == len(coefs)
    all_integral_vars = n_cont == 0
    all_ones = bool(np.all(np.abs(coefs - 1.0) <= _INT_TOL))
    int_coefs = all(_is_integral(v) for v in coefs)
    pos_coefs = bool(np.all(coefs > 0))

    if all_ones and all_binary and sense == "=" and abs(rhs - 1.0) <= _INT_TOL:
        return "SetPartitioning"
    if all_ones and all_binary and sense == "<=" and abs(rhs - 1.0) <= _INT_TOL:
        return "SetPacking"
    if all_ones and all_binary and sense == ">=" and abs(rhs - 1.0) <= _INT_TOL:
        return "SetCovering"
    if all_ones and all_binary and sense == "=" and _is_integral(rhs) and rhs >= 2:
        return "Cardinality"
    if all_binary and int_coefs and sense == "=":
        return "KnapsackEquality"
    if all_binary and int_coefs and pos_coefs and sense == "<=":
        return "Knapsack"
    if all_integral_vars and int_coefs and sense == "<=":
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


def _oom(values):
    """ln(max|v| / min|v|) over nonzero magnitudes; 0 when empty or max == min."""
    mags = np.abs(np.asarray(values, dtype=float))
    mags = mags[mags > 0]
    if len(mags) == 0:
        return 0.0
    lo, hi = mags.min(), mags.max()
    if lo == hi:
        return 0.0
    return math.log(hi / lo)


def extract_static(inst):
    """Compute the full static feature vector of an instance."""
    m, n = inst.num_rows, inst.num_cols
    if m == 0 or n == 0:
        raise DegenerateInstanceError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    empty = np.flatnonzero(np.diff(inst.row_ptr) == 0)
    if len(empty):
        i = int(empty[0])
        raise DegenerateInstanceError(
            f"row {inst.row_names[i]!r} (index {i}) has no nonzeros")

    feats = {}
    feats["Rows"] = math.log(m)
    feats["Columns"] = math.log(n)
    feats["NonZeros"] = inst.nnz / (m * n)
    feats["Symmetries"] = 0.0  # constant: no symmetry detector wired in
    n_bin = sum(t == "binary" for t in inst.var_types)
    n_int = sum(t == "integer" for t in inst.var_types)
    feats["Binaries"] = n_bin / n
    feats["Integers"] = n_int / n

    sense_counts = {"<=": 0, ">=": 0, "=": 0}
    class_counts = {c: 0 for c in CONSTRAINT_CLASSES}
    for i in range(m):
        cols, vals = inst.row_entries(i)
        sense = inst.row_senses[i]
        sense_counts[sense] += 1
        types = [inst.var_types[int(j)] for j in cols]
        cls = classify_constraint(vals, types, sense, inst.rhs[i])
        class_counts[cls] += 1
    feats["LessThan"] = sense_counts["<="] / m
    feats["GreaterThan"] = sense_counts[">="] / m
    feats["Equality"] = sense_counts["="] / m
    for c in CONSTRAINT_CLASSES:
        feats[c] = class_counts[c] / m

    feats["Coefficient_oom"] = _oom(inst.mat_vals)
    feats["RightHandSide_oom"] = _oom(inst.rhs)
    feats["Objective_oom"] = _oom(inst.obj_coeffs)

    values = np.array([feats[k] for k in STATIC_FEATURE_NAMES])
    return StaticFeatureVector(STATIC_FEATURE_NAMES, values)


def static_features_csv(named_vectors):
    """CSV with one row per instance; header uses the feature names verbatim."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["instance"] + STATIC_FEATURE_NAMES)
    for name, vec in named_vectors:
        if tuple(vec.names) != tuple(STATIC_FEATURE_NAMES):
            raise ValueError("feature vector with unexpected layout")
        writer.writerow([name] + [repr(float(v)) for v in vec.values])
    return buf.getvalue()
