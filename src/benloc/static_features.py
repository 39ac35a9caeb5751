"""Handcrafted static features: matrix/variable counts, constraint-type and
sense ratios, and order-of-magnitude scaling features.

Feature order is fixed and exported as STATIC_FEATURE_NAMES; the CSV emitter
uses these names verbatim as the header.  All ratio features live in [0, 1],
and every feature is exactly invariant under row/column permutation (counts,
ratios and extrema only, no order-dependent float sums).  Row senses and
variable types are read as MipInstance's int8 codes.

The Symmetries column is emitted as a constant 0: detecting symmetry orbits
needs a solver-internal detector, which is out of scope here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .instance import BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, SENSES

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


def _integral(x):
    return np.abs(x - np.round(x)) <= _INT_TOL


def _class_index(starts, coefs, is_bin, is_cont, senses, rhs):
    """Index into CONSTRAINT_CLASSES of every row, the first of its rules
    that holds; row i holds entries starts[i]:starts[i + 1] (none empty)
    and has the sense code senses[i]."""
    # per row, whether some and whether all of its entries are of a kind;
    # bool throughout, so temporaries stay near one byte per entry and kind
    some_bin, some_cont = np.logical_or.reduceat(
        np.stack([is_bin, is_cont], axis=1), starts).T
    all_binary, all_cont, ones, int_coefs, pos_coefs = np.logical_and.reduceat(
        np.stack([is_bin, is_cont, np.abs(coefs - 1.0) <= _INT_TOL,
                  _integral(coefs), coefs > 0], axis=1), starts).T
    unit = all_binary & ones  # binaries, every coefficient 1
    rhs_one = np.abs(rhs - 1.0) <= _INT_TOL
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    size = np.diff(np.append(starts, len(coefs)))
    pair = (size == 2) & some_bin & ~all_binary  # one binary, one other
    rules = [  # in CONSTRAINT_CLASSES order; Continuous when none holds
        unit & eq & rhs_one,  # SetPartitioning
        unit & le & rhs_one,  # SetPacking
        unit & ge & rhs_one,  # SetCovering
        unit & eq & _integral(rhs) & (rhs >= 2),  # Cardinality
        all_binary & int_coefs & eq,  # KnapsackEquality
        all_binary & int_coefs & pos_coefs & le,  # Knapsack
        ~some_cont & int_coefs & le,  # KnapsackInteger
        all_binary & pos_coefs & le,  # BinaryPacking
        pair & ge,  # VariableLowerBound
        pair & le,  # VariableUpperBound
        some_bin & some_cont,  # MixedBinary
        ~all_cont,  # MixedInteger
    ]
    return np.select(rules, range(len(rules)), len(rules))


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

    is_bin, is_cont = inst.var_types == BINARY, inst.var_types == CONTINUOUS
    classes = _class_index(inst.row_ptr[:-1], inst.mat_vals,
                           is_bin[inst.mat_cols], is_cont[inst.mat_cols],
                           inst.row_senses, inst.rhs)
    values = np.concatenate([  # in STATIC_FEATURE_NAMES order
        [math.log(m), math.log(n), inst.nnz / (m * n),
         0.0,  # Symmetries: no symmetry detector wired in
         np.count_nonzero(is_bin) / n,
         np.count_nonzero(inst.var_types == INTEGER) / n],
        np.bincount(inst.row_senses, minlength=len(SENSES)) / m,
        np.bincount(classes, minlength=len(CONSTRAINT_CLASSES)) / m,
        [_oom(inst.mat_vals), _oom(inst.rhs), _oom(inst.obj_coeffs)]])
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
