"""Sparse MIP instance model, MPS reading/writing, and permutation augmentation.

The MPS reader accepts both fixed- and free-format files (section headers in
column 1, data lines indented, names without embedded blanks).  Each data line
takes effect as it is read, so BOUNDS lines apply in file order, each as its
type's entry in the _BOUNDS table says.  A negative UP bound also sets the
lower bound to -inf unless the column already has a LO, MI or FX bound (the
classic MPS convention).  RANGES rows are expanded into two plain inequality
rows so that every stored row carries a single sense.  The writer always emits
free format and is deterministic; it writes a LO line for a lower bound of 0
under a negative upper bound, which the convention would otherwise free.

Permutations are drawn from numpy's PCG64 generator so the same seed produces
the same row/column swap on every platform.  Seed 0 is reserved for the
identity permutation.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

INF = math.inf

SENSES = ("<=", ">=", "=")
VAR_TYPES = ("continuous", "binary", "integer")

_MPS_SENSE = {"L": "<=", "G": ">=", "E": "="}
_SENSE_MPS = {v: k for k, v in _MPS_SENSE.items()}
_SECTIONS = ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS",
             "ENDATA")
# bound type -> (lower, upper, integer): each side is a constant, _VALUE for
# the line's value, or None to leave it unchanged; a line carries a value
# exactly when its type uses one
_VALUE = "value"
_BOUNDS = {
    "UP": (None, _VALUE, False),
    "LO": (_VALUE, None, False),
    "FX": (_VALUE, _VALUE, False),
    "FR": (-INF, INF, False),
    "MI": (-INF, None, False),
    "PL": (None, INF, False),
    "BV": (0.0, 1.0, True),
    "UI": (None, _VALUE, True),
    "LI": (_VALUE, None, True),
}


class MpsError(ValueError):
    """Base class for MPS reading problems; names the line when known."""

    def __init__(self, message, line_no=None):
        self.reason = message
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class MpsParseError(MpsError):
    """Malformed section header or unreadable data line."""


class MpsSemanticError(MpsError):
    """Well-formed MPS referencing undeclared names or duplicating entries."""


class InvalidInstanceError(ValueError):
    """An instance violating the model invariants."""


def fields_equal(a, b):
    """Dataclass equality: the same type and every field equal, arrays
    compared by value."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in pairs)


@dataclass(eq=False)
class MipInstance:
    """A sparse MIP model: min/max c'x s.t. Ax {<=,>=,=} b, lb <= x <= ub."""

    name: str
    sense: str  # "minimize" | "maximize"
    obj_coeffs: np.ndarray  # (n,)
    mat_rows: np.ndarray  # (nnz,) int
    mat_cols: np.ndarray  # (nnz,) int
    mat_vals: np.ndarray  # (nnz,) float
    row_senses: list  # length m over SENSES
    rhs: np.ndarray  # (m,)
    var_lb: np.ndarray  # (n,)
    var_ub: np.ndarray  # (n,)
    var_types: list  # length n over VAR_TYPES
    row_names: list
    col_names: list
    obj_name: str = "OBJ"
    row_ptr: np.ndarray = field(init=False, repr=False)  # (m + 1,) row starts

    def __post_init__(self):
        self.obj_coeffs = np.asarray(self.obj_coeffs, dtype=float)
        self.mat_rows = np.asarray(self.mat_rows, dtype=np.int64)
        self.mat_cols = np.asarray(self.mat_cols, dtype=np.int64)
        self.mat_vals = np.asarray(self.mat_vals, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.var_lb = np.asarray(self.var_lb, dtype=float)
        self.var_ub = np.asarray(self.var_ub, dtype=float)
        self.row_senses = list(self.row_senses)
        self.var_types = list(self.var_types)
        self.row_names = list(self.row_names)
        self.col_names = list(self.col_names)
        self._canonicalize()
        self.validate()

    def _canonicalize(self):
        # keep coordinate entries sorted by (row, col) so equality is structural
        # and row i's entries are row_ptr[i]:row_ptr[i + 1]
        if self.nnz:
            order = np.lexsort((self.mat_cols, self.mat_rows))
            self.mat_rows = self.mat_rows[order]
            self.mat_cols = self.mat_cols[order]
            self.mat_vals = self.mat_vals[order]
        self.row_ptr = np.searchsorted(self.mat_rows, np.arange(self.num_rows + 1))
        # an integer variable with bounds inside [0, 1] is binary
        for j, (t, lo, hi) in enumerate(zip(self.var_types, self.var_lb, self.var_ub)):
            if t == "integer" and 0 <= lo and hi <= 1:
                self.var_types[j] = "binary"

    def validate(self):
        m, n = self.num_rows, self.num_cols
        if len(self.rhs) != m or len(self.row_names) != m:
            raise InvalidInstanceError("row arrays disagree on m")
        if not (len(self.obj_coeffs) == len(self.var_lb) == len(self.var_ub)
                == len(self.var_types) == len(self.col_names) == n):
            raise InvalidInstanceError("column arrays disagree on n")
        for what, values in (("objective coefficient", self.obj_coeffs),
                             ("matrix coefficient", self.mat_vals),
                             ("rhs", self.rhs)):
            if not np.isfinite(values).all():
                raise InvalidInstanceError(f"non-finite {what}")
        if np.isnan(self.var_lb).any() or np.isnan(self.var_ub).any():
            raise InvalidInstanceError("NaN variable bound")
        # a lower bound of +inf or an upper bound of -inf admits no value
        for side, bounds, bad in (("lower", self.var_lb, INF),
                                  ("upper", self.var_ub, -INF)):
            if (bounds == bad).any():
                name = self.col_names[int(np.argmax(bounds == bad))]
                raise InvalidInstanceError(
                    f"column {name!r} has {side} bound {bad:+}")
        if self.sense not in ("minimize", "maximize"):
            raise InvalidInstanceError(f"bad sense {self.sense!r}")
        for s in self.row_senses:
            if s not in SENSES:
                raise InvalidInstanceError(f"bad row sense {s!r}")
        for t in self.var_types:
            if t not in VAR_TYPES:
                raise InvalidInstanceError(f"bad var type {t!r}")
        if self.nnz:
            if self.mat_rows.min(initial=0) < 0 or (m and self.mat_rows.max() >= m):
                raise InvalidInstanceError("matrix row index out of range")
            if self.mat_cols.min(initial=0) < 0 or (n and self.mat_cols.max() >= n):
                raise InvalidInstanceError("matrix col index out of range")
            keys = self.mat_rows * max(n, 1) + self.mat_cols
            if len(np.unique(keys)) != self.nnz:
                raise InvalidInstanceError("duplicate (row, col) entries")
            if np.any(self.mat_vals == 0.0):
                raise InvalidInstanceError("stored zero coefficient")
        for j, t in enumerate(self.var_types):
            if t == "binary" and not (0 <= self.var_lb[j] and self.var_ub[j] <= 1):
                raise InvalidInstanceError(
                    f"binary variable {self.col_names[j]} has bounds outside [0, 1]")

    @property
    def num_rows(self):
        return len(self.row_senses)

    @property
    def num_cols(self):
        return len(self.obj_coeffs)

    @property
    def nnz(self):
        return len(self.mat_vals)

    def row_entries(self, i):
        """Column indices and coefficients of row i."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.mat_cols[lo:hi], self.mat_vals[lo:hi]

    __eq__ = fields_equal


@dataclass
class PermutationRecord:
    """Row/column bijections applied to an instance, plus the seed that made them."""

    row_perm: np.ndarray
    col_perm: np.ndarray
    seed: int

    def __post_init__(self):
        self.row_perm = np.asarray(self.row_perm, dtype=np.int64)
        self.col_perm = np.asarray(self.col_perm, dtype=np.int64)
        for p in (self.row_perm, self.col_perm):
            if not np.array_equal(np.sort(p), np.arange(len(p))):
                raise InvalidInstanceError("not a permutation")

    def is_identity(self):
        return (np.array_equal(self.row_perm, np.arange(len(self.row_perm)))
                and np.array_equal(self.col_perm, np.arange(len(self.col_perm))))

    def to_json(self):
        return json.dumps({
            "seed": int(self.seed),
            "row_perm": [int(i) for i in self.row_perm],
            "col_perm": [int(j) for j in self.col_perm],
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(np.array(d["row_perm"]), np.array(d["col_perm"]), d["seed"])


# ---------------------------------------------------------------------------
# Reading files


def read_file(path, parse):
    """parse(text) of the file at path, the reader of every input file; a
    ValueError or KeyError from parse, or text that is not UTF-8, gets
    "<path>: " and .path added."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (ValueError, KeyError) as exc:
        if isinstance(exc, UnicodeDecodeError):  # its str() ignores .args
            exc = ValueError(f"not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})")
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        exc.args = (f"{path}: {reason}",)
        exc.path = path
        raise exc


def read_mps(path):
    """parse_mps of the file at path; an MpsError names the file."""
    return read_file(path, parse_mps)


def parse_mps(text):
    """Parse fixed- or free-format MPS into a MipInstance."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    name = ""
    sense = "minimize"
    obj_name = None
    free_rows = set()  # extra N rows, dropped with a warning
    row_index = {}  # name -> row, in declaration order
    row_senses = []
    col_index = {}  # name -> column, in declaration order
    col_integer = []
    obj_coeffs = []
    lb = []
    ub = []
    has_lower = set()  # columns with a LO, MI or FX bound so far
    entries = {}  # (row, col) -> value
    vectors = {"RHS": {}, "RANGES": {}}  # section -> {row: value}
    integral = False
    section = None
    pending_objsense = False
    saw_rows = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        toks = raw.split()
        if not raw[0].isspace():  # a section header
            head = toks[0].upper()
            if head not in _SECTIONS:
                raise MpsParseError(f"unknown section header {toks[0]!r}", line_no)
            if head == "ENDATA":
                break
            if head == "NAME":
                name = toks[1] if len(toks) > 1 else ""
            elif head == "OBJSENSE" and len(toks) > 1:
                sense = "maximize" if toks[1].upper().startswith("MAX") else "minimize"
            # NAME takes no data lines
            section = None if head == "NAME" else head
            pending_objsense = head == "OBJSENSE" and len(toks) == 1
            saw_rows = saw_rows or head == "ROWS"
            continue

        if section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError("ROWS line needs a sense and a name", line_no)
            rtype, rname = toks[0].upper(), toks[1]
            if rtype == "N":
                if obj_name is None:
                    obj_name = rname
                else:
                    warnings.warn(f"dropping extra free row {rname!r}")
                    free_rows.add(rname)
            elif rtype in _MPS_SENSE:
                if rname in row_index:
                    raise MpsSemanticError(f"duplicate row {rname!r}", line_no)
                row_index[rname] = len(row_senses)
                row_senses.append(_MPS_SENSE[rtype])
            else:
                raise MpsParseError(f"unknown row sense {rtype!r}", line_no)
        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1].strip("'\"").upper() == "MARKER":
                marker = toks[2].strip("'\"").upper()
                if marker == "INTORG":
                    integral = True
                elif marker == "INTEND":
                    integral = False
                else:
                    raise MpsParseError(f"unknown marker {toks[2]!r}", line_no)
                continue
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError("COLUMNS line needs name plus (row, value) pairs",
                                    line_no)
            cname = toks[0]
            if cname not in col_index:
                col_index[cname] = len(obj_coeffs)
                col_integer.append(integral)
                obj_coeffs.append(0.0)
                lb.append(0.0)
                ub.append(INF)
            j = col_index[cname]
            for k in range(1, len(toks), 2):
                rname = toks[k]
                val = _number(toks[k + 1], "coefficient", line_no)
                if rname == obj_name:
                    obj_coeffs[j] = val
                    continue
                if rname in free_rows:
                    continue
                if rname not in row_index:
                    raise MpsSemanticError(f"undeclared row {rname!r}", line_no)
                if val == 0.0:
                    warnings.warn(
                        f"dropping explicit zero coefficient at ({rname}, {cname})")
                    continue
                key = (row_index[rname], j)
                if key in entries:
                    raise MpsSemanticError(
                        f"duplicate entry for ({rname}, {cname})", line_no)
                entries[key] = val
        elif section in vectors:
            # an optional set name (an odd token count), then (row, value) pairs
            rest = toks[len(toks) % 2:]
            if not rest:
                raise MpsParseError(f"malformed {section} line", line_no)
            for k in range(0, len(rest), 2):
                rname = rest[k]
                val = _number(rest[k + 1], f"{section} value", line_no)
                if rname == obj_name or rname in free_rows:
                    warnings.warn(f"{section} entry on free row {rname!r} ignored")
                elif rname not in row_index:
                    raise MpsSemanticError(f"undeclared row {rname!r}", line_no)
                else:
                    vectors[section][row_index[rname]] = val
        elif section == "BOUNDS":
            if len(toks) < 2:
                raise MpsParseError("short BOUNDS line", line_no)
            btype = toks[0].upper()
            if btype not in _BOUNDS:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)
            lower, upper, integer = _BOUNDS[btype]
            n_args = 2 if _VALUE in (lower, upper) else 1  # column [, value]
            if not 1 <= len(toks) - n_args <= 2:  # type [, bound-set name]
                raise MpsParseError("malformed BOUNDS line", line_no)
            cname = toks[-n_args]
            if cname not in col_index:
                raise MpsSemanticError(f"undeclared column {cname!r}", line_no)
            j = col_index[cname]
            val = (_number(toks[-1], "bound value", line_no, infinite=True)
                   if n_args == 2 else None)
            if lower is not None:
                lb[j] = val if lower is _VALUE else lower
            if upper is not None:
                ub[j] = val if upper is _VALUE else upper
            col_integer[j] = col_integer[j] or integer
            if btype in ("LO", "MI", "FX"):
                has_lower.add(j)
            elif btype == "UP" and val < 0 and j not in has_lower:
                lb[j] = -INF  # classic MPS convention for negative UP
        elif section == "OBJSENSE":
            if pending_objsense:
                sense = "maximize" if toks[0].upper().startswith("MAX") else "minimize"
                pending_objsense = False
        else:
            raise MpsParseError("data line before any section header", line_no)

    if not saw_rows:
        raise MpsParseError("missing ROWS section")
    if obj_name is None:
        raise MpsParseError("missing objective (N) row")

    row_names = list(row_index)
    m = len(row_names)
    rhs = [vectors["RHS"].get(i, 0.0) for i in range(m)]

    # expand RANGES into an extra inequality row each, copying the row's
    # entries; R = 0 pins any row to its rhs, an equality
    ranged = []
    for i, r in sorted(vectors["RANGES"].items()):
        s, b = row_senses[i], rhs[i]
        if r == 0:
            row_senses[i] = "="
            continue
        ranged.append(i)
        if s == "<=":
            new_sense, new_rhs = ">=", b - abs(r)
        elif s == ">=":
            new_sense, new_rhs = "<=", b + abs(r)
        else:  # equality becomes [min(b, b+r), max(b, b+r)]
            lo, hi = (b, b + r) if r > 0 else (b + r, b)
            row_senses[i] = ">="
            rhs[i] = lo
            new_sense, new_rhs = "<=", hi
        row_names.append(row_names[i] + "__rng")
        row_senses.append(new_sense)
        rhs.append(new_rhs)

    rows, cols = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T
    vals = np.array(list(entries.values()), dtype=float)
    copy_to = np.full(m, -1)
    copy_to[ranged] = np.arange(m, len(row_names))
    copied = np.flatnonzero(copy_to[rows] >= 0)

    return MipInstance(
        name=name,
        sense=sense,
        obj_coeffs=obj_coeffs,
        mat_rows=np.concatenate([rows, copy_to[rows[copied]]]),
        mat_cols=np.concatenate([cols, cols[copied]]),
        mat_vals=np.concatenate([vals, vals[copied]]),
        row_senses=row_senses,
        rhs=rhs,
        var_lb=lb,
        var_ub=ub,
        var_types=["integer" if t else "continuous" for t in col_integer],
        row_names=row_names,
        col_names=list(col_index),
        obj_name=obj_name,
    )


def _number(sval, what, line_no, infinite=False):
    """The number a data token holds; one that is not a number, is NaN, or
    is infinite without the infinite flag is refused naming the line."""
    try:
        val = float(sval)
    except ValueError:
        raise MpsParseError(f"bad {what} {sval!r}", line_no)
    if math.isfinite(val) or (infinite and not math.isnan(val)):
        return val
    reason = "NaN" if math.isnan(val) else "infinite"
    raise MpsParseError(f"{what} {sval!r} is {reason}", line_no)


# ---------------------------------------------------------------------------
# MPS writing


def _fmt(v):
    if v == INF:
        return "1e308"
    if v == -INF:
        return "-1e308"
    return repr(float(v))


def write_mps(inst):
    """Serialize to free-format MPS. Deterministic: equal instances, equal bytes."""
    out = []
    out.append(f"NAME          {inst.name}")
    if inst.sense == "maximize":
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {inst.obj_name}")
    for sense, rname in zip(inst.row_senses, inst.row_names):
        out.append(f" {_SENSE_MPS[sense]}  {rname}")

    by_col = {j: [] for j in range(inst.num_cols)}
    for i, j, v in zip(inst.mat_rows, inst.mat_cols, inst.mat_vals):
        by_col[int(j)].append((int(i), float(v)))

    out.append("COLUMNS")
    in_int = False
    marker = 0
    for j, cname in enumerate(inst.col_names):
        want_int = inst.var_types[j] in ("binary", "integer")
        if want_int != in_int:
            tag = "INTORG" if want_int else "INTEND"
            out.append(f"    MARKER{marker}  'MARKER'  '{tag}'")
            marker += 1
            in_int = want_int
        # a column with no matrix entry is declared by its objective entry
        if inst.obj_coeffs[j] != 0.0 or not by_col[j]:
            out.append(f"    {cname}  {inst.obj_name}  {_fmt(inst.obj_coeffs[j])}")
        for i, v in by_col[j]:
            out.append(f"    {cname}  {inst.row_names[i]}  {_fmt(v)}")
    if in_int:
        out.append(f"    MARKER{marker}  'MARKER'  'INTEND'")

    out.append("RHS")
    for i, rname in enumerate(inst.row_names):
        if inst.rhs[i] != 0.0:
            out.append(f"    RHS  {rname}  {_fmt(inst.rhs[i])}")

    out.append("BOUNDS")
    for j, cname in enumerate(inst.col_names):
        lo, hi, t = inst.var_lb[j], inst.var_ub[j], inst.var_types[j]
        if t == "binary" and lo == 0.0 and hi == 1.0:
            out.append(f" BV BND  {cname}")
            continue
        if lo == hi:
            out.append(f" FX BND  {cname}  {_fmt(lo)}")
            continue
        if lo == -INF and hi == INF:
            out.append(f" FR BND  {cname}")
            continue
        # a negative UP line alone would also free the lower bound
        if lo == -INF:
            out.append(f" MI BND  {cname}")
        elif lo != 0.0 or t != "continuous" or hi < 0:
            out.append(f" LO BND  {cname}  {_fmt(lo)}")
        if hi != INF:
            out.append(f" UP BND  {cname}  {_fmt(hi)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Permutation augmentation


def apply_permutation(inst, row_perm, col_perm, seed=0):
    """Move row i to row_perm[i] and column j to col_perm[j]."""
    record = PermutationRecord(row_perm, col_perm, seed)
    rp, cp = record.row_perm, record.col_perm

    # new row k is old row inv_r[k]; new column k is old column inv_c[k]
    inv_r, inv_c = np.argsort(rp).tolist(), np.argsort(cp).tolist()
    permuted = MipInstance(
        name=inst.name,
        sense=inst.sense,
        obj_coeffs=inst.obj_coeffs[inv_c],
        mat_rows=rp[inst.mat_rows],
        mat_cols=cp[inst.mat_cols],
        mat_vals=inst.mat_vals.copy(),
        row_senses=[inst.row_senses[i] for i in inv_r],
        rhs=inst.rhs[inv_r],
        var_lb=inst.var_lb[inv_c],
        var_ub=inst.var_ub[inv_c],
        var_types=[inst.var_types[j] for j in inv_c],
        row_names=[inst.row_names[i] for i in inv_r],
        col_names=[inst.col_names[j] for j in inv_c],
        obj_name=inst.obj_name,
    )
    return permuted, record


def permute_instance(inst, seed):
    """Random row/column permutation; seed 0 is the identity."""
    m, n = inst.num_rows, inst.num_cols
    if seed == 0:
        row_perm = np.arange(m)
        col_perm = np.arange(n)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        row_perm = rng.permutation(m)
        col_perm = rng.permutation(n)
    return apply_permutation(inst, row_perm, col_perm, seed)
