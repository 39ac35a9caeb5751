"""A line-at-a-time MPS reader: the differential oracle for parse_mps.

This is the reader benloc shipped before parse_mps worked on token arrays
(it applies each data line as it reads it).  parse_mps promises the same
instance, the same exception class, message and line number, and the same
warnings in the same order; tests/test_instance.py checks that promise on
mutated texts.  It shares only the error classes, MipInstance and the SENSES
and VAR_TYPES tuples with benloc.instance, so a change to the vectorized
reader's tables or helpers does not change the oracle.  Senses and types are
strings up to the final MipInstance call, which turns them into codes.
"""

import math
import warnings

import numpy as np

from benloc.instance import (SENSES, VAR_TYPES, MipInstance, MpsParseError,
                             MpsSemanticError)

INF = math.inf

_MPS_SENSE = {"L": "<=", "G": ">=", "E": "="}
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
                raise MpsParseError(f"unknown section header {toks[0]!r}",
                                    line_no)
            if head == "ENDATA":
                break
            if head == "NAME":
                name = toks[1] if len(toks) > 1 else ""
                if len(toks) > 2:
                    warnings.warn(f"line {line_no}: NAME of several words "
                                  f"read as {name!r}")
            elif head == "OBJSENSE" and len(toks) > 1:
                sense = ("maximize" if toks[1].upper().startswith("MAX")
                         else "minimize")
            # NAME takes no data lines
            section = None if head == "NAME" else head
            pending_objsense = head == "OBJSENSE" and len(toks) == 1
            saw_rows = saw_rows or head == "ROWS"
            continue

        if section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError("ROWS line needs a sense and a name",
                                    line_no)
            rtype, rname = toks[0].upper(), toks[1]
            if rtype != "N" and rtype not in _MPS_SENSE:
                raise MpsParseError(f"unknown row sense {rtype!r}", line_no)
            if rname.strip("'\"").upper() == "MARKER":
                raise MpsSemanticError(
                    f"row name {rname!r} reads as a marker", line_no)
            if rname == obj_name or rname in free_rows or rname in row_index:
                raise MpsSemanticError(f"duplicate row {rname!r}", line_no)
            if rtype != "N":
                row_index[rname] = len(row_senses)
                row_senses.append(_MPS_SENSE[rtype])
            elif obj_name is None:
                obj_name = rname
            else:
                warnings.warn(f"dropping extra free row {rname!r}")
                free_rows.add(rname)
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
                raise MpsParseError(
                    "COLUMNS line needs name plus (row, value) pairs", line_no)
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
                    warnings.warn("dropping explicit zero coefficient at "
                                  f"({rname}, {cname})")
                    continue
                key = (row_index[rname], j)
                if key in entries:
                    raise MpsSemanticError(
                        f"duplicate entry for ({rname}, {cname})", line_no)
                entries[key] = val
        elif section in vectors:
            # an optional set name (an odd token count), then (row, value)
            # pairs
            rest = toks[len(toks) % 2:]
            if not rest:
                raise MpsParseError(f"malformed {section} line", line_no)
            for k in range(0, len(rest), 2):
                rname = rest[k]
                val = _number(rest[k + 1], f"{section} value", line_no)
                if rname == obj_name or rname in free_rows:
                    warnings.warn(
                        f"{section} entry on free row {rname!r} ignored")
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
                sense = ("maximize" if toks[0].upper().startswith("MAX")
                         else "minimize")
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
        row_senses=list(map(SENSES.index, row_senses)),
        rhs=rhs,
        var_lb=lb,
        var_ub=ub,
        var_types=[VAR_TYPES.index("integer" if t else "continuous")
                   for t in col_integer],
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
