"""Sparse MIP instance model, MPS reading/writing, and permutation augmentation.

A MipInstance holds each row's sense and each column's type as an int8 code,
an index into SENSES and VAR_TYPES; every layer reads the codes, and no
module compares them with the names.

The MPS reader accepts both fixed- and free-format files (section headers in
column 1, data lines indented, names without embedded blanks).  It reads the
text about _CHUNK characters at a time, splitting each chunk into one flat
token array with one str.split(); one array of the chunk's code points, each
classed as blank, line end or other by a table, gives every token's line and
each line's comment and header tests.  ROWS, COLUMNS, RHS and RANGES are read
from that array: row names map to codes with one dict lookup per token, a
COLUMNS line's column with one lookup per run of lines naming it, values with
one float() per token, and the checks are array masks (for ROWS, list tests
that locate the failing line only when one fails; for MARKER, a test of the
second tokens whose first character is M, m or a quote).  The matrix entries
read so far are kept as sorted runs of col << 32 | row keys, and a chunk's
entries merge, in one stable sort, only with the stored keys from their
smallest on: COLUMNS gives a column's lines together, so parsing stays linear
in the text, and every earlier key is smaller, so a repeated pair is found
however far back its first copy is.  BOUNDS applies one
line at a time with no Python-level call per line, as its type's entry in the
_BOUNDS table says.  A NAME line of several words keeps the first, with a
warning.  The first failure is raised with the message, line number
and earlier warnings a reader taking one line at a time would give.  A row
name declared again, whatever either sense, and a row named MARKER, which a
COLUMNS pair would read as a marker, are refused at their line.  A negative UP
bound also sets the lower bound to -inf unless the column already has a LO, MI
or FX bound (the classic MPS convention).  RANGES rows are expanded into two
plain inequality rows so that every stored row carries a single sense.  Matrix
entries are ordered by one sort of an int64 key: row << 32 | col as stored,
col << 32 | 1 + row with the objective as row 0 when written.  The writer
always emits free format and is deterministic; it formats each distinct value
once, found by np.unique of its bits, and writes a LO line for a lower bound
of 0 under a negative upper bound, which the convention would otherwise free.
It writes any MipInstance: MipInstance refuses the names it cannot read back.

Permutations are drawn from numpy's PCG64 generator so the same seed produces
the same row/column swap on every platform.  Seed 0 is reserved for the
identity permutation.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from itertools import chain, compress, count, filterfalse, repeat
from operator import not_

import numpy as np

INF = math.inf

SENSES = ("<=", ">=", "=")
VAR_TYPES = ("continuous", "binary", "integer")
LE, GE, EQ = CONTINUOUS, BINARY, INTEGER = range(3)

# a ROWS line's type, in any case -> 0 for N, 1 + the code of its sense
_ROW_TYPE = {t: k % 4 for k, t in enumerate("NLGEnlge")}
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
_MARKERS = {"INTORG": 1, "INTEND": 0}
# the first characters a word can have that reads as MARKER once unquoted
# and upper-cased (no other character upper-cases to a leading "M")
_MARKER_LEAD = np.isin(np.arange(128), list(map(ord, "Mm'\"")))
_CHUNK = 1 << 17  # characters tokenized at once, bounding the tokens
_NO_KEY = np.iinfo(np.int64).max  # above every entry's key
# each code point's class, 1 for str.isspace() and 2 for a str.splitlines()
# line end; every one of them is below _OTHER, at which the table ends
_OTHER = 0x3001
_CHAR = np.zeros(_OTHER + 1, dtype=np.uint8)
_CHAR[[c for c in range(_OTHER) if chr(c).isspace()]] = 1
_CHAR[list(map(ord, "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"))] = 2
# a pair's row name that is not a declared row; below _UNDECLARED, a free row
_UNDECLARED, _OBJ, _FREE = -1, -2, -3
# the sections of (row, value) pairs by kind; _HEAD marks a header among them
_PAIR_SECTIONS = ("COLUMNS", "RHS", "RANGES")
_PAIR_KIND, _HEAD = {s: k for k, s in enumerate(_PAIR_SECTIONS)}, 3


class MpsError(ValueError):
    """Base class for MPS reading problems; names the line when known."""

    def __init__(self, message, line_no=None):
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


def _exact(field, values, dtype):
    """values as an array of dtype.  A value that the cast would change, an
    integer out of the dtype's range or a fraction, is refused with an
    InvalidInstanceError naming field; an array of dtype is taken as is."""
    a = np.asarray(values)
    if a.dtype == dtype:
        return a
    try:
        with np.errstate(invalid="ignore"):  # NaN and infinity cast to garbage
            cast = a.astype(dtype)
    except OverflowError:  # a Python int beyond 64 bits, in an object array
        limits = np.iinfo(dtype)
        changed = [v for v in a.tolist() if not limits.min <= v <= limits.max]
    else:
        changed = a[cast != a]
    if len(changed):
        raise InvalidInstanceError(f"{field} holds {changed[0]}, not an "
                                   f"{np.dtype(dtype).name} value")
    return cast


@dataclass(eq=False)
class MipInstance:
    """A sparse MIP model: min/max c'x s.t. Ax {<=,>=,=} b, lb <= x <= ub."""

    name: str
    sense: str  # "minimize" | "maximize"
    obj_coeffs: np.ndarray  # (n,)
    mat_rows: np.ndarray  # (nnz,) int
    mat_cols: np.ndarray  # (nnz,) int
    mat_vals: np.ndarray  # (nnz,) float
    row_senses: np.ndarray  # (m,) int8 codes into SENSES
    rhs: np.ndarray  # (m,)
    var_lb: np.ndarray  # (n,)
    var_ub: np.ndarray  # (n,)
    var_types: np.ndarray  # (n,) int8 codes into VAR_TYPES
    row_names: list
    col_names: list
    obj_name: str = "OBJ"
    row_ptr: np.ndarray = field(init=False, repr=False)  # (m + 1,) row starts

    def __post_init__(self):
        self.obj_coeffs = np.asarray(self.obj_coeffs, dtype=float)
        self.mat_rows = _exact("mat_rows", self.mat_rows, np.int64)
        self.mat_cols = _exact("mat_cols", self.mat_cols, np.int64)
        self.mat_vals = np.asarray(self.mat_vals, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.var_lb = np.asarray(self.var_lb, dtype=float)
        self.var_ub = np.asarray(self.var_ub, dtype=float)
        # copies, as the binary rule writes var_types in place
        self.row_senses = _exact("row_senses", self.row_senses, np.int8).copy()
        self.var_types = _exact("var_types", self.var_types, np.int8).copy()
        self.row_names = list(self.row_names)
        self.col_names = list(self.col_names)
        self._canonicalize()
        self.validate()
        # an integer variable with bounds inside [0, 1] is binary; this runs
        # after validate, which has checked the lengths and refuses only a
        # binary outside [0, 1]
        unit = (self.var_lb >= 0) & (self.var_ub <= 1)
        self.var_types[(self.var_types == INTEGER) & unit] = BINARY

    def _canonicalize(self):
        # keep coordinate entries sorted by (row, col) so equality is structural
        # and row i's entries are row_ptr[i]:row_ptr[i + 1]; one sort of the
        # key does it (an index out of range may misorder the key, and the
        # sort may swap repeated entries, but validate refuses both)
        key = self.mat_rows << 32 | self.mat_cols
        if (key[1:] < key[:-1]).any():
            order = key.argsort()
            self.mat_rows = self.mat_rows[order]
            self.mat_cols = self.mat_cols[order]
            self.mat_vals = self.mat_vals[order]
        self.row_ptr = self.mat_rows.searchsorted(np.arange(self.num_rows + 1))

    def validate(self):
        m, n = self.num_rows, self.num_cols
        if len(self.rhs) != m or len(self.row_names) != m:
            raise InvalidInstanceError("row arrays disagree on m")
        if not (len(self.obj_coeffs) == len(self.var_lb) == len(self.var_ub)
                == len(self.var_types) == len(self.col_names) == n):
            raise InvalidInstanceError("column arrays disagree on n")
        # the objective is a row too, so no other row may take its name
        rows = [self.obj_name, *self.row_names]
        for what, names in (("row", rows), ("column", self.col_names)):
            if len(set(names)) < len(names):
                seen = set()
                name = next(x for x in names if x in seen or seen.add(x))
                raise InvalidInstanceError(f"duplicate {what} name {name!r}")
        # each name must read back as the one token it is, and no COLUMNS
        # line as a comment; an empty instance name reads back as it is
        names = rows + self.col_names + ([self.name] if self.name else [])
        if " ".join(names).split() != names:
            name = next(x for x in names if x.split() != [x])
            raise InvalidInstanceError(f"name {name!r} is empty or holds a blank")
        if " *" in " " + " ".join(self.col_names):  # names hold no blank
            name = next(x for x in self.col_names if x[:1] == "*")
            raise InvalidInstanceError(f"column name {name!r} starts with '*'")
        # a pair naming a row MARKER would read as a marker line
        if "MARKER" in " ".join(rows).upper():
            for name in compress(rows, map("MARKER".__eq__, _unquoted(rows))):
                raise InvalidInstanceError(f"row name {name!r} reads as a marker")
        for what, values in (("objective coefficient", self.obj_coeffs),
                             ("matrix coefficient", self.mat_vals),
                             ("rhs", self.rhs)):
            if not np.isfinite(values).all():
                raise InvalidInstanceError(f"non-finite {what}")
        # a NaN bound, or a lower bound of +inf or upper of -inf (no value)
        lb, ub = self.var_lb, self.var_ub
        if not ((lb < INF).all() and (ub > -INF).all()):
            if np.isnan(lb).any() or np.isnan(ub).any():
                raise InvalidInstanceError("NaN variable bound")
            for side, bounds, bad in (("lower", lb, INF), ("upper", ub, -INF)):
                if (bounds == bad).any():
                    name = self.col_names[int(np.argmax(bounds == bad))]
                    raise InvalidInstanceError(
                        f"column {name!r} has {side} bound {bad:+}")
        if self.sense not in ("minimize", "maximize"):
            raise InvalidInstanceError(f"bad sense {self.sense!r}")
        for what, codes, names in (("row sense", self.row_senses, SENSES),
                                   ("var type", self.var_types, VAR_TYPES)):
            for code in codes[(codes < 0) | (codes >= len(names))][:1]:
                raise InvalidInstanceError(f"bad {what} code {code}")
        if self.nnz:
            rows, cols = self.mat_rows, self.mat_cols
            if rows.min() < 0 or rows.max() >= m:
                raise InvalidInstanceError("matrix row index out of range")
            if cols.min() < 0 or cols.max() >= n:
                raise InvalidInstanceError("matrix col index out of range")
            # entries are sorted by (row, col), so a repeated pair is adjacent
            key = rows << 32 | cols
            if (key[1:] == key[:-1]).any():
                raise InvalidInstanceError("duplicate (row, col) entries")
            if (self.mat_vals == 0.0).any():
                raise InvalidInstanceError("stored zero coefficient")
        outside = (self.var_types == BINARY) & ((lb < 0) | (ub > 1))
        if outside.any():
            raise InvalidInstanceError(
                f"binary variable {self.col_names[np.argmax(outside)]} has "
                "bounds outside [0, 1]")

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
        self.row_perm = _exact("row_perm", self.row_perm, np.int64)
        self.col_perm = _exact("col_perm", self.col_perm, np.int64)
        for p in (self.row_perm, self.col_perm):
            if not np.array_equal(np.sort(p), np.arange(len(p))):
                raise InvalidInstanceError("not a permutation")

    def to_json(self):
        return json.dumps({
            "seed": int(self.seed),
            "row_perm": [int(i) for i in self.row_perm],
            "col_perm": [int(j) for j in self.col_perm],
        })


# ---------------------------------------------------------------------------
# Reading and writing files


def read_file(path, parse):
    """parse(text) of the UTF-8 file at path, the reader of every input file;
    CRLF and CR line ends read as LF, as in text mode.  A ValueError or
    KeyError from parse, or bytes that are not UTF-8, gets "<path>: " and
    .path added.  The warnings parse raises are recorded, then raised again
    in order as "<path>: <message>", also when parse fails."""
    caught = []
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return parse(text)
    except (ValueError, KeyError) as exc:
        if isinstance(exc, UnicodeDecodeError):  # its str() ignores .args
            exc = ValueError(f"not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})")
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        exc.args = (f"{path}: {reason}",)
        exc.path = path
        raise exc
    finally:
        for w in caught:
            warnings.warn(f"{path}: {w.message}", w.category, stacklevel=2)


def write_file(path, text):
    """Write text to the file at path as UTF-8, the writer of every output
    file.  A new file is created with mode 0o666 less the umask, as open(path,
    "w") does; an existing one is overwritten in place and then cut to the
    new length, without first truncating it to zero bytes, which on ext4
    frees its blocks only for close to allocate and flush them again.

    Neither way is atomic.  A crash mid-write may leave the new bytes
    followed by the tail of the old file (open(path, "w") could leave the
    file empty); outputs can be written again, and write_dataset writes
    manifest.json last."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.truncate()


def read_mps(path):
    """parse_mps of the file at path; an MpsError names the file."""
    return read_file(path, parse_mps)


def parse_mps(text):
    """Parse fixed- or free-format MPS text into a MipInstance.  Chunks end
    at a line feed, so text whose lines end in a bare carriage return reads
    as one chunk; read_file turns those line ends into line feeds."""
    reader = _MpsReader()
    reader.read(text)
    return reader.instance()


def _data_lines(chunk):
    """Every token of chunk as an object array and the code point of each
    token's first character; then each data line's first token, token count,
    index among chunk.splitlines() and whether it is a header (its first
    character is not blank); and the number of lines.  Blank and comment
    lines are left out.  One str.split() gives the tokens, and one array of
    code points, read through _CHAR, their lines."""
    toks = chunk.split()
    toks = np.fromiter(toks, object, len(toks))
    # a line end before the chunk makes every token's start a blank to
    # non-blank step and a header's a line end to non-blank one
    code = np.frombuffer(("\n" + chunk).encode("utf-32-le", "surrogatepass"),
                         np.uint32)
    kind = _CHAR.take(code, mode="clip")
    blank = kind != 0
    at = (blank[:-1] > blank[1:]).nonzero()[0]  # each token's first character
    ends = (kind[1:] == 2).nonzero()[0]  # each line end's character
    cr = code[ends + 1] == 13
    if cr.any():  # "\r\n" is one line end, at its "\n"
        ends = ends[~(cr & (code.take(ends + 2, mode="clip") == 10))]
    # line k's tokens are first[k]:first[k + 1]
    first = np.concatenate([[0], at.searchsorted(ends), [len(at)]])
    lead = code[at + 1]
    line = (first[1:] > first[:-1]).nonzero()[0]
    # not a comment line, whose first token starts with "*"
    line = line[lead[first[line]] != 42]
    starts = first[line]
    return (toks, lead, starts, first[line + 1] - starts, line,
            kind[at[starts]] == 2, len(ends) + int(kind[-1] != 2))


def _unquoted(words):
    """Each word without enclosing quotes, upper-cased."""
    return map(str.upper, map(str.strip, words, repeat("'\"")))


def _pairs(starts, n_pairs):
    """Token index of each (name, value) pair's name, for lines whose
    n_pairs pairs begin at token starts, and the index of its line."""
    line = np.arange(len(n_pairs)).repeat(n_pairs)
    first = n_pairs.cumsum() - n_pairs
    return (starts - 2 * first)[line] + 2 * np.arange(len(line)), line


def _floats(toks):
    """float() of each token of an object array, NaN from the first one
    float() refuses on."""
    try:
        return toks.astype(float)  # float() of each token
    except ValueError:  # find the token float() refuses
        vals = []
        try:
            vals.extend(map(float, toks.tolist()))
        except ValueError:
            pass
        return np.concatenate([vals, np.full(len(toks) - len(vals), np.nan)])


def _first(*masks):
    """Index of the first position where any mask is true, and the index
    of the first mask true there; (None, None) when none is."""
    fail = reduce(np.logical_or, masks).nonzero()[0]
    if not len(fail):
        return None, None
    i = int(fail[0])
    return i, next(k for k, mask in enumerate(masks) if mask[i])


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


class _MpsReader:
    """What parse_mps has read so far.  The text is split into lines a
    chunk at a time.  Each section method takes the data lines of one
    section in one chunk (pairs: of successive COLUMNS, RHS and RANGES
    sections).  bounds applies them a line at a time; rows and pairs find
    every failure at once, raise the first in (line, pair, check) order,
    which is the one a reader applying a line at a time would meet, and
    otherwise apply them."""

    def __init__(self):
        self.name = ""
        self.sense = "minimize"
        self.saw_rows = False
        self.obj_name = None
        # every name ROWS declares -> its row, in declaration order, or _OBJ
        # for the objective or _FREE for an extra N row, which is dropped
        self.row_code = {}
        self.row_senses = []
        self.col_index = {}  # name -> column, in declaration order
        self.integral = False  # between INTORG and INTEND markers
        self.col_integer = np.zeros(0, dtype=bool)
        # column -> objective coefficient, lower and upper bound, as set
        self.obj, self.lb, self.ub = {}, {}, {}
        self.has_lower = set()  # columns with a LO, MI or FX bound so far
        # the matrix entries as sorted runs of col << 32 | row keys, each
        # run's below the next one's, and their values; the first run holds
        # one key below every entry's, so every entry has a run before it
        self.keys, self.vals = [np.array([-1])], [np.zeros(1)]
        self.vectors = {"RHS": {}, "RANGES": {}}  # section -> {row: value}

    def read(self, text):
        """Apply the sections of text up to ENDATA, in file order."""
        section = None
        pending_objsense = False
        pos = line_no = 0  # where the chunk starts, and lines before it
        while pos < len(text):
            # end the chunk after the first "\n" that makes it at least
            # _CHUNK characters long, so that no "\r\n" is cut in two
            end = text.find("\n", pos + _CHUNK - 1) + 1 or len(text)
            toks, lead, starts, counts, data, header, n_lines = _data_lines(
                text[pos:end])
            line_nos = data + (line_no + 1)
            heads = header.nonzero()[0].tolist()  # heads index the data lines
            # the _PAIR_KIND of COLUMNS, RHS and RANGES lines, read in one
            # pass from run, where their sections begin, to another header
            kind, run = np.full(len(data), _HEAD), None
            for a, b in zip([-1] + heads, heads + [len(data)]):
                if a >= 0:
                    head_toks = toks[starts[a]:starts[a] + counts[a]].tolist()
                    head = head_toks[0].upper()
                    if run is not None and head not in _PAIR_KIND:
                        self.pairs(toks, lead, starts[run:a], counts[run:a],
                                   line_nos[run:a], kind[run:a])
                        run = None
                    if head not in _SECTIONS:
                        raise MpsParseError(
                            f"unknown section header {head_toks[0]!r}",
                            int(line_nos[a]))
                    if head == "ENDATA":
                        return
                    if head == "NAME":
                        self.name, *extra = head_toks[1:] or [""]
                        if extra:
                            warnings.warn(f"line {line_nos[a]}: NAME of several"
                                          f" words read as {self.name!r}")
                    elif head == "OBJSENSE" and len(head_toks) > 1:
                        self.set_sense(head_toks[1])
                    # NAME takes no data lines
                    section = None if head == "NAME" else head
                    pending_objsense = head == "OBJSENSE" and len(head_toks) == 1
                    self.saw_rows = self.saw_rows or head == "ROWS"
                if a + 1 == b:
                    continue
                if section in _PAIR_KIND:
                    kind[a + 1:b] = _PAIR_KIND[section]
                    run = a + 1 if run is None else run
                elif section is None:
                    raise MpsParseError("data line before any section header",
                                        int(line_nos[a + 1]))
                elif section != "OBJSENSE":
                    getattr(self, section.lower())(
                        toks, starts[a + 1:b], counts[a + 1:b],
                        line_nos[a + 1:b])
                elif pending_objsense:
                    self.set_sense(toks[starts[a + 1]])
                    pending_objsense = False
            if run is not None:
                self.pairs(toks, lead, starts[run:], counts[run:],
                           line_nos[run:], kind[run:])
            pos, line_no = end, line_no + n_lines

    def set_sense(self, token):
        self.sense = "maximize" if token.upper().startswith("MAX") else "minimize"

    def rows(self, toks, starts, counts, line_nos):
        types = toks[starts].tolist()
        # a one-token line's name is another line's token, but it fails first
        names = toks.take(starts + 1, mode="clip").tolist()
        code = list(map(_ROW_TYPE.get, types, repeat(-1)))
        # each name takes a placeholder code below every other; a name
        # declared before, on an earlier line or chunk, keeps the code it has
        held = list(range(_FREE - 1, _FREE - 1 - len(names), -1))
        kept = list(map(self.row_code.setdefault, names, held))
        i = None
        if ((counts != 2).any() or -1 in code or kept != held
                or "MARKER" in " ".join(names).upper()):
            # a pair naming the row MARKER would read as a marker line
            marker = list(map("MARKER".__eq__, _unquoted(names)))
            i, check = _first(counts != 2, np.array(code) < 0,
                              np.array(marker), np.array(kept) != held)
        # the first N row is the objective; each later one is dropped
        free = list(compress(range(len(code) if i is None else i),
                             map(not_, code)))
        if free and self.obj_name is None:
            self.obj_name = names[free.pop(0)]
            self.row_code[self.obj_name] = _OBJ
        for f in free:
            warnings.warn(f"dropping extra free row {names[f]!r}")
        if i is not None:
            raise (MpsParseError if check < 2 else MpsSemanticError)((
                "ROWS line needs a sense and a name",
                f"unknown row sense {types[i].upper()!r}",
                f"row name {names[i]!r} reads as a marker",
                f"duplicate row {names[i]!r}")[check], int(line_nos[i]))
        self.row_code.update(zip(compress(names, code),
                                 count(len(self.row_senses))))
        self.row_code.update(zip(map(names.__getitem__, free), repeat(_FREE)))
        self.row_senses += [k - 1 for k in code if k]

    def pairs(self, toks, lead, starts, counts, line_nos, kind):
        """COLUMNS, RHS and RANGES lines by kind, and headers between them,
        in one pass: a COLUMNS line names its column, then (row, value) pairs;
        an RHS or RANGES line an optional set name (odd count), then pairs.
        lead is the code point of each token's first character."""
        columns = kind == 0
        # a COLUMNS line of three or more tokens whose second is MARKER (any
        # case, quotes stripped) opens or closes an integer block
        long = (columns & (counts >= 3)).nonzero()[0]
        long = long[_MARKER_LEAD.take(lead[starts[long] + 1], mode="clip")]
        marker = long[np.fromiter(map("MARKER".__eq__, _unquoted(
            toks[starts[long] + 1].tolist())), bool, len(long))]
        flag = np.fromiter(map(_MARKERS.get, _unquoted(
            toks[starts[marker] + 2].tolist()), repeat(-1)), np.int64,
                           len(marker))
        offset = (counts | columns) & 1  # where a line's pairs begin
        n_pairs = (counts - offset) >> 1
        # a line with no pair, or a COLUMNS line of an even token count
        bad = (n_pairs == 0) | (offset > (counts & 1))
        head = kind == _HEAD
        n_pairs[head] = bad[head] = 0
        n_pairs[marker], bad[marker] = 0, flag < 0
        # each other COLUMNS line declares its column under the last marker;
        # a column's name is looked up once per run of lines naming it
        columns[marker] = False
        decl = columns.nonzero()[0]
        names = toks[starts[decl]]
        new = np.concatenate([[True], names[1:] != names[:-1]])[:len(names)]
        first = decl[new]
        names = names[new].tolist()
        n_old = len(self.col_index)
        self.col_index.update(zip(filterfalse(self.col_index.__contains__,
                                              dict.fromkeys(names)),
                                  count(n_old)))
        ids = np.fromiter(map(self.col_index.__getitem__, names), np.int64,
                          len(names))
        col = np.zeros(len(kind), dtype=np.int64)
        col[decl] = ids[new.cumsum() - 1]
        # a new column's first run is the first to pass every earlier id
        seen = np.maximum.accumulate(np.concatenate([[n_old - 1], ids[:-1]]))
        state = np.concatenate([[self.integral], flag > 0])
        self.col_integer = np.concatenate([self.col_integer, state[
            marker.searchsorted(first)][ids > seen]])

        at, pair_line = _pairs(starts + offset, n_pairs)
        vals = _floats(toks[at + 1])
        rows = np.fromiter(map(self.row_code.get, toks[at].tolist(),
                               repeat(_UNDECLARED)), np.int64, len(at))
        pair_kind, cols = kind[pair_line], col[pair_line]
        declared, zero, entry = rows >= 0, vals == 0.0, pair_kind == 0
        stored = entry & declared & ~zero
        # one stable sort merges the new keys with the stored keys from
        # their smallest, low, on; no earlier key can repeat a new one, and
        # as COLUMNS gives each column's lines together, the stored keys
        # reached are mostly those of the column that the chunk's start cuts
        block = cols[stored] << 32 | rows[stored]
        low, run = block.min(initial=_NO_KEY), len(self.keys) - 1
        while self.keys[run][0] >= low:  # to the run holding keys below low
            run -= 1
        head = self.keys[run].searchsorted(low)
        merged = np.concatenate([*self.keys[run:], block])[head:]
        order = merged.argsort(kind="stable")
        keys = merged[order]
        # of two equal keys the later, the repeat, comes second
        again = (keys[1:] == keys[:-1]).nonzero()[0] + 1
        dup = np.zeros(len(at), dtype=bool)
        dup[stored.nonzero()[0][order[again] - len(merged) + len(block)]] = True
        i, check = _first(~np.isfinite(vals), rows == _UNDECLARED, dup)
        j, _ = _first(bad)
        # pairs before the first failing pair, or before the first failing
        # line when that comes first
        cut = len(at) if i is None else i
        if j is not None and (i is None or pair_line[i] >= j):
            cut, i = pair_line.searchsorted(j), None
        # a zero coefficient, or an RHS or RANGES value on a free row
        for k in np.where(entry, declared & zero,
                          rows < _UNDECLARED)[:cut].nonzero()[0]:
            warnings.warn(f"{_PAIR_SECTIONS[pair_kind[k]]} entry on free row "
                          f"{toks[at[k]]!r} ignored" if pair_kind[k] else
                          "dropping explicit zero coefficient at "
                          f"({toks[at[k]]}, {toks[starts[pair_line[k]]]})")
        if i is not None:
            line_no = int(line_nos[pair_line[i]])
            if check == 0:
                _number(toks[at[i] + 1], f"{_PAIR_SECTIONS[pair_kind[i]]} "
                        "value" if pair_kind[i] else "coefficient", line_no)
            if check == 1:
                raise MpsSemanticError(f"undeclared row {toks[at[i]]!r}",
                                       line_no)
            raise MpsSemanticError(f"duplicate entry for ({toks[at[i]]}, "
                                   f"{toks[starts[pair_line[i]]]})", line_no)
        if j is not None:
            if j in marker:
                raise MpsParseError(f"unknown marker {toks[starts[j] + 2]!r}",
                                    int(line_nos[j]))
            raise MpsParseError(
                f"malformed {_PAIR_SECTIONS[kind[j]]} line" if kind[j] else
                "COLUMNS line needs name plus (row, value) pairs",
                int(line_nos[j]))

        self.integral = bool(state[-1])
        if len(block):
            self.vals[run:] = [self.vals[run][:head], np.concatenate(
                [*self.vals[run:], vals[stored]])[head:][order]]
            self.keys[run:] = [self.keys[run][:head], keys]
        # the objective coefficients by column, RHS and RANGES by row
        for k, target in enumerate((self.obj, self.vectors["RHS"],
                                    self.vectors["RANGES"])):
            sets = (pair_kind == k) & (declared if k else rows == _OBJ)
            target.update(zip((rows if k else cols)[sets].tolist(),
                              vals[sets].tolist()))

    def bounds(self, toks, starts, counts, line_nos):
        for s, e, line_no in zip(starts.tolist(), (starts + counts).tolist(),
                                 line_nos.tolist()):
            if e - s < 2:
                raise MpsParseError("short BOUNDS line", line_no)
            btype = toks[s].upper()
            if btype not in _BOUNDS:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)
            lower, upper, integer = _BOUNDS[btype]
            n_args = 2 if _VALUE in (lower, upper) else 1  # column [, value]
            if not 1 <= e - s - n_args <= 2:  # type [, bound-set name]
                raise MpsParseError("malformed BOUNDS line", line_no)
            cname = toks[e - n_args]
            j = self.col_index.get(cname)
            if j is None:
                raise MpsSemanticError(f"undeclared column {cname!r}", line_no)
            val = None
            if n_args == 2:
                try:
                    val = float(toks[e - 1])
                except ValueError:
                    val = math.nan
                if math.isnan(val):  # not a number, or NaN: _number raises
                    _number(toks[e - 1], "bound value", line_no, infinite=True)
            if lower is not None:
                self.lb[j] = val if lower is _VALUE else lower
            if upper is not None:
                self.ub[j] = val if upper is _VALUE else upper
            if integer:
                self.col_integer[j] = True
            if btype in ("LO", "MI", "FX"):
                self.has_lower.add(j)
            elif btype == "UP" and val < 0 and j not in self.has_lower:
                self.lb[j] = -INF  # classic MPS convention for negative UP

    def instance(self):
        if not self.saw_rows:
            raise MpsParseError("missing ROWS section")
        if self.obj_name is None:
            raise MpsParseError("missing objective (N) row")
        n = len(self.col_index)
        obj, lb, ub = np.zeros(n), np.zeros(n), np.full(n, INF)
        rhs = np.zeros(len(self.row_senses))
        keys = np.concatenate(self.keys)[1:]  # by column, as MipInstance sorts
        for array, values in ((obj, self.obj), (lb, self.lb), (ub, self.ub),
                              (rhs, self.vectors["RHS"])):
            array[np.fromiter(values, np.int64, len(values))] = np.fromiter(
                values.values(), float, len(values))
        row_fields = dict(
            row_names=[name for name, code in self.row_code.items()
                       if code >= 0],
            row_senses=np.array(self.row_senses, dtype=np.int8),
            rhs=rhs, mat_rows=keys & 0xFFFFFFFF, mat_cols=keys >> 32,
            mat_vals=np.concatenate(self.vals)[1:])
        if self.vectors["RANGES"]:
            row_fields = _expand_ranges(self.vectors["RANGES"], **row_fields)
        return MipInstance(
            name=self.name, sense=self.sense, obj_coeffs=obj, var_lb=lb,
            var_ub=ub, col_names=list(self.col_index), obj_name=self.obj_name,
            var_types=self.col_integer * np.int8(INTEGER), **row_fields)


def _expand_ranges(ranges, row_names, row_senses, rhs, mat_rows, mat_cols,
                   mat_vals):
    """The row fields with RANGES {row: R} applied: a nonzero R adds an
    inequality row "<name>__rng" after every original row, with a copy of
    the row's entries, and R = 0 pins any row to its rhs, an equality."""
    m = len(row_names)
    senses = np.array(row_senses, dtype=np.int8)
    ranged = np.array(sorted(ranges), dtype=np.int64)
    r = np.array([ranges[i] for i in ranged.tolist()], dtype=float)
    senses[ranged[r == 0]] = EQ
    ranged, r = ranged[r != 0], r[r != 0]
    s, b = senses[ranged], rhs[ranged]
    le, ge, eq = s == LE, s == GE, s == EQ
    # L gives [b - |R|, b], G [b, b + |R|] and E the interval from b to
    # b + R: the original row keeps one side, the new row the other
    new_rhs = np.where(le, b - abs(r), np.where(ge, b + abs(r),
                                                np.where(r > 0, b + r, b)))
    rhs[ranged[eq]] = np.where(r > 0, b, b + r)[eq]
    senses[ranged[eq]] = GE
    copy_to = np.full(m, -1)
    copy_to[ranged] = np.arange(m, m + len(ranged))
    copied = (copy_to[mat_rows] >= 0).nonzero()[0]
    return dict(
        row_names=row_names + [row_names[i] + "__rng" for i in ranged.tolist()],
        row_senses=np.concatenate([senses, np.where(le, GE, LE)]),
        rhs=np.concatenate([rhs, new_rhs]),
        mat_rows=np.concatenate([mat_rows, copy_to[mat_rows[copied]]]),
        mat_cols=np.concatenate([mat_cols, mat_cols[copied]]),
        mat_vals=np.concatenate([mat_vals, mat_vals[copied]]))


# ---------------------------------------------------------------------------
# MPS writing


def _formatted(values):
    """repr of each value, formatting each distinct float64 once; its bits
    key it, so -0.0 keeps its sign."""
    bits, at = np.unique(np.asarray(values, dtype=float).view(np.int64),
                         return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())),
                    object)[at].tolist()


def _lines(*fields):
    """The text of one line per position of the fields: each field is one
    string per line, or a str that every line repeats."""
    return "".join(chain.from_iterable(zip(
        *(repeat(f) if isinstance(f, str) else f for f in fields),
        repeat("\n"))))


def write_mps(inst):
    """Serialize to free-format MPS. Deterministic: equal instances, equal bytes."""
    n = inst.num_cols
    integer = inst.var_types != CONTINUOUS

    # each column's objective entry, then its matrix entries by row, in the
    # order of one sort of col << 32 | 1 + row, the objective's row being 0;
    # a column with no matrix entry is declared by its objective entry
    obj = np.flatnonzero((inst.obj_coeffs != 0.0)
                         | (np.bincount(inst.mat_cols, minlength=n) == 0))
    key = np.concatenate([obj << 32, inst.mat_cols << 32 | (inst.mat_rows + 1)])
    order = key.argsort()
    key = key[order]
    cols, rows = key >> 32, key & 0xFFFFFFFF
    vals = np.concatenate([inst.obj_coeffs[obj], inst.mat_vals])[order]
    # a line is its column's piece, its row's piece and its value; a MARKER
    # line opens or closes an integer block before each column whose
    # integrality differs from the column before
    col_text = np.array(list(map("    %s  ".__mod__, inst.col_names)), object)
    pieces = col_text[cols]
    switch = np.flatnonzero(integer != np.concatenate([[False], integer[:-1]]))
    pieces[cols.searchsorted(switch)] = list(map(
        "    MARKER%d  'MARKER'  '%s'\n%s".__mod__, zip(
            count(), np.where(integer[switch], "INTORG", "INTEND").tolist(),
            col_text[switch].tolist())))
    row_text = np.array(list(map("%s  ".__mod__, [inst.obj_name,
                                                   *inst.row_names])), object)
    rhs = np.flatnonzero(inst.rhs != 0.0)
    values = _formatted(np.concatenate([vals, inst.rhs[rhs]]))
    columns = _lines(pieces.tolist(), row_text[rows].tolist(),
                     values[:len(vals)])
    if n and integer[-1]:
        columns += f"    MARKER{len(switch)}  'MARKER'  'INTEND'\n"
    rhs = _lines("    RHS  ", map(inst.row_names.__getitem__, rhs.tolist()),
                 "  ", values[len(vals):])

    # per column a BV, FX or FR line, the first that applies, or else a MI
    # or LO line or none, then an UP line when the upper bound is finite; a
    # LO line is also written for an integer column and for 0 under a
    # negative UP, which the convention would otherwise free
    bounds = []
    for name, vtype, lo, hi in zip(inst.col_names, inst.var_types.tolist(),
                                   inst.var_lb.tolist(), inst.var_ub.tolist()):
        if vtype == BINARY and lo == 0.0 and hi == 1.0:
            bounds.append(f" BV BND  {name}\n")
        elif lo == hi:
            bounds.append(f" FX BND  {name}  {lo!r}\n")
        elif lo == -INF and hi == INF:
            bounds.append(f" FR BND  {name}\n")
        else:
            if lo == -INF:
                bounds.append(f" MI BND  {name}\n")
            elif lo != 0.0 or vtype != CONTINUOUS or hi < 0:
                bounds.append(f" LO BND  {name}  {lo!r}\n")
            if hi != INF:
                bounds.append(f" UP BND  {name}  {hi!r}\n")

    return "".join([
        f"NAME          {inst.name}\n",
        "OBJSENSE\n    MAX\n" if inst.sense == "maximize" else "",
        f"ROWS\n N  {inst.obj_name}\n",
        _lines(" ", map("LGE".__getitem__, inst.row_senses.tolist()), "  ",
               inst.row_names),
        "COLUMNS\n", columns, "RHS\n", rhs, "BOUNDS\n", *bounds, "ENDATA\n"])


# ---------------------------------------------------------------------------
# Permutation augmentation


def apply_permutation(inst, row_perm, col_perm, seed=0):
    """Move row i to row_perm[i] and column j to col_perm[j]."""
    record = PermutationRecord(row_perm, col_perm, seed)
    rp, cp = record.row_perm, record.col_perm

    # new row k is old row inv_r[k]; new column k is old column inv_c[k]
    inv_r, inv_c = np.argsort(rp), np.argsort(cp)
    permuted = replace(
        inst, obj_coeffs=inst.obj_coeffs[inv_c], mat_rows=rp[inst.mat_rows],
        mat_cols=cp[inst.mat_cols], mat_vals=inst.mat_vals.copy(),
        row_senses=inst.row_senses[inv_r], rhs=inst.rhs[inv_r],
        var_lb=inst.var_lb[inv_c], var_ub=inst.var_ub[inv_c],
        var_types=inst.var_types[inv_c],
        row_names=[inst.row_names[i] for i in inv_r.tolist()],
        col_names=[inst.col_names[j] for j in inv_c.tolist()])
    return permuted, record


def permute_instance(inst, seed):
    """Random row/column permutation; seed 0 is the identity."""
    perm = np.arange if seed == 0 else np.random.Generator(
        np.random.PCG64(seed)).permutation  # rows drawn first, then columns
    return apply_permutation(inst, perm(inst.num_rows), perm(inst.num_cols),
                             seed)
