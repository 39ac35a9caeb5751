import ast
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benloc.instance import (BINARY, CONTINUOUS, EQ, GE, INF, INTEGER, LE,
                             SENSES, InvalidInstanceError,
                             MipInstance, MpsError, MpsParseError,
                             MpsSemanticError, PermutationRecord,
                             apply_permutation, parse_mps, permute_instance,
                             read_file, read_mps, write_file, write_mps)
from benloc import instance
from benloc.graph import build_graph, canonical_signature
from benloc.synth import gen_indset, gen_setcover
import mps_reference
from conftest import count_calls

MINIMAL = """\
NAME test
ROWS
 N  OBJ
 G  c1
COLUMNS
    MARKER0  'MARKER'  'INTORG'
    x  OBJ  1.0  c1  1.0
    y  OBJ  1.0  c1  1.0
    MARKER1  'MARKER'  'INTEND'
RHS
    RHS  c1  1.0
BOUNDS
 BV BND  x
 BV BND  y
ENDATA
"""


def small_instance():
    return MipInstance(
        name="small", sense="minimize",
        obj_coeffs=np.array([1.0, 2.0, 0.0]),
        mat_rows=np.array([0, 0, 1, 1]),
        mat_cols=np.array([0, 1, 1, 2]),
        mat_vals=np.array([1.0, -2.0, 3.0, 1.0]),
        row_senses=[LE, GE], rhs=np.array([4.0, 1.0]),
        var_lb=np.zeros(3), var_ub=np.array([1.0, 10.0, np.inf]),
        var_types=[BINARY, INTEGER, CONTINUOUS],
        row_names=["r1", "r2"], col_names=["a", "b", "c"])


class TestParseMps:
    def test_minimal(self):
        inst = parse_mps(MINIMAL)
        assert inst.num_rows == 1
        assert inst.num_cols == 2
        assert inst.nnz == 2
        assert inst.row_senses.tolist() == [GE]
        assert inst.rhs.tolist() == [1.0]
        assert inst.var_types.tolist() == [BINARY, BINARY]

    def test_generated_setcover_nnz(self):
        inst = gen_setcover(10, 20, 0.3, seed=0)
        reparsed = parse_mps(write_mps(inst))
        assert reparsed.nnz == inst.nnz
        assert reparsed == inst

    def test_unknown_section_header(self):
        with pytest.raises(MpsParseError) as e:
            parse_mps("NAME x\nROWS\n N OBJ\nBOGUS\nENDATA\n")
        assert "BOGUS" in str(e.value)

    def test_rhs_set_name_equal_to_a_row_name(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  RHS\n L  c1\nCOLUMNS\n"
                "    x  OBJ  1.0  RHS  1.0\n    x  c1  1.0\n"
                "RHS\n    RHS  c1  4  RHS  2\nENDATA\n")
        inst = parse_mps(text)
        assert inst.row_names == ["RHS", "c1"]
        assert inst.rhs.tolist() == [2.0, 4.0]

    def test_undeclared_row_is_semantic_error(self):
        text = MINIMAL.replace("c1  1.0\n    y", "cX  1.0\n    y")
        with pytest.raises(MpsSemanticError) as e:
            parse_mps(text)
        assert "line" in str(e.value)

    def test_duplicate_entry_rejected(self):
        text = """\
NAME d
ROWS
 N  OBJ
 L  r1
COLUMNS
    x  r1  1.0
    x  r1  2.0
RHS
ENDATA
"""
        with pytest.raises(MpsSemanticError):
            parse_mps(text)

    def test_zero_coefficient_dropped_with_warning(self):
        text = """\
NAME z
ROWS
 N  OBJ
 L  r1
COLUMNS
    x  r1  1.0
    y  r1  0.0
RHS
    RHS  r1  2.0
ENDATA
"""
        with pytest.warns(UserWarning):
            inst = parse_mps(text)
        assert inst.nnz == 1
        assert inst.num_cols == 2

    def test_extra_free_row_dropped_with_warning(self):
        text = """\
NAME f
ROWS
 N  OBJ
 N  FREE2
 L  r1
COLUMNS
    x  OBJ  1.0  FREE2  5.0
    x  r1  1.0
RHS
    RHS  r1  2.0
ENDATA
"""
        with pytest.warns(UserWarning):
            inst = parse_mps(text)
        assert inst.num_rows == 1
        assert inst.nnz == 1

    def test_multi_word_name_keeps_its_first_word_with_warning(self):
        text = MINIMAL.replace("NAME test",
                               "* a comment\nNAME          my model v2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inst = parse_mps(text)
        assert inst.name == "my"
        assert [str(w.message) for w in caught] == [
            "line 2: NAME of several words read as 'my'"]
        assert _outcome(parse_mps, text) == _outcome(
            mps_reference.parse_mps, text)

    def test_negative_up_without_lo_frees_lower_bound(self):
        text = """\
NAME n
ROWS
 N  OBJ
 L  r1
COLUMNS
    x  r1  1.0
RHS
BOUNDS
 UP BND  x  -2.0
ENDATA
"""
        inst = parse_mps(text)
        assert inst.var_ub[0] == -2.0
        assert inst.var_lb[0] == -np.inf

    def test_ranges_expand_to_second_row(self, fixtures_dir):
        import os
        with open(os.path.join(fixtures_dir, "mps", "ranges_l.mps")) as fh:
            inst = parse_mps(fh.read())
        # L row rhs 10 range 4 becomes 6 <= ax <= 10
        assert inst.num_rows == 2
        assert set(inst.row_senses.tolist()) == {LE, GE}
        i_le = inst.row_senses.tolist().index(LE)
        i_ge = inst.row_senses.tolist().index(GE)
        assert inst.rhs[i_le] == 10.0
        assert inst.rhs[i_ge] == 6.0

    def test_unknown_bound_type_names_the_line(self, tmp_path):
        text = MINIMAL.replace(" BV BND  y\n", " XX BND  y  3\n")
        with pytest.raises(MpsParseError) as e:
            parse_mps(text)
        assert str(e.value) == "line 14: unknown bound type 'XX'"
        path = tmp_path / "bad_bound.mps"
        path.write_text(text)
        with pytest.raises(MpsParseError) as e:
            read_mps(str(path))
        assert str(e.value) == f"{path}: line 14: unknown bound type 'XX'"

    @pytest.mark.parametrize("old, new, reason", [
        ("x  OBJ  1.0", "x  OBJ  -inf", "line 7: coefficient '-inf' is infinite"),
        ("c1  1.0\n    y", "c1  NaN\n    y", "line 7: coefficient 'NaN' is NaN"),
        ("RHS  c1  1.0", "RHS  c1  1e999", "line 11: RHS value '1e999' is infinite"),
        ("BOUNDS", "RANGES\n    RNG  c1  inf\nBOUNDS",
         "line 13: RANGES value 'inf' is infinite"),
        ("BV BND  y", "UP BND  y  nan", "line 14: bound value 'nan' is NaN")])
    def test_non_finite_numbers_name_the_line(self, old, new, reason):
        with pytest.raises(MpsParseError) as e:
            parse_mps(MINIMAL.replace(old, new))
        assert str(e.value) == reason

    # one case per raise site of parse_mps that no other test reaches:
    # (old, new) edit MINIMAL, or new alone is the whole text
    @pytest.mark.parametrize("old, new, error, message", [
        (" G  c1\n", " G\n", MpsParseError,
         "line 4: ROWS line needs a sense and a name"),
        (" G  c1\n", " G  c1\n L  c1\n", MpsSemanticError,
         "line 5: duplicate row 'c1'"),
        # a name declared again is refused whatever either sense, the
        # objective's too; so is a row named MARKER
        (" G  c1\n", " G  c1\n N  c1\n", MpsSemanticError,
         "line 5: duplicate row 'c1'"),
        (" N  OBJ\n", " N  OBJ\n N  c1\n", MpsSemanticError,
         "line 5: duplicate row 'c1'"),
        (" N  OBJ\n", " N  OBJ\n N  f\n N  f\n", MpsSemanticError,
         "line 5: duplicate row 'f'"),
        (" G  c1\n", " L  OBJ\n", MpsSemanticError,
         "line 4: duplicate row 'OBJ'"),
        (" G  c1\n", " L  MARKER\n", MpsSemanticError,
         "line 4: row name 'MARKER' reads as a marker"),
        (" N  OBJ\n", " N  'marker'\n", MpsSemanticError,
         "line 3: row name \"'marker'\" reads as a marker"),
        (" G  c1", " X  c1", MpsParseError, "line 4: unknown row sense 'X'"),
        ("'INTEND'", "'INTMID'", MpsParseError,
         "line 9: unknown marker \"'INTMID'\""),
        ("y  OBJ  1.0  c1  1.0", "y  OBJ  1.0  c1", MpsParseError,
         "line 8: COLUMNS line needs name plus (row, value) pairs"),
        ("x  OBJ  1.0", "x  OBJ  abc", MpsParseError,
         "line 7: bad coefficient 'abc'"),
        ("RHS  c1  1.0", "RHS", MpsParseError, "line 11: malformed RHS line"),
        ("RHS  c1  1.0", "RHS  c9  1.0", MpsSemanticError,
         "line 11: undeclared row 'c9'"),
        (" BV BND  y", " BV", MpsParseError, "line 14: short BOUNDS line"),
        (" BV BND  y", " BV BND  y  1  2", MpsParseError,
         "line 14: malformed BOUNDS line"),
        (" BV BND  y", " BV BND  z", MpsSemanticError,
         "line 14: undeclared column 'z'"),
        ("NAME test\n", "NAME test\n    x  c1  1.0\n", MpsParseError,
         "line 2: data line before any section header"),
        (None, "NAME t\nENDATA\n", MpsParseError, "missing ROWS section"),
        (None, "NAME t\nROWS\n G  c1\nENDATA\n", MpsParseError,
         "missing objective (N) row")])
    def test_error_messages(self, old, new, error, message):
        text = new if old is None else MINIMAL.replace(old, new, 1)
        with pytest.raises(error) as e:
            parse_mps(text)
        assert str(e.value) == message

    def test_infinite_bounds_are_legal(self):
        inst = parse_mps(MINIMAL.replace("BV BND  y", "MI BND  y\n UP BND  y  inf")
                         .replace("BV BND  x", "LO BND  x  -1e400"))
        assert inst.var_lb.tolist() == [-INF, -INF]
        assert inst.var_ub.tolist() == [INF, INF]

    @pytest.mark.parametrize("bound, reason", [
        ("LO BND  x  inf", "column 'x' has lower bound +inf"),
        ("UP BND  x  -1e400", "column 'x' has upper bound -inf")])
    def test_infinite_bound_on_the_wrong_side_refused(self, tmp_path, bound,
                                                      reason):
        text = MINIMAL.replace("BV BND  y", "MI BND  y\n UP BND  y  inf") \
            .replace("BV BND  x", "MI BND  x\n " + bound)
        with pytest.raises(InvalidInstanceError) as e:
            parse_mps(text)
        assert str(e.value) == reason
        path = tmp_path / "wrong_side.mps"
        path.write_text(text)
        with pytest.raises(InvalidInstanceError) as e:
            read_mps(str(path))
        assert str(e.value) == f"{path}: {reason}"

    def test_ranges_equality_negative(self, fixtures_dir):
        import os
        with open(os.path.join(fixtures_dir, "mps", "ranges_e_neg.mps")) as fh:
            inst = parse_mps(fh.read())
        # E row rhs 5 range -3 becomes 2 <= ax <= 5
        lo = inst.rhs[inst.row_senses.tolist().index(GE)]
        hi = inst.rhs[inst.row_senses.tolist().index(LE)]
        assert (lo, hi) == (2.0, 5.0)


class TestReadFile:
    def test_parse_errors_name_the_file(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("abc")
        assert read_file(str(path), str.upper) == "ABC"

        def bad_value(text):
            raise MpsParseError(f"bad {text}", 3)

        def bad_type(text):
            raise TypeError(text)

        with pytest.raises(MpsParseError) as e:
            read_file(str(path), bad_value)
        assert str(e.value) == f"{path}: line 3: bad abc"
        assert (e.value.path, e.value.line_no) == (str(path), 3)
        with pytest.raises(KeyError) as e:
            read_file(str(path), lambda text: {}[text])
        assert e.value.args == (f"{path}: abc",)
        assert e.value.path == str(path)
        with pytest.raises(TypeError, match="^abc$"):  # passed on unchanged
            read_file(str(path), bad_type)

    def test_line_ends_read_as_text_mode(self, tmp_path):
        path = tmp_path / "ends.txt"
        path.write_bytes(b"a\r\nb\rc\n\xc3\xa9\r")
        assert read_file(str(path), str) == "a\nb\nc\né\n"

    def test_utf8_whatever_the_locale(self, tmp_path):
        """Under the C locale, with UTF-8 mode and locale coercion off, a log
        naming a non-ASCII instance is written and read back as UTF-8."""
        script = (
            "import sys\n"
            "from benloc.instance import read_file, write_file\n"
            "from benloc.logs import SolveLog, parse_log, render_log\n"
            "assert sys.flags.utf8_mode == 0\n"
            "log = SolveLog(instance_id='caf\\u00e9', config_id='c1',\n"
            "               total_time=2.0, root_time=1.0)\n"
            "write_file(sys.argv[1], render_log(log))\n"
            "assert read_file(sys.argv[1], parse_log) == log\n")
        path = tmp_path / "café.log"
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script,
                               str(path)], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert path.read_bytes().startswith(
            "META instance=café config=c1\n".encode("utf-8"))


class TestWriteFile:
    def test_shorter_text_leaves_exactly_its_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        write_file(str(path), "a much longer first text\n" * 3)
        write_file(str(path), "short é\n")
        assert path.read_bytes() == "short é\n".encode("utf-8")
        write_file(str(path), "")
        assert path.read_bytes() == b""

    def test_new_file_mode_matches_open(self, tmp_path):
        saved = os.umask(0o027)
        try:
            write_file(str(tmp_path / "new.txt"), "x")
            with open(tmp_path / "ref.txt", "w") as fh:
                fh.write("x")
        finally:
            os.umask(saved)
        assert (os.stat(tmp_path / "new.txt").st_mode
                == os.stat(tmp_path / "ref.txt").st_mode)

    def test_same_bytes_advance_mtime(self, tmp_path):
        path = str(tmp_path / "same.txt")
        write_file(path, "same\n")
        os.utime(path, ns=(10**9, 10**9))
        write_file(path, "same\n")
        assert os.stat(path).st_mtime_ns > 10**9

    def test_directory_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_file(str(tmp_path), "x")

    def test_only_writer_in_the_package(self):
        """No open() call in benloc outside read_file and write_file has a
        writing mode, so every output goes through write_file."""
        package = os.path.dirname(instance.__file__)
        found = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            allowed = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef)
                       and fn.name in ("read_file", "write_file")
                       for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "open"
                        and id(node) not in allowed):
                    continue
                mode = ([kw.value for kw in node.keywords if kw.arg == "mode"]
                        or node.args[1:2])
                if not mode:
                    text = "r"
                elif isinstance(mode[0], ast.Constant):
                    text = mode[0].value
                else:
                    text = "?"  # a mode computed at run time
                if set(text) & set("wax+?"):
                    found.append(f"{name}:{node.lineno} open mode {text!r}")
        assert found == []


class TestWriteMps:
    def test_no_constraint_instance(self):
        inst = MipInstance(
            name="empty", sense="minimize", obj_coeffs=np.array([1.0]),
            mat_rows=np.array([], dtype=int), mat_cols=np.array([], dtype=int),
            mat_vals=np.array([]), row_senses=[], rhs=np.array([]),
            var_lb=np.zeros(1), var_ub=np.array([np.inf]),
            var_types=[CONTINUOUS], row_names=[], col_names=["x"])
        text = write_mps(inst)
        rows_section = text.split("ROWS\n")[1].split("COLUMNS\n")[0]
        assert rows_section.strip() == "N  OBJ"
        assert parse_mps(text) == inst

    def test_deterministic(self):
        inst = small_instance()
        assert write_mps(inst) == write_mps(inst)

    def test_empty_column_is_declared(self):
        for lb, ub, t in ((0.0, 1.0, BINARY), (0.0, INF, CONTINUOUS)):
            inst = MipInstance(
                name="e", sense="minimize", obj_coeffs=np.zeros(1),
                mat_rows=[], mat_cols=[], mat_vals=[], row_senses=[], rhs=[],
                var_lb=[lb], var_ub=[ub], var_types=[t], row_names=[],
                col_names=["c0"])
            assert parse_mps(write_mps(inst)) == inst

    def test_integer_inside_unit_interval_is_binary(self):
        inst = MipInstance(
            name="b", sense="minimize", obj_coeffs=np.ones(2),
            mat_rows=[0, 0], mat_cols=[0, 1], mat_vals=[1.0, 1.0],
            row_senses=[LE], rhs=[1.0], var_lb=[0.0, 0.0],
            var_ub=[0.5, 2.0], var_types=[INTEGER, INTEGER],
            row_names=["r"], col_names=["x", "y"])
        assert inst.var_types.tolist() == [BINARY, INTEGER]
        assert parse_mps(write_mps(inst)) == inst

    def test_round_trip_small(self):
        inst = small_instance()
        assert parse_mps(write_mps(inst)) == inst

    def test_round_trip_corpus(self, mps_corpus):
        import warnings
        for path in mps_corpus:
            with open(path) as fh:
                text = fh.read()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                first = parse_mps(text)
                again = parse_mps(write_mps(first))
            assert again == first, path

    def test_every_bound_combination_round_trips(self):
        """Each finite or infinite lower and upper bound, crossed ones too,
        of every variable type is written without a stand-in for infinity
        and reads back."""
        combos = [(lo, hi, t) for t in (CONTINUOUS, BINARY, INTEGER)
                  for lo in (-INF, -2.0, 0.0, 0.5, 1.0)
                  for hi in (-2.0, 0.0, 0.5, 1.0, 3.0, INF)
                  if t != BINARY or 0.0 <= lo and hi <= 1.0]
        lb, ub, types = zip(*combos)
        inst = MipInstance(
            name="b", sense="minimize", obj_coeffs=np.ones(len(combos)),
            mat_rows=[], mat_cols=[], mat_vals=[], row_senses=[], rhs=[],
            var_lb=lb, var_ub=ub, var_types=types, row_names=[],
            col_names=[f"c{j}" for j in range(len(combos))])
        text = write_mps(inst)
        assert "1e308" not in text and "inf" not in text
        assert parse_mps(text) == inst

    def test_bound_lines_are_pinned(self):
        """Each column's bound lines: BV, FX or FR alone, else MI or LO as
        needed and then UP for a finite upper bound; LO 0 is written for an
        integer column and under a negative UP, and -0.0 keeps its sign."""
        bounds = [(BINARY, 0.0, 1.0), (CONTINUOUS, 2.5, 2.5),
                  (CONTINUOUS, -INF, INF), (CONTINUOUS, -INF, 4.0),
                  (CONTINUOUS, 1.5, 3.0), (CONTINUOUS, 0.0, 7.0),
                  (CONTINUOUS, 0.0, -2.0), (INTEGER, 0.0, INF),
                  (CONTINUOUS, -3.0, -0.0), (CONTINUOUS, 0.0, INF)]
        types, lb, ub = zip(*bounds)
        names = "abcdefghij"
        inst = MipInstance(
            name="b", sense="minimize", obj_coeffs=np.ones(len(bounds)),
            mat_rows=[], mat_cols=[], mat_vals=[], row_senses=[], rhs=[],
            var_lb=lb, var_ub=ub, var_types=types, row_names=[],
            col_names=list(names))
        assert write_mps(inst).split("BOUNDS\n")[1] == (
            " BV BND  a\n"
            " FX BND  b  2.5\n"
            " FR BND  c\n"
            " MI BND  d\n UP BND  d  4.0\n"
            " LO BND  e  1.5\n UP BND  e  3.0\n"
            " UP BND  f  7.0\n"
            " LO BND  g  0.0\n UP BND  g  -2.0\n"
            " LO BND  h  0.0\n"
            " LO BND  i  -3.0\n UP BND  i  -0.0\n"
            "ENDATA\n")

    @pytest.mark.parametrize("source, message", [
        ({"col_names": ["a", "a", "c"]}, "duplicate column name 'a'"),
        ({"row_names": ["r1", "r1"]}, "duplicate row name 'r1'"),
        ({"row_names": ["r1", "OBJ"]}, "duplicate row name 'OBJ'"),
        ({"col_names": ["a b", "b", "c"]},
         "name 'a b' is empty or holds a blank"),
        ({"col_names": ["", "b", "c"]}, "name '' is empty or holds a blank"),
        ({"col_names": ["*a", "b", "c"]}, "column name '*a' starts with '*'"),
        ({"name": "my inst"}, "name 'my inst' is empty or holds a blank"),
        ("ROWS\n N  OBJ\n L  r\n L  r__rng\nCOLUMNS\n    x  r  1.0  r__rng  "
         "1.0\nRANGES\n    RNG  r  3.0\nENDATA\n",
         "duplicate row name 'r__rng'"),
        ({"row_names": ["r1", "MARKER"]}, "row name 'MARKER' reads as a marker"),
        ({"obj_name": "'Marker'"}, "row name \"'Marker'\" reads as a marker"),
    ])
    def test_name_that_cannot_round_trip_refused(self, source, message):
        """An instance whose names write_mps could not read back as written
        is refused naming the name, built directly or parsed."""
        with pytest.raises(InvalidInstanceError) as info:
            write_mps(parse_mps(source) if isinstance(source, str)
                      else replace(small_instance(), **source))
        assert str(info.value) == message

    def test_permuted_name_order(self):
        inst = small_instance()
        permuted, rec = apply_permutation(inst, [1, 0], [2, 0, 1])
        assert permuted.row_names == ["r2", "r1"]
        assert permuted.col_names == ["b", "c", "a"]
        text = write_mps(permuted)
        assert text.index("r2") < text.index("r1")


def row_profile(inst):
    """Multiset of (sense, rhs, sorted coefficient tuple) over rows."""
    out = []
    for i in range(inst.num_rows):
        _, vals = inst.row_entries(i)
        out.append((inst.row_senses[i], float(inst.rhs[i]),
                    tuple(sorted(vals))))
    return sorted(out)


class TestPermutation:
    def test_seed_zero_is_identity(self):
        inst = small_instance()
        permuted, rec = permute_instance(inst, 0)
        assert permuted == inst
        assert rec.row_perm.tolist() == list(range(inst.num_rows))
        assert rec.col_perm.tolist() == list(range(inst.num_cols))
        assert rec.seed == 0

    def test_counts_preserved(self):
        inst = gen_setcover(12, 25, 0.3, seed=3)
        for seed in (1, 2, 3):
            p, _ = permute_instance(inst, seed)
            assert (p.num_rows, p.num_cols, p.nnz) == (12, 25, inst.nnz)

    def test_row_profile_invariant(self):
        inst = gen_setcover(9, 17, 0.4, seed=5)
        base = row_profile(inst)
        for seed in range(1, 6):
            p, _ = permute_instance(inst, seed)
            assert row_profile(p) == base

    def test_row_activities_under_column_mapping(self):
        inst = small_instance()
        rng = np.random.default_rng(0)
        x = rng.random(inst.num_cols)
        permuted, rec = permute_instance(inst, 4)
        x_new = np.empty_like(x)
        x_new[rec.col_perm] = x

        def activities(m, point):
            acts = []
            for i in range(m.num_rows):
                cols, vals = m.row_entries(i)
                acts.append((m.row_senses[i], float(m.rhs[i]),
                             round(float(vals @ point[cols]), 12)))
            return sorted(acts)

        assert activities(permuted, x_new) == activities(inst, x)

    def test_composition(self):
        inst = gen_setcover(7, 11, 0.5, seed=1)
        once, r1 = permute_instance(inst, 11)
        twice, r2 = permute_instance(once, 12)
        composed, _ = apply_permutation(inst, r2.row_perm[r1.row_perm],
                                        r2.col_perm[r1.col_perm])
        assert twice == composed

    def test_record_json_round_trip(self):
        _, rec = permute_instance(small_instance(), 9)
        assert json.loads(rec.to_json()) == {
            "seed": 9, "row_perm": rec.row_perm.tolist(),
            "col_perm": rec.col_perm.tolist()}

    def test_invalid_permutation_rejected(self):
        with pytest.raises(InvalidInstanceError):
            PermutationRecord(np.array([0, 0]), np.array([0]), 1)

    @pytest.mark.parametrize("row_perm, col_perm, message", [
        ([0.0, 1.9, 2], [0, 1, 2, 3], "row_perm holds 1.9, not an int64 value"),
        ([0.5, 1, 2], [0, 1, 2, 3], "row_perm holds 0.5, not an int64 value"),
        ([1, 0], [2, 0, 2 ** 70],
         "col_perm holds 1180591620717411303424, not an int64 value")])
    def test_lossy_permutation_rejected(self, row_perm, col_perm, message):
        """A permutation is never truncated into a valid one, whether the
        record is built directly or by apply_permutation."""
        for build in (PermutationRecord, partial(apply_permutation,
                                                 small_instance())):
            with pytest.raises(InvalidInstanceError) as info:
                build(row_perm, col_perm, 0)
            assert str(info.value) == message


class TestInvariants:
    def test_duplicate_matrix_entry_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MipInstance(
                name="bad", sense="minimize", obj_coeffs=np.array([1.0]),
                mat_rows=np.array([0, 0]), mat_cols=np.array([0, 0]),
                mat_vals=np.array([1.0, 2.0]), row_senses=[LE],
                rhs=np.array([1.0]), var_lb=np.zeros(1), var_ub=np.ones(1),
                var_types=[CONTINUOUS], row_names=["r"], col_names=["x"])

    def test_stored_zero_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MipInstance(
                name="bad", sense="minimize", obj_coeffs=np.array([1.0]),
                mat_rows=np.array([0]), mat_cols=np.array([0]),
                mat_vals=np.array([0.0]), row_senses=[LE],
                rhs=np.array([1.0]), var_lb=np.zeros(1), var_ub=np.ones(1),
                var_types=[CONTINUOUS], row_names=["r"], col_names=["x"])

    @pytest.mark.parametrize("field, value", [
        ("obj_coeffs", [1.0, INF, 0.0]), ("mat_vals", [1.0, -2.0, np.nan, 1.0]),
        ("rhs", [4.0, -INF]), ("var_lb", [0.0, np.nan, 0.0]),
        ("var_ub", [1.0, 10.0, np.nan])])
    def test_non_finite_values_rejected(self, field, value):
        inst = small_instance()
        kwargs = {f: getattr(inst, f) for f in (
            "name", "sense", "obj_coeffs", "mat_rows", "mat_cols", "mat_vals",
            "row_senses", "rhs", "var_lb", "var_ub", "var_types", "row_names",
            "col_names")}
        with pytest.raises(InvalidInstanceError, match="non-finite|NaN"):
            MipInstance(**dict(kwargs, **{field: np.array(value)}))

    @pytest.mark.parametrize("field, value, reason", [
        ("var_lb", [0.0, INF, 0.0], "column 'b' has lower bound +inf"),
        ("var_ub", [1.0, 10.0, -INF], "column 'c' has upper bound -inf")])
    def test_infinite_bound_on_the_wrong_side_rejected(self, field, value,
                                                       reason):
        inst = small_instance()
        kwargs = {f: getattr(inst, f) for f in (
            "name", "sense", "obj_coeffs", "mat_rows", "mat_cols", "mat_vals",
            "row_senses", "rhs", "var_lb", "var_ub", "var_types", "row_names",
            "col_names")}
        with pytest.raises(InvalidInstanceError) as e:
            MipInstance(**dict(kwargs, **{field: np.array(value)}))
        assert str(e.value) == reason

    @pytest.mark.parametrize("source, message", [
        ({"col_names": ["a b", "c", "c"]}, "duplicate column name 'c'"),
        ({"col_names": ["*a", "b c", "c"]},
         "name 'b c' is empty or holds a blank"),
        ({"row_names": ["MARKER", ""]}, "name '' is empty or holds a blank"),
        ({"row_names": ["MARKER", "r2"], "col_names": ["*a", "b", "c"]},
         "column name '*a' starts with '*'"),
    ])
    def test_name_checks_refuse_in_order(self, source, message):
        """Of two names that different checks refuse, the earlier check's is
        named: duplicates, then an empty name or one holding a blank, then
        a column starting with '*', then a row that reads as MARKER."""
        with pytest.raises(InvalidInstanceError) as info:
            replace(small_instance(), **source)
        assert str(info.value) == message

    def test_binary_bounds_enforced(self):
        with pytest.raises(InvalidInstanceError):
            MipInstance(
                name="bad", sense="minimize", obj_coeffs=np.array([1.0]),
                mat_rows=np.array([0]), mat_cols=np.array([0]),
                mat_vals=np.array([1.0]), row_senses=[LE],
                rhs=np.array([1.0]), var_lb=np.zeros(1), var_ub=np.array([2.0]),
                var_types=[BINARY], row_names=["r"], col_names=["x"])

    @pytest.mark.parametrize("field, codes, message", [
        ("row_senses", [LE, 3], "bad row sense code 3"),
        ("var_types", [BINARY, -1, CONTINUOUS], "bad var type code -1")])
    def test_out_of_range_code_rejected(self, field, codes, message):
        with pytest.raises(InvalidInstanceError) as info:
            replace(small_instance(), **{field: codes})
        assert str(info.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("row_senses", np.array([258, GE]),
         "row_senses holds 258, not an int8 value"),
        ("row_senses", [300, GE], "row_senses holds 300, not an int8 value"),
        ("var_types", [1.7, INTEGER, CONTINUOUS],
         "var_types holds 1.7, not an int8 value"),
        ("mat_rows", np.array([0, 0, 1, 1]) + 0.5,
         "mat_rows holds 0.5, not an int64 value"),
        ("mat_cols", [0.0, 1.0, 1.0, 2.5],
         "mat_cols holds 2.5, not an int64 value"),
        ("mat_rows", [2 ** 70, 0, 1, 1],
         "mat_rows holds 1180591620717411303424, not an int64 value")])
    def test_cast_that_changes_a_value_rejected(self, field, value, message):
        """An integer field never wraps a code out of range or truncates a
        fraction into a valid value."""
        with pytest.raises(InvalidInstanceError) as info:
            replace(small_instance(), **{field: value})
        assert str(info.value) == message

    def test_exact_values_of_another_dtype_accepted(self):
        inst = small_instance()
        assert replace(inst, mat_rows=inst.mat_rows.astype(float),
                       row_senses=np.array([LE, GE], dtype=np.int64),
                       var_types=[float(BINARY), INTEGER, CONTINUOUS]) == inst

    def test_sense_and_type_strings_rejected(self):
        """The fields hold codes; a string is refused, never compared."""
        for field in ({"row_senses": ["<=", ">="]},
                      {"var_types": ["binary", "integer", "continuous"]}):
            with pytest.raises(ValueError):
                replace(small_instance(), **field)

    def test_binary_rule_leaves_the_callers_types_unchanged(self):
        types = np.array([INTEGER, INTEGER, CONTINUOUS], dtype=np.int8)
        inst = replace(small_instance(), var_types=types)
        assert inst.var_types.tolist() == [BINARY, INTEGER, CONTINUOUS]
        assert types.tolist() == [INTEGER, INTEGER, CONTINUOUS]


def _coordinate_instance(m, n, rows, cols):
    """An m x n instance holding entries (rows[k], cols[k]) of value k + 1,
    in the order given."""
    return MipInstance(
        name="order", sense="minimize", obj_coeffs=np.zeros(n),
        mat_rows=rows, mat_cols=cols, mat_vals=np.arange(1.0, len(rows) + 1),
        row_senses=[LE] * m, rhs=np.zeros(m), var_lb=np.zeros(n),
        var_ub=np.ones(n), var_types=[CONTINUOUS] * n,
        row_names=[f"r{i}" for i in range(m)],
        col_names=[f"c{j}" for j in range(n)])


class TestOrder:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.data())
    def test_entries_stored_in_row_then_column_order(self, data):
        """Entries given in any order are stored as np.lexsort((cols, rows))
        orders them, values moving with their coordinates."""
        m, n = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 300))
        cells = data.draw(st.lists(st.tuples(st.integers(0, m - 1),
                                             st.integers(0, n - 1)),
                                   unique=True, max_size=60))
        rows = np.array([i for i, _ in cells], dtype=np.int64)
        cols = np.array([j for _, j in cells], dtype=np.int64)
        inst = _coordinate_instance(m, n, rows, cols)
        order = np.lexsort((cols, rows))
        assert inst.mat_rows.tolist() == rows[order].tolist()
        assert inst.mat_cols.tolist() == cols[order].tolist()
        assert inst.mat_vals.tolist() == (order + 1.0).tolist()
        assert inst.row_ptr.tolist() == np.searchsorted(
            rows[order], np.arange(m + 1)).tolist()

    @pytest.mark.parametrize("rows, cols, message", [
        ([2, 0, 2], [1, 0, 1], "duplicate (row, col) entries"),
        ([1, 0, 1, 1], [3, 0, 0, 3], "duplicate (row, col) entries"),
        ([1, 3, 0], [0, 0, 1], "matrix row index out of range"),
        ([1, -1, 0], [0, 0, 1], "matrix row index out of range"),
        ([1, 0, 0], [2, 0, 4], "matrix col index out of range"),
        ([1, 0, 0], [0, -1, 2], "matrix col index out of range"),
        # a row of 2**32 reads as column 1 of row 0 in the sort key
        ([0, 1 << 32], [1, 0], "matrix row index out of range"),
        ([2, 1], [-1, 3], "matrix col index out of range")])
    def test_repeated_or_out_of_range_entries_refused(self, rows, cols,
                                                      message):
        with pytest.raises(InvalidInstanceError) as e:
            _coordinate_instance(3, 4, np.array(rows), np.array(cols))
        assert str(e.value) == message

    @pytest.mark.parametrize("chunk", (1, 40, 300, 2000, 1 << 20))
    @pytest.mark.parametrize("copied", (0, 7, 30))
    def test_repeated_pair_reported_at_its_line_across_chunks(self, chunk,
                                                             copied):
        """A COLUMNS pair repeated far from its first copy, and ahead of
        other pairs, is refused at the repeat's line with the line reader's
        message, whether the copies fall in one chunk or, with a small
        _CHUNK, in different ones."""
        lines = write_mps(gen_setcover(30, 40, 0.2, 3)).splitlines(True)
        first = copied + next(k for k, line in enumerate(lines)
                              if line.startswith("    x_") and "cover_" in line)
        at = (first + 3 * lines.index("RHS\n")) // 4
        assert len("".join(lines[first:at])) > 2000  # apart in chunks
        text = "".join(lines[:at] + [lines[first]] + lines[at:])
        with pytest.raises(MpsSemanticError) as e:
            mps_reference.parse_mps(text)
        assert e.value.line_no == at + 1  # the inserted line
        saved, instance._CHUNK = instance._CHUNK, chunk
        try:
            with pytest.raises(MpsSemanticError) as got:
                parse_mps(text)
        finally:
            instance._CHUNK = saved
        assert str(got.value) == str(e.value)


# ---------------------------------------------------------------------------
# Properties over random instances and MPS texts


@st.composite
def instances(draw):
    """Valid instances: 0-5 rows, 1-5 columns, every variable type, infinite,
    negative, fixed and crossed (lower above upper) bounds, empty columns and
    zero objectives."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    var_types, lb, ub = [], [], []
    for _ in range(n):
        t = draw(st.sampled_from((CONTINUOUS, BINARY, INTEGER)))
        if t == BINARY:
            lo = draw(st.sampled_from([0.0, 0.5, 1.0]))
            hi = draw(st.sampled_from([v for v in (0.0, 0.5, 1.0) if v >= lo]))
        else:
            lo = draw(st.sampled_from([-INF, -3.0, -0.5, 0.0, 0.5, 1.0, 7.25]))
            hi = draw(st.sampled_from([-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 7.25, INF]))
        var_types.append(t)
        lb.append(lo)
        ub.append(hi)
    coefs = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.5, 2.0]),
                          min_size=m * n, max_size=m * n))
    entries = [(k // n, k % n, v) for k, v in enumerate(coefs) if v != 0.0]
    return MipInstance(
        name="h", sense=draw(st.sampled_from(["minimize", "maximize"])),
        obj_coeffs=draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]),
                                 min_size=n, max_size=n)),
        mat_rows=[e[0] for e in entries], mat_cols=[e[1] for e in entries],
        mat_vals=[e[2] for e in entries],
        row_senses=draw(st.lists(st.sampled_from((LE, GE, EQ)), min_size=m,
                                 max_size=m)),
        rhs=draw(st.lists(st.sampled_from([0.0, 1.0, -4.5]), min_size=m,
                          max_size=m)),
        var_lb=lb, var_ub=ub, var_types=var_types,
        row_names=[f"r{i}" for i in range(m)],
        col_names=[f"c{j}" for j in range(n)])


class TestProperties:
    @settings(deadline=None)
    @given(instances())
    def test_write_parse_round_trip(self, inst):
        assert parse_mps(write_mps(inst)) == inst

    @settings(deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["UP", "LO", "FX", "FR", "MI", "PL", "BV", "UI", "LI"]),
        st.integers(0, 1),
        st.sampled_from([-2.0, -0.5, 0.0, 0.5, 3.0, INF, -INF])),
        min_size=1, max_size=5))
    # a negative UP after, before and between lower bounds of its column
    @example([("LO", 0, 0.5), ("UP", 0, -2.0)])
    @example([("UP", 0, -2.0), ("FX", 1, 3.0), ("UP", 1, -0.5)])
    @example([("MI", 0, 0.0), ("LI", 0, 3.0), ("UP", 0, -0.5)])
    def test_bounds_match_reference_in_file_order(self, bounds):
        valued = ("UP", "LO", "FX", "UI", "LI")
        lines = ["NAME b", "ROWS", " N  OBJ", " L  r0", "COLUMNS",
                 "    c0  OBJ  1.0  r0  1.0", "    c1  r0  2.0", "BOUNDS"]
        lines += [f" {t} BND  c{j}" + (f"  {v}" if t in valued else "")
                  for t, j, v in bounds]
        lines.append("ENDATA")
        text = "\n".join(lines) + "\n"

        # each column's bounds apply in file order from [0, +inf]; a negative
        # UP also frees the lower bound unless the column has a LO, MI or FX
        # bound anywhere in the file
        lb, ub, integer = [0.0, 0.0], [INF, INF], [False, False]
        for j in range(2):
            column = [(t, v) for t, jj, v in bounds if jj == j]
            for t, v in column:
                if t in ("LO", "LI", "FX"):
                    lb[j] = v
                if t in ("UP", "UI", "FX"):
                    ub[j] = v
                if t in ("MI", "FR"):
                    lb[j] = -INF
                if t in ("PL", "FR"):
                    ub[j] = INF
                if t == "BV":
                    lb[j], ub[j] = 0.0, 1.0
                integer[j] = integer[j] or t in ("BV", "UI", "LI")
                if t == "UP" and v < 0 and not any(
                        b in ("LO", "MI", "FX") for b, _ in column):
                    lb[j] = -INF
        try:
            expected = MipInstance(
                name="b", sense="minimize", obj_coeffs=[1.0, 0.0],
                mat_rows=[0, 0], mat_cols=[0, 1], mat_vals=[1.0, 2.0],
                row_senses=[LE], rhs=[0.0], var_lb=lb, var_ub=ub,
                var_types=[INTEGER if t else CONTINUOUS for t in integer],
                row_names=["r0"], col_names=["c0", "c1"])
        except InvalidInstanceError as exc:  # a wrong-side infinite bound
            with pytest.raises(InvalidInstanceError) as e:
                parse_mps(text)
            assert str(e.value) == str(exc)
            return
        assert parse_mps(text) == expected

    @settings(deadline=None)
    @given(instances())
    def test_row_entries_match_row_mask(self, inst):
        for i in range(inst.num_rows):
            cols, vals = inst.row_entries(i)
            mask = inst.mat_rows == i
            assert np.array_equal(cols, inst.mat_cols[mask])
            assert np.array_equal(vals, inst.mat_vals[mask])

    @settings(deadline=None)
    @given(st.data())
    def test_inverse_permutation_restores(self, data):
        inst = data.draw(instances())
        rp = np.array(data.draw(st.permutations(range(inst.num_rows))), dtype=int)
        cp = np.array(data.draw(st.permutations(range(inst.num_cols))), dtype=int)
        permuted, _ = apply_permutation(inst, rp, cp)
        back, _ = apply_permutation(permuted, np.argsort(rp), np.argsort(cp))
        assert back == inst

    @settings(deadline=None)
    @given(st.data())
    def test_ranges_match_reference_expansion(self, data):
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        senses = data.draw(st.lists(st.sampled_from("LGE"), min_size=m, max_size=m))
        rhs = data.draw(st.lists(st.sampled_from([0.0, 2.0, -5.0]),
                                 min_size=m, max_size=m))
        ranges = data.draw(st.lists(st.sampled_from([None, 0.0, 3.0, -1.5]),
                                    min_size=m, max_size=m))
        coefs = data.draw(st.lists(st.sampled_from([0.0, 1.0, -2.0]),
                                   min_size=m * n, max_size=m * n))
        entries = [(k // n, k % n, v) for k, v in enumerate(coefs) if v != 0.0]
        lines = ["NAME rng", "ROWS", " N  OBJ"]
        lines += [f" {s}  r{i}" for i, s in enumerate(senses)]
        lines.append("COLUMNS")
        for j in range(n):
            lines.append(f"    c{j}  OBJ  1.0")
            lines += [f"    c{j}  r{i}  {v}" for i, jj, v in entries if jj == j]
        lines.append("RHS")
        lines += [f"    RHS  r{i}  {b}" for i, b in enumerate(rhs)]
        lines.append("RANGES")
        lines += [f"    RNG  r{i}  {r}" for i, r in enumerate(ranges) if r is not None]
        lines.append("ENDATA")

        # MPS range semantics: L gives [b - |R|, b], G gives [b, b + |R|], E
        # gives [b, b + R] for R > 0 and [b + R, b] for R < 0.  The original
        # row keeps one side, an appended row "<name>__rng" takes the other.
        # R = 0 leaves [b, b]: the row is an equality, with no extra row.
        row_senses = [{"L": "<=", "G": ">=", "E": "="}[s] for s in senses]
        row_rhs = list(rhs)
        names = [f"r{i}" for i in range(m)]
        rows = [e[0] for e in entries]
        cols = [e[1] for e in entries]
        vals = [e[2] for e in entries]
        for i, r in enumerate(ranges):
            if r == 0.0:
                row_senses[i] = "="
            if not r:
                continue
            b = rhs[i]
            if senses[i] == "L":
                extra = (">=", b - abs(r))
            elif senses[i] == "G":
                extra = ("<=", b + abs(r))
            else:
                row_senses[i], row_rhs[i] = ">=", min(b, b + r)
                extra = ("<=", max(b, b + r))
            new_i = len(names)
            names.append(f"r{i}__rng")
            row_senses.append(extra[0])
            row_rhs.append(extra[1])
            for ri, cj, v in entries:
                if ri == i:
                    rows.append(new_i)
                    cols.append(cj)
                    vals.append(v)
        expected = MipInstance(
            name="rng", sense="minimize", obj_coeffs=np.ones(n),
            mat_rows=rows, mat_cols=cols, mat_vals=vals,
            row_senses=list(map(SENSES.index, row_senses)), rhs=row_rhs,
            var_lb=np.zeros(n), var_ub=np.full(n, INF),
            var_types=[CONTINUOUS] * n, row_names=names,
            col_names=[f"c{j}" for j in range(n)])
        assert parse_mps("\n".join(lines) + "\n") == expected

    @settings(deadline=None)
    @given(st.data())
    def test_reflowed_pairs_read_the_same(self, data):
        """The writer's one-pair COLUMNS, RHS and RANGES lines, joined two
        pairs to a line at random and with or without the RHS or RANGES set
        name, read back as the same instance.  A zero range on an equality
        row leaves it as it is."""
        inst = data.draw(instances())
        zero_ranges = "".join(f"    RNG  {name}  0.0\n" for name, s in zip(
            inst.row_names, inst.row_senses) if s == EQ)
        text = write_mps(inst).replace("BOUNDS\n",
                                       f"RANGES\n{zero_ranges}BOUNDS\n")
        lines, group, section = [], None, None

        def flush():
            if group is not None:
                named = section == "COLUMNS" or data.draw(st.booleans())
                lines.append("    " + "  ".join(group[0 if named else 1:]))

        for line in text.splitlines():
            toks = line.split()
            pairs = (section in ("COLUMNS", "RHS", "RANGES")
                     and line[0].isspace() and toks[1] != "'MARKER'")
            if (pairs and group is not None and len(group) == 3
                    and group[0] == toks[0] and data.draw(st.booleans())):
                group += toks[1:]
                continue
            flush()
            group = toks if pairs else None
            if not pairs:
                lines.append(line)
                if not line[0].isspace():
                    section = toks[0]
        assert parse_mps("\n".join(lines) + "\n") == inst


# ---------------------------------------------------------------------------
# Differential oracle: parse_mps against the line-at-a-time reader

_MPS_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "mps")
_FIXTURE_TEXTS = [read_file(os.path.join(_MPS_DIR, f), str)
                  for f in sorted(os.listdir(_MPS_DIR))]
_BOUND_TYPES = ("UP", "LO", "FX", "FR", "MI", "PL", "BV", "UI", "LI")
# tokens a mutation may put in a line, besides the text's own
_ODD_TOKENS = ("nan", "inf", "-inf", "1e999", "abc", "0", "0.0", "-1", "-2.5",
               "MARKER", "'MARKER'", "'INTORG'", "'INTEND'", "'INTMID'", "XX",
               "N", "L", "G", "E", "RHS", "RNG", "BND", "OBJ", "zz") \
    + _BOUND_TYPES
_ODD_CHARS = ("\r", "\x0b", "\x1c", "\x85", "\u2028", " ", "\t", "*", "x",
              "\n")
_STRAY_LINES = ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA",
                "OBJSENSE", "OBJSENSE MAX", "NAME other", "BOGUS", "* note",
                "  * indented note", "", "   ")
_TOKEN_OPS = ("replace_token", "insert_token", "delete_token",
              "truncate_line")
_LINE_OPS = ("delete", "duplicate", "swap", "join", "stray",
             "comment") + _TOKEN_OPS
_CHAR_OPS = ("flip", "truncate")
# fixed _CHUNK sizes; one shorter than a line puts a seam after every line
_CHUNKS = (1, 20, 40, 100, 300, 2000, 1 << 20)
# token edits weighted up: they reach a section's arity and value checks
_OPS = st.lists(st.sampled_from(_LINE_OPS + _CHAR_OPS + (
    "replace_token", "delete_token", "truncate_line") * 2), min_size=1,
                max_size=4)
_BOUND_LINE = st.tuples(st.sampled_from(_BOUND_TYPES),
                        st.sampled_from([-2.0, 0.0, 3.0, INF, -INF]))


@st.composite
def oracle_texts(draw):
    """A fixture, or a generated set-cover or independent-set text with
    RANGES, RHS lines of two pairs and extra BOUNDS lines."""
    kind = draw(st.sampled_from(["fixture", "setcover", "indset"]))
    if kind == "fixture":
        return _FIXTURE_TEXTS[draw(st.integers(0, len(_FIXTURE_TEXTS) - 1))]
    seed = draw(st.integers(0, 50))
    inst = (gen_setcover(draw(st.integers(2, 6)), draw(st.integers(3, 8)),
                         0.4, seed) if kind == "setcover"
            else gen_indset(draw(st.integers(3, 6)), 0.5, seed))
    head, rest = write_mps(inst).split("RHS\n")
    rhs, bounds = rest.split("BOUNDS\n")
    pairs = [line.split()[1:] for line in rhs.splitlines()]
    rhs = "".join("    RHS  " + "  ".join(sum(pairs[k:k + 2], [])) + "\n"
                  for k in range(0, len(pairs), 2))
    ranges = "".join(
        f"    RNG  {name}  {r}\n" for name, r in zip(inst.row_names, draw(
            st.lists(st.sampled_from([None, 0.0, 2.5, -1.5]),
                     min_size=inst.num_rows, max_size=inst.num_rows)))
        if r is not None)
    # the first two columns' bound lines, in place of the writer's: drawn
    # lines, a LO line on the first column, a drawn number (at least one)
    # of the other columns' lines, a negative UP line on each column, which
    # frees its lower bound unless a LO, MI or FX line set it, lines on the
    # second column, then the rest of the other columns' lines.  With a
    # chunk size shorter than a line, the first column's LO line routinely
    # lies in an earlier chunk than its UP line
    first_two = inst.col_names[:2]

    def lines(drawn):
        return "".join(
            f" {t} BND  {first_two[j % len(first_two)]}"
            + (f"  {v}" if t in ("UP", "LO", "FX", "UI", "LI") else "") + "\n"
            for j, t, v in drawn)
    *others, end = (line for line in bounds.splitlines(True)
                    if line.split()[2:3] not in [[c] for c in first_two])
    k = draw(st.integers(min(1, len(others)), len(others)))
    bounds = (lines([(draw(st.integers(0, 1)), *line) for line in draw(
        st.lists(_BOUND_LINE, min_size=1, max_size=4))]
        + [(0, "LO", draw(_BOUND_LINE)[1])]) + "".join(others[:k])
        + lines([(0, "UP", -2.0), (1, "UP", -2.0)] + [(1, *line) for line in
                 draw(st.lists(_BOUND_LINE, max_size=2))])
        + "".join(others[k:]) + end)
    if draw(st.booleans()):
        # a second N row, an entry on it in COLUMNS (dropped silently) and
        # in RHS (ignored with a warning), and a zero coefficient
        col, row = inst.col_names[0], (inst.row_names + ["OBJ"])[0]
        head = head.replace(" N  OBJ\n", " N  OBJ\n N  FREE\n").replace(
            "COLUMNS\n", f"COLUMNS\n    {col}  FREE  2.0  {row}  0.0\n")
        rhs += "    RHS  FREE  1.0\n"
    return f"{head}RHS\n{rhs}RANGES\n{ranges}BOUNDS\n{bounds}"


def _mutated(data, text):
    """text with 1-4 line, token and character mutations and a drawn line
    end.  Each lands on the first line or after it, or on the first data
    line of the RHS, RANGES or BOUNDS section or after it, so that the
    later sections are not always masked by a failure in an earlier one."""
    def pick(seq):
        return seq[data.draw(st.integers(0, len(seq) - 1))]
    lines, end = text.splitlines(), pick(["\n", "\r\n", "\r"])
    for op in data.draw(_OPS):
        if not lines:
            break
        start = pick([0] + [k + 1 for k, line in enumerate(lines[:-1])
                            if line.startswith(("RHS", "RANGES", "BOUNDS"))])
        i = data.draw(st.integers(start, len(lines) - 1))
        toks = lines[i].split()
        indent = "    " if lines[i][:1].isspace() else ""
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == "join" and i + 1 < len(lines):
            lines[i] += lines.pop(i + 1)
        elif op == "stray":
            lines.insert(i, pick(_STRAY_LINES))
        elif op == "comment":
            lines[i] = "*" + lines[i]
        elif op in _CHAR_OPS:
            p = data.draw(st.integers(0, len(lines[i])))
            if op == "truncate":  # the text ends inside line i
                return end.join(lines[:i] + [lines[i][:p]])
            # a flipped line end splits the line, as the reader will
            lines[i:i + 1] = (lines[i][:p] + pick(_ODD_CHARS)
                              + lines[i][p + 1:]).splitlines() or [""]
        elif op in _TOKEN_OPS:
            # one- and two-token lines are where arities go wrong
            k = pick([1, 2, data.draw(st.integers(0, len(toks)))])
            new = pick(_ODD_TOKENS if data.draw(st.booleans())
                       else text.split())
            if op == "replace_token":
                toks[k:k + 1] = [new]
            elif op == "insert_token":
                toks.insert(k, new)
            elif op == "delete_token":
                del toks[k:k + 1]
            else:
                del toks[k:]
            lines[i] = indent + "  ".join(toks)
    return end.join(lines) + end


def _outcome(parse, text):
    """What parse(text) gives: the instance's fields, arrays as (dtype,
    shape, bytes), or the exception's class, message and line number; and
    the warnings it issued, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = parse(text)
        except Exception as exc:  # every class, so a stray one shows
            result = (type(exc), str(exc), getattr(exc, "line_no", None))
        else:
            result = [(v.dtype.str, v.shape, v.tobytes())
                      if isinstance(v, np.ndarray) else v
                      for v in (getattr(inst, f.name) for f in fields(inst))]
    return result, [(w.category, str(w.message)) for w in caught]


class TestOracle:
    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(st.data())
    def test_parse_matches_line_reader(self, data):
        """parse_mps gives what the line-at-a-time reader gives: the same
        instance, to the bytes of every array, or the same exception class,
        message and line number, and the same warnings, whatever the chunk
        size."""
        text = _mutated(data, data.draw(oracle_texts()))
        chunk = data.draw(st.sampled_from(_CHUNKS))
        saved, instance._CHUNK = instance._CHUNK, chunk
        try:
            got = _outcome(parse_mps, text)
        finally:
            instance._CHUNK = saved
        assert got == _outcome(mps_reference.parse_mps, text)


# names a row or column may be renamed to: MARKER in any case and quoted,
# section and set names, the objective's name, and a comment's first token
_ODD_NAMES = ("MARKER", "marker", "'MARKER'", '"Marker"', "RHS", "RANGES",
              "BOUNDS", "OBJ", "*x")
# a name built directly: an odd name, a section or marker word, or one to
# four characters among quotes, a star and a non-ASCII letter; a name that
# may also hold blanks and a line end, or be empty
_NAME_CHARS = "xXmM'\"*RN_-.0é"
_DIRECT_NAMES = st.one_of(
    st.sampled_from(_ODD_NAMES + ("NAME", "ENDATA", "MARKERS", "INTORG",
                                  "INTEND", "'x'", "N", "RHS__rng")),
    st.text(_NAME_CHARS, min_size=1, max_size=4))
_SPOILED_NAMES = st.text(_NAME_CHARS + " \t\x1c", max_size=4)


class TestClosure:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.data())
    def test_write_then_parse_gives_every_accepted_instance(self, data):
        """parse_mps(write_mps(x)) == x for every x parse_mps accepts.  The
        texts are the oracle's, with up to three row or column names renamed
        to odd ones or to "<row>__rng", which a ranged row also makes, and
        then mutated or not."""
        text = data.draw(oracle_texts())
        rows, cols, section = [], {}, None
        for line in text.splitlines():
            toks = line.split()
            if not toks or toks[0].startswith("*"):
                continue
            if not line[:1].isspace():
                section = toks[0]
            elif section == "ROWS":
                rows.append(toks[1])
            elif section == "COLUMNS":
                cols[toks[0]] = None
        renamed = data.draw(st.dictionaries(st.sampled_from(rows + list(cols)), (
            st.sampled_from(_ODD_NAMES + tuple(f"{row}__rng" for row in rows))),
            max_size=3))
        text = "".join(
            line if not line[:1].isspace() else "    " + "  ".join(
                renamed.get(tok, tok) for tok in line.split()) + "\n"
            for line in text.splitlines(True))
        if data.draw(st.booleans()):
            text = _mutated(data, text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                inst = parse_mps(text)
            except (MpsError, InvalidInstanceError):
                return  # refused: nothing to write
        assert parse_mps(write_mps(inst)) == inst

    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(st.data())
    def test_write_then_parse_gives_every_valid_instance(self, data):
        """parse_mps(write_mps(x)) == x for every x MipInstance accepts,
        built directly: names of quotes, stars, blanks, a line end and a
        non-ASCII letter, or words a reader gives a meaning; every sense and
        type, signed zeros, and infinite bounds."""
        m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))

        def drawn(values, size):
            return data.draw(st.lists(st.sampled_from(values), min_size=size,
                                      max_size=size))

        # the instance's, the rows' and the columns' names, of which one or
        # none is spoiled
        names = [data.draw(st.lists(_DIRECT_NAMES, min_size=size,
                                    max_size=size, unique=True))
                 for size in (1, m + 1, n)]
        spoiled = names[data.draw(st.integers(0, 2))]
        if spoiled and data.draw(st.booleans()):
            spoiled[data.draw(st.integers(0, len(spoiled) - 1))] = data.draw(
                _SPOILED_NAMES)
        (name,), (obj_name, *row_names), col_names = names
        cells = drawn((0.0, 0.0, 1.0, -2.5, 1e300, 5e-324), m * n)
        rows, cols = np.divmod(np.flatnonzero(cells), max(n, 1))
        try:
            inst = MipInstance(
                name=name,
                sense=data.draw(st.sampled_from(["minimize", "maximize"])),
                obj_coeffs=drawn((0.0, -0.0, 1.0, -1e-300), n),
                mat_rows=rows, mat_cols=cols,
                mat_vals=np.array(cells)[np.flatnonzero(cells)],
                row_senses=drawn((LE, GE, EQ), m),
                rhs=drawn((0.0, -0.0, 4.5), m),
                var_lb=drawn((-INF, -3.0, -0.0, 0.0, 0.5, 1.0), n),
                var_ub=drawn((-0.5, -0.0, 0.0, 1.0, 2.0, INF), n),
                var_types=drawn((CONTINUOUS, BINARY, INTEGER), n),
                row_names=row_names,
                col_names=col_names, obj_name=obj_name)
        except InvalidInstanceError:
            return  # refused: not an instance
        assert parse_mps(write_mps(inst)) == inst


class TestChunks:
    def test_a_line_longer_than_a_chunk_ends_only_its_own_chunk(
            self, monkeypatch):
        """A chunk ends at the first line end that makes it _CHUNK
        characters long: one comment line longer than _CHUNK lengthens its
        own chunk, and the lines after it are still read _CHUNK characters
        at a time."""
        text = write_mps(gen_setcover(200, 300, 0.05, 1))
        long = "* " + "x" * 2498 + "\n"
        text = text.replace("ROWS\n", "ROWS\n" + long, 1)
        chunks, data_lines = [], instance._data_lines

        def spy(chunk):
            chunks.append(len(chunk))
            return data_lines(chunk)
        monkeypatch.setattr(instance, "_data_lines", spy)
        monkeypatch.setattr(instance, "_CHUNK", 2000)
        assert parse_mps(text) == gen_setcover(200, 300, 0.05, 1)
        assert sum(chunks) == len(text)
        assert max(chunks) < 2000 + len(long)


# every character str.split() splits at (the splitlines() line ends among
# them), "\r\n", NUL, a comment's "*", a name character, one outside the
# Basic Multilingual Plane and a lone surrogate
_BLANKS = tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_CHUNK_PIECES = _BLANKS + ("\r\n", "\0", "*", "x", "\U0001d400", "\ud800")


def _split_lines(chunk):
    """What _data_lines(chunk) gives, from chunk.splitlines() and a
    str.split() of each line, without the first code points."""
    toks, starts, counts, data, head = [], [], [], [], []
    lines = chunk.splitlines()
    for k, line in enumerate(lines):
        words = line.split()
        if words and not words[0].startswith("*"):
            starts.append(len(toks))
            counts.append(len(words))
            data.append(k)
            head.append(not line[0].isspace())
        toks += words
    return toks, starts, counts, data, head, len(lines)


class TestTokens:
    def test_code_point_table_classes_every_blank_and_line_end(self):
        """_CHAR gives 1 for each str.isspace() character, 2 for each that
        str.splitlines() ends a line at, and 0 for every other character
        (the code points past it read its last entry)."""
        want = np.zeros(len(instance._CHAR), dtype=np.uint8)
        for c in _BLANKS:
            want[ord(c)] = 1 + (len(("a" + c + "b").splitlines()) == 2)
        assert instance._CHAR.tolist() == want.tolist()

    @settings(deadline=None, derandomize=True, max_examples=500)
    @given(st.lists(st.sampled_from(_CHUNK_PIECES), max_size=40).map("".join))
    def test_data_lines_match_splitlines_and_split(self, chunk):
        """One split of the chunk and its code-point line map give the
        tokens, data lines, token counts, header flags and line count that
        splitlines() and a split() per line give."""
        toks, lead, *rest = instance._data_lines(chunk)
        want = _split_lines(chunk)
        assert toks.tolist() == want[0]
        assert lead.tolist() == [ord(tok[0]) for tok in want[0]]
        assert [np.asarray(x).tolist() for x in rest] == list(want[1:])

    def test_marker_lines_among_names_that_start_like_one(self):
        """Only a second token starting with M, m or a quote is tested for
        MARKER: row names that all do read as rows, and marker words in
        four spellings as markers, as the line reader reads them."""
        text = """\
NAME m
ROWS
 N  Mobj
 L  M1
 G  m2
 E  'q3
 L  "Q4
 L  MARKERS
COLUMNS
    x  Mobj  1  M1  2
    M0  MARKER  INTORG
    y  m2  3  'q3  4
    y  "Q4  5  MARKERS  6
    M1  'marker'  'INTEND'
    z  M1  7  "Q4  -1
    M2  ''Marker''  INTORG
    w  MARKERS  8
    M3  Marker  INTEND
RHS
    RHS  M1  1  'q3  2
ENDATA
"""
        got = _outcome(parse_mps, text)
        assert got == _outcome(mps_reference.parse_mps, text)
        inst = parse_mps(text)
        assert inst.col_names == ["x", "y", "z", "w"]
        assert inst.var_types.tolist() == [CONTINUOUS, INTEGER, CONTINUOUS,
                                           INTEGER]
        assert inst.row_names == ["M1", "m2", "'q3", '"Q4', "MARKERS"]
        assert inst.nnz == 8


class TestCalls:
    @pytest.mark.parametrize("layer", ["parse", "write", "signature"])
    def test_calls_do_not_grow_with_nnz(self, layer, monkeypatch):
        """parse_mps, write_mps and canonical_signature make as many
        Python-level calls at 20k nonzeros as at 2k: none of their work is
        done per line, nonzero or node in Python."""
        def calls(inst):
            arg = {"parse": write_mps(inst), "write": inst,
                   "signature": build_graph(inst)}[layer]
            fn = {"parse": parse_mps, "write": write_mps,
                  "signature": canonical_signature}[layer]
            fn(arg)  # a first call may import, say, a codec
            return count_calls(fn, arg)
        small = gen_setcover(100, 200, 0.1, seed=0)
        large = gen_setcover(400, 500, 0.1, seed=0)
        assert 9 * small.nnz < large.nnz < 11 * small.nnz
        if layer == "parse":
            # parse_mps makes a fixed number of calls per chunk of text
            monkeypatch.setattr(instance, "_CHUNK", 1 << 20)
            assert len(write_mps(large)) < instance._CHUNK
        assert calls(small) == calls(large)


def test_permute_calls_do_not_grow_with_nnz():
    """permute_instance makes as many Python-level calls at 20k nonzeros
    as at 2k: the permuted instance is sorted and checked in numpy."""
    def calls(inst):
        return count_calls(permute_instance, inst, 7)
    small = gen_setcover(100, 200, 0.1, seed=0)
    large = gen_setcover(400, 500, 0.1, seed=0)
    assert 9 * small.nnz < large.nnz < 11 * small.nnz
    assert calls(small) == calls(large)


def test_parse_memory_stays_bounded():
    """Parsing gen_setcover(3000, 4000, 0.008, 1), 96k nonzeros in 2.9 MB of
    text, stays within 16 MB under tracemalloc.

    Tokenizing 2^20 characters at a time peaked at 32.4 MB here; with
    _CHUNK at 2^17 the peak, 10.6 MB, is the instance's own arrays being
    built and sorted."""
    text = write_mps(gen_setcover(3000, 4000, 0.008, 1))
    tracemalloc.start()
    try:
        parse_mps(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
