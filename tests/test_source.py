"""Static checks of the package source: a deletion leaves no import or
private module-level name behind that nothing reads, and no module compares
a row sense or variable type with its name."""

import ast
import os
import re

import benloc
from benloc.instance import SENSES, VAR_TYPES

PACKAGE = os.path.dirname(benloc.__file__)


def _modules():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _loaded(tree):
    """The names the tree reads: names loaded, attributes taken, and the
    strings of an __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_no_unused_import():
    """Every name a module imports is read in that module; __init__.py
    imports to re-export."""
    found = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        loaded = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} imports {b!r}, never read"
                      for b in bound if b not in loaded]
    assert found == []


def test_no_unread_private_name():
    """Every _private name a module defines at module level is read by some
    module of the package, directly, as an attribute or by import."""
    modules = list(_modules())
    read = set()
    for _, tree in modules:
        read |= _loaded(tree)
        read.update(a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for a in node.names)
    found = []
    for name, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{name}:{node.lineno} defines {d!r}, never read"
                      for d in defined if d.startswith("_")
                      and not d.startswith("__") and d not in read]
    assert found == []


def test_every_export_has_a_caller():
    """Every name __init__.py exports is read by another module of the
    package, by the benchmark or by the acceptance gates, so no export is
    kept for its own tests alone.  The benchmark wraps functions it names in
    strings, so a word of a string there counts as a read."""
    modules = dict(_modules())
    exported = [a.asname or a.name for node in ast.walk(modules.pop(
        "__init__.py")) if isinstance(node, ast.ImportFrom) for a in node.names]
    read = set().union(*map(_loaded, modules.values()))
    root = os.path.dirname(os.path.dirname(PACKAGE))
    bench = os.path.join(root, "perfbench")
    paths = [os.path.join(root, "tests", "test_acceptance.py")] + [
        os.path.join(bench, name) for name in sorted(os.listdir(bench))
        if name.endswith(".py")]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        read |= _loaded(tree)
        if path.startswith(bench):
            read.update(word for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        for word in re.findall(r"\w+", node.value))
    assert [name for name in exported if name not in read] == []


def test_no_sense_or_type_string_compared():
    """No module compares a string of SENSES or VAR_TYPES with == or !=, or
    calls its __eq__ or __ne__.  Senses and types are int8 codes, and numpy
    compares an int8 array with a string as all False, with no warning."""
    def named(node):
        return isinstance(node, ast.Constant) and node.value in names
    names = set(SENSES) | set(VAR_TYPES)
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                compared = [sides[k:k + 2] for k, op in enumerate(node.ops)
                            if isinstance(op, (ast.Eq, ast.NotEq))]
                if any(map(named, sum(compared, []))):
                    found.append(f"{name}:{node.lineno} compares with a name")
            elif (isinstance(node, ast.Attribute) and named(node.value)
                  and node.attr in ("__eq__", "__ne__")):
                found.append(f"{name}:{node.lineno} calls {node.attr}")
    assert found == []
