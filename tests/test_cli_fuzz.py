"""Fuzz property: bad input through the CLI fails with one line, never a
traceback.

One small oracle dataset, its split and one model of each kind are built
once.  Each example applies one mutation to one of those files (truncation,
deleting or duplicating a line, replacing a token with junk, appending junk,
flipping a character), runs one CLI command that reads the file, and restores
it.  A second property edits one array of a model file (dropping or
duplicating one row, moving it to the end, or replacing one element) and
re-encodes it with a matching shape, so the file decodes and reaches the
model's own checks.  The command must exit 0 within a time limit, or exit 1
with exactly one ``error in <command>: `` line on stderr, which for an edited
model names the file and a model or forest field; any other exception fails
the property.
"""

import base64
import json
import math
import os
import re
import signal

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from benloc.cli import main
from benloc.learners import MODEL_KINDS

MUTATIONS = ("truncate", "delete_line", "duplicate_line", "junk_token",
             "append_junk", "flip_char")
JUNK = ("", "x", "-1", "0", "1e400", "nan", "-inf", "null", "[]", "{}", '"',
        "é", "\x00", "99999999999999999999")
TOKEN = re.compile(r'[^\s,:"{}\[\]]+')
ARRAY_EDITS = ("drop", "duplicate", "to_end", -5, 10 ** 6, math.nan)
TIME_LIMIT = 20  # seconds a command may run before it counts as hung


class CommandTimeout(Exception):
    """A command ran past TIME_LIMIT."""


def _timeout(signum, frame):
    raise CommandTimeout(f"ran past {TIME_LIMIT} s")


def _run(args):
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 0, r.output
    return r


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Every file the commands read, by name, and each name's commands."""
    d = tmp_path_factory.mktemp("fuzz")
    ds, split = d / "ds", str(d / "split.json")
    manifest = str(ds / "manifest.json")
    _run(["synth", "--oracle", "--count", "6", "--perms", "2", "--seed", "0",
          "--out-dir", str(ds)])
    _run(["split", "--manifest", manifest, "--out", split])
    models = {kind: str(d / f"{kind}.json") for kind in MODEL_KINDS}
    for kind, path in models.items():
        _run(["train", "--manifest", manifest, "--split", split, "--stage",
              "root_end", "--kind", kind, "--out", path])
    mps = str(ds / "instances" / "fam000.perm0.mps")
    log = str(ds / "logs" / "fam000.perm0.Default.log")
    out = str(d / "out")

    def evaluate(model):
        return ["evaluate", "--manifest", manifest, "--model", model,
                "--split", split, "--stage", "root_end"]

    def predict(model):
        return ["predict", "--model", model, "--mps", mps, "--log", log,
                "--stage", "root_end"]
    train = ["train", "--manifest", manifest, "--split", split, "--stage",
             "root_end", "--kind", "knn", "--out", out]
    features = ["features", "--manifest", manifest, "--stage", "root_end",
                "--out", out]
    commands = {
        manifest: [["split", "--manifest", manifest, "--out", out], features,
                   train, evaluate(models["knn"])],
        str(ds / "perf.csv"): [["suitability", "--perf",
                                str(ds / "perf.csv")], train],
        split: [train, evaluate(models["knn"])],
        mps: [["features", "--mps", mps, "--out", out],
              predict(models["knn"]), features],
        log: [predict(models["knn"]), features],
    }
    for path in models.values():
        commands[path] = [predict(path), evaluate(path)]
    return commands


def mutate(text, how, at, junk):
    """text with one mutation; at picks the line, token or character."""
    lines = text.splitlines(keepends=True)
    line = at % len(lines) if lines else 0
    if how == "truncate":
        return text[:at % (len(text) + 1)]
    if how == "delete_line":
        return "".join(lines[:line] + lines[line + 1:])
    if how == "duplicate_line":
        return "".join(lines[:line + 1] + lines[line:])
    if how == "junk_token":
        tokens = list(TOKEN.finditer(text))
        if not tokens:
            return text + junk
        m = tokens[at % len(tokens)]
        return text[:m.start()] + junk + text[m.end():]
    if how == "append_junk":
        return text + junk
    i = at % len(text) if text else 0  # flip_char
    return text[:i] + (junk[:1] or "#") + text[i + 1:]


def arrays(node):
    """Every ``__array__`` body under a decoded JSON node, forests included."""
    if isinstance(node, dict):
        if "__array__" in node:
            return [node["__array__"]]
        node = list(node.values())
    if isinstance(node, list):
        return [body for item in node for body in arrays(item)]
    return []


def edit_array(body, edit, at):
    """Drop or duplicate row at of an array body, move it to the end, or set
    its element at to edit; the body is re-encoded with a matching dtype and
    shape."""
    arr = np.frombuffer(base64.b64decode(body["base64"]),
                        dtype=body["dtype"]).reshape(body["shape"])
    i = at % max(len(arr), 1)
    if edit == "drop":
        arr = np.concatenate([arr[:i], arr[i + 1:]])
    elif edit == "duplicate":
        arr = np.concatenate([arr[:i + 1], arr[i:]])
    elif edit == "to_end":
        arr = np.concatenate([arr[:i], arr[i + 1:], arr[i:i + 1]])
    elif arr.size:
        arr = arr.astype(np.result_type(arr.dtype, np.asarray(edit).dtype))
        arr.flat[at % arr.size] = edit
    body.update(dtype=arr.dtype.str, shape=list(arr.shape),
                base64=base64.b64encode(arr.tobytes()).decode())


def fails_with_one_line(path, change, args, reason=""):
    """Run args with the file at path holding change(its text), then restore
    the file; the command must exit 0 within TIME_LIMIT, or with one
    ``error in`` line whose message starts with a match of the regex
    reason."""
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    handler = signal.signal(signal.SIGALRM, _timeout)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(change(original))
        signal.alarm(TIME_LIMIT)
        r = CliRunner().invoke(main, args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)
    if r.exit_code == 0:
        assert r.exception is None
        return
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), \
        repr(r.exception)
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and re.match(
        re.escape(f"error in {args[0]}: ") + reason, lines[0]), r.stderr


@settings(deadline=None, max_examples=300, derandomize=True)
@given(data=st.data(), how=st.sampled_from(MUTATIONS),
       at=st.integers(0, 10 ** 9), junk=st.sampled_from(JUNK))
def test_mutated_input_fails_with_one_line(files, data, how, at, junk):
    path = data.draw(st.sampled_from(sorted(files)), label="file")
    args = data.draw(st.sampled_from(files[path]), label="command")
    fails_with_one_line(path, lambda text: mutate(text, how, at, junk), args)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(data=st.data(), edit=st.sampled_from(ARRAY_EDITS),
       at=st.integers(0, 10 ** 9))
def test_edited_model_array_fails_with_one_line(files, data, edit, at):
    models = sorted(p for p in files
                    if os.path.basename(p)[:-len(".json")] in MODEL_KINDS)
    path = data.draw(st.sampled_from(models), label="model")
    args = data.draw(st.sampled_from(files[path]), label="command")

    def change(text):
        model = json.loads(text)
        bodies = arrays(model["payload"])
        edit_array(bodies[at % len(bodies)], edit, at // len(bodies))
        return json.dumps(model)
    # the model's own checks refuse the file, naming it and the field
    fails_with_one_line(path, change, args,
                        re.escape(f"{path}: ") + "(model|forest) field '")
