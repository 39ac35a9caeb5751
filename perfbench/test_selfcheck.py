"""Self-check of the benchmark at a tiny size.

Runs every workload through the real command, untraced and traced, and
asserts that each metric named in BENCHMARK.json is printed with its unit,
that every correctness check of every workload ran and passed, and that the
command fails without a result in a checkout that has no library source.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_benchmark_json_names_every_workload():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_every_check_ran(trace):
    proc = _run(ROOT, "all", trace)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    combined = json.loads(out.strip().splitlines()[-1])
    assert combined["correct"] and combined["failed"] == 0
    assert combined["attempted"] >= 1

    wanted = BENCH["per_layer" if trace else "end_to_end"]
    for name in WORKLOADS:
        got = {k.split(".", 1)[1]: v for k, v in combined["metrics"].items()
               if k.startswith(name + ".")}
        assert set(got) == {m["name"] for m in wanted}
        for m in wanted:
            assert got[m["name"]]["unit"] == m["unit"], m["name"]
            assert isinstance(got[m["name"]]["value"], (int, float))
    # one printed line per metric: name, value, unit
    for m in wanted:
        pattern = rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b"
        assert len(re.findall(pattern, out, re.M)) == len(WORKLOADS), m["name"]

    for name, workload in WORKLOADS.items():
        line = re.search(rf"^# checks {name}: (.*)$", out, re.M)
        assert line, name
        ran = json.loads(line.group(1))
        assert set(ran) == set(workload.checks)
        assert all(n >= 1 for n in ran.values())


def test_fails_without_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "ingest", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
