"""Golden hashes of in-memory oracle datasets.

A change to how ``build_oracle_dataset`` or the oracle in ``benloc.synth``
does its work must leave what they build bit-identical: the same family
draws, the same per-permutation draws, the same features, times and logs.
Each case below builds one dataset in memory and compares the sha256 of its
perf CSV, its static feature values, its rendered logs and its planted
optima (and of its written instances, when it keeps them) against
``fixtures/oracle_golden.json``.  The CLI's ``synth --oracle`` (a static
rule, instances kept) is pinned by ``test_report_golden.py``; the cases here
cover a latent setcover build without kept instances, a latent indset build
with kept instances, and a static rule whose time limit caps some runs.

Regenerate the fixture only when a change is meant to alter the oracle:

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import hashlib
import json
import os
import sys

import pytest

from benloc.dataset import build_oracle_dataset
from benloc.instance import write_mps
from benloc.logs import render_log
from benloc.synth import OracleSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "oracle_golden.json")

# name -> build_oracle_dataset kwargs
CASES = {
    "setcover_latent": dict(
        n_families=10, n_perms=4, kind="setcover", seed=3,
        spec=OracleSpec(seed=3, rule_source="latent")),
    "indset_latent_kept": dict(
        n_families=8, n_perms=3, kind="indset", seed=2, keep_instances=True,
        spec=OracleSpec(seed=2, rule_source="latent", family_sigma=0.1,
                        noise_sigma=0.05)),
    "setcover_static_capped": dict(
        n_families=6, n_perms=2, kind="setcover", seed=4,
        spec=OracleSpec(seed=4, time_limit=20.0, family_sigma=0.2)),
}
PARTS = ("perf", "static", "logs", "planted")


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def case_hashes(name):
    data = build_oracle_dataset(**CASES[name])
    keys = data.pairs()
    out = {
        "perf": _sha([data.perf.to_csv()]),
        "static": _sha(f"{f} {s} " + " ".join(
            float(v).hex() for v in data.static[(f, s)].values)
            for f, s in keys),
        "logs": _sha(f"{f} {s} {cfg}\n{render_log(log)}"
                     for f, s in keys
                     for cfg, log in data.logs[(f, s)].items()),
        "planted": _sha(f"{f} {s} {data.planted_pi[(f, s)]}"
                        for f, s in keys),
    }
    if data.instances:
        assert sorted(data.instances) == keys
        out["instances"] = _sha(write_mps(data.instances[key])
                                for key in keys)
    return {f"{name}/{part}": h for part, h in out.items()}


def compute_golden():
    out = {}
    for name in CASES:
        out.update(case_hashes(name))
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_matches_golden(golden, name):
    got = case_hashes(name)
    assert got == {key: golden[key] for key in got}


def test_fixture_covers_every_case(golden):
    want = {f"{name}/{part}" for name in CASES for part in PARTS}
    want |= {f"{name}/instances" for name, kwargs in CASES.items()
             if kwargs.get("keep_instances")}
    assert set(golden) == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_golden(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
