"""Golden hashes of write_mps output.

The writer's bytes are part of its contract: datasets written by one version
must be what another writes for the same instance.  Each case below writes one
instance and compares the sha256 of the text against
``fixtures/write_golden.json``:

* ``fixture/<name>``: every ``fixtures/mps/*.mps`` after parse_mps;
* ``setcover`` and ``indset``: generated instances, permuted, so that rows and
  columns are written out of generation order;
* ``mixed``: a column with objective and matrix entries, an INTORG/INTEND
  block holding a column with an objective entry alone, a column with no
  entry at all, and RANGES rows on an L and an E row.

Regenerate the fixture only when a change is meant to alter the text:

    PYTHONPATH=src python tests/test_write_golden.py
"""

import hashlib
import json
import os
import sys
import warnings

import pytest

from benloc.instance import (CONTINUOUS, INTEGER, parse_mps, permute_instance,
                             read_mps, write_mps)
from benloc.synth import gen_indset, gen_setcover

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "fixtures", "write_golden.json")
MPS_DIR = os.path.join(HERE, "fixtures", "mps")

MIXED = """\
NAME          mixed
ROWS
 N  COST
 L  cap
 G  dem
 E  bal
COLUMNS
    x  COST  2.0  cap  1.0
    x  dem  3.0
    MARKER0  'MARKER'  'INTORG'
    y  COST  -1.5  cap  4.0
    y  bal  1.0
    z  COST  7.0
    MARKER1  'MARKER'  'INTEND'
    w  bal  -2.0  dem  0.5
    v  COST  0.0
RHS
    RHS  cap  10.0  dem  1.0  bal  -3.0
RANGES
    RNG  cap  4.0  bal  -2.0
BOUNDS
 UP BND  y  5.0
 UP BND  z  3.0
 MI BND  w
ENDATA
"""


def _instances():
    """Case name -> instance to write."""
    cases = {}
    for name in sorted(os.listdir(MPS_DIR)):
        if name.endswith(".mps"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cases[f"fixture/{name[:-4]}"] = read_mps(
                    os.path.join(MPS_DIR, name))
    cases["setcover"] = permute_instance(gen_setcover(40, 70, 0.1, 3), 5)[0]
    cases["indset"] = permute_instance(gen_indset(30, 0.3, 4), 9)[0]
    cases["mixed"] = parse_mps(MIXED)
    return cases


def compute_golden():
    return {name: hashlib.sha256(write_mps(inst).encode("utf-8")).hexdigest()
            for name, inst in _instances().items()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_write_mps_matches_golden(golden):
    assert compute_golden() == golden


def test_mixed_case_covers_its_parts():
    inst = parse_mps(MIXED)
    assert inst.var_types.tolist() == [CONTINUOUS, INTEGER, INTEGER,
                                       CONTINUOUS, CONTINUOUS]
    assert inst.obj_coeffs.tolist() == [2.0, -1.5, 7.0, 0.0, 0.0]
    assert sorted(set(inst.mat_cols.tolist())) == [0, 1, 3]
    assert inst.row_names == ["cap", "dem", "bal", "cap__rng", "bal__rng"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_golden(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
