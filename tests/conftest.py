import gc
import os
import sys

import pytest

from benloc.instance import write_mps
from benloc.synth import gen_indset, gen_setcover

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def called_names(fn, *args, **kwargs):
    """The code name of every Python-level call that fn(*args, **kwargs)
    makes, fn's own first, in order.  It profiles with the garbage collector
    off: a collection runs the gc.callbacks entries (hypothesis installs one
    once a property test has run), and their calls would land in the count
    wherever a collection happened to fall."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return names


def count_calls(fn, *args, **kwargs):
    """How many Python-level calls fn(*args, **kwargs) makes, counted as
    called_names counts them."""
    return len(called_names(fn, *args, **kwargs))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def handwritten_mps():
    d = os.path.join(FIXTURE_DIR, "mps")
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".mps"))


@pytest.fixture(scope="session")
def generated_mps(tmp_path_factory):
    """Generator-produced MPS files rounding the corpus out past 20."""
    d = tmp_path_factory.mktemp("genmps")
    paths = []
    for seed in range(5):
        inst = gen_setcover(8 + seed, 15 + 2 * seed, 0.3 + 0.05 * seed, seed)
        p = d / f"setcover_{seed}.mps"
        p.write_text(write_mps(inst))
        paths.append(str(p))
    for seed in range(5):
        inst = gen_indset(8 + seed, 0.3 + 0.1 * seed, seed)
        p = d / f"indset_{seed}.mps"
        p.write_text(write_mps(inst))
        paths.append(str(p))
    return paths


@pytest.fixture(scope="session")
def mps_corpus(handwritten_mps, generated_mps):
    return handwritten_mps + generated_mps


@pytest.fixture(scope="session")
def small_oracle():
    """A small planted-oracle dataset shared by the cheaper tests."""
    from benloc.dataset import build_oracle_dataset
    from benloc.synth import OracleSpec

    return build_oracle_dataset(n_families=12, n_perms=3,
                                spec=OracleSpec(seed=7), kind="setcover",
                                seed=7, keep_instances=True)
