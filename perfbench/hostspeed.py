"""A fixed probe of the host's speed, for timings that a shared host skews.

On a shared 2-vCPU host the speed of a single-threaded Python process drifts
by 20% or more over minutes (the median time of a fixed 20 ms loop, taken
over 60 s windows, spread 0.21 of its median between windows), so a run's
median pass time moves with the host, whatever the run's length.  The runner
therefore times this probe right before and right after every timed region
and rescales the region's wall time to the speed at which the probe takes
``REF_S``:

    scaled = wall * REF_S / mean(probe before, probe after)

The probe is fixed work that does not touch benloc, so a change to the
library moves the scaled time exactly as much as the wall time; only the
host's speed cancels.  Its mix follows the library's: interpreter loops over
dicts and lists, text split and parsed into numbers, and many numpy calls on
small arrays.  The raw wall times are recorded beside the scaled ones.
"""

import time

import numpy as np

# The probe's median duration on the 2-vCPU sandbox the benchmark was tuned
# on (Intel Xeon, Python 3.11, numpy 2.4): scaled times read as seconds at
# that host's typical speed.
REF_S = 0.2

_ROUNDS = 28
_TEXT = " ".join(f"{i % 97} {i * 0.25:.3f}" for i in range(6000))
_SMALL = np.linspace(0.0, 1.0, 96)


def _work():
    total = 0.0
    for _ in range(_ROUNDS):
        counts = {}
        for k, tok in enumerate(_TEXT.split()):
            v = float(tok)
            counts[k % 251] = counts.get(k % 251, 0.0) + v
        rows = [[counts[j] * i for j in range(0, 251, 7)] for i in range(60)]
        total += sum(max(r) - min(r) for r in rows)
        for i in range(300):
            order = np.argsort(_SMALL * (i % 5 - 2), kind="mergesort")
            total += float(np.cumsum(_SMALL[order])[-1])
    return total


def probe():
    """Wall time of the probe's fixed work, in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(wall, before, after):
    """`wall` rescaled to the host speed at which the probe takes REF_S,
    given the probe's times right `before` and right `after` the region."""
    return wall * 2 * REF_S / (before + after)
