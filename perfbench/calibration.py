"""Yardsticks for the shared host's momentary speed.

The benchmark's host is a few cores of a shared machine whose speed drifts
by 20-40% over tens of seconds to minutes as neighbours load it; the
program's CPU time drifts with it, so the slowdown is not waiting.  Each
timing is scaled by ``reference / yardstick time``, with the mean of the
yardstick runs just before and after it: a timing taken while the
yardstick was 20% slow is credited 20% back.  Neither yardstick calls the
package, so a change to the program moves a scaled timing as it moves the
raw one.

Operations are scaled by the kernel: fixed numpy work, pairwise squared
differences of a 300 x 2000 array in blocks of 13 rows, each block a fresh
62 MB buffer, as in the distance computation of ``cli-test``.  Its data
come from a constant seed, not from the workload seed.

Set-up samples, which are mostly a fresh interpreter importing the
package, are scaled by a fresh interpreter importing numpy
(``BASELINE_IMPORT``): import speed drifts in phases of its own that the
kernel does not follow.
"""

from __future__ import annotations

import time

import numpy as np

SHAPE = (300, 2000)
BLOCKS = 10
# median wall times of the kernel and of the baseline import on the
# reference machine (2 vCPUs, numpy 2.4.6); they only set the scale of the
# calibrated metrics
REFERENCE_S = 0.40
BASELINE_IMPORT = "import numpy"
IMPORT_REFERENCE_S = 0.20


class Kernel:
    def __init__(self):
        self.x = np.random.default_rng(0).standard_normal(SHAPE)
        self()  # first-touch page faults and lazy set-up stay out of timing

    def __call__(self) -> None:
        x = self.x
        n, p = x.shape
        rows = (8 << 20) // (n * p)
        for b in range(BLOCKS):
            i0 = b * rows % n
            diff = x[i0:i0 + rows, None, :] - x[None, :, :]
            np.square(diff, out=diff)
            diff.sum(axis=2)


def timed(kernel: Kernel) -> dict:
    """One kernel run's wall and CPU seconds."""
    c0, t0 = time.process_time(), time.perf_counter()
    kernel()
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0}


def speeds(times: list, reference: float) -> list:
    """The host's speed relative to the reference machine (below 1: slower)
    during each interval between consecutive yardstick runs, from the mean
    of the two runs' times in seconds."""
    return [2.0 * reference / (a + b) for a, b in zip(times, times[1:])]
