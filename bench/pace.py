"""The host's pace, measured by a fixed kernel run between timed items.

On a shared host the speed of one core drifts by a quarter or more over tens
of seconds (other tenants, frequency), and that drift moves every raw timing.
The pace kernel below is the benchmark's own code: six 160x160 BLAS matrix
products.  Recorded side by side with the items of ``lp-scan``, ``lp-deep``
and ``verify-local``, its drift followed theirs more closely, on all three,
than that of a pure-Python loop with small numpy products or of a
memory-bound sweep over 16 MB.  It is sampled between items, and each item's
wall time is scaled by ``PACE_MS / (median kernel time around the item)``.
A paced time therefore reads as the item's wall time on a host where the
kernel takes ``PACE_MS``; a change to ``nonloc`` moves it as it moves wall
time, while the host's drift largely cancels.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

PACE_MS = 1.0  # nominal kernel time: about its time on the quiet 2-vCPU baseline machine
DUTY = 0.15  # kernel time sampled before an item, as a share of the last item's time
WINDOW_S = 1.0  # kernel samples this close to an item set its pace
MIN_SAMPLES = 5

_M = np.random.default_rng(0).standard_normal((160, 160))
PRODUCTS = 6


def kernel() -> float:
    """Run the fixed pace kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    for _ in range(PRODUCTS):
        _M @ _M
    return perf_counter() - t0


class Pacer:
    """Kernel samples in time order, and the pace factor of any interval."""

    def __init__(self):
        self.at: list[float] = []  # midpoint of each sample
        self.took: list[float] = []

    def sample(self, budget_s: float) -> None:
        """Run the kernel at least once and until ``budget_s`` is spent."""
        end = perf_counter() + budget_s
        while True:
            t = kernel()
            now = perf_counter()
            self.at.append(now - t / 2)
            self.took.append(t)
            if now >= end:
                return

    def factor(self, start: float, end: float) -> float:
        """PACE_MS over the median kernel time within WINDOW_S of
        [start, end]; the MIN_SAMPLES nearest samples if fewer lie there."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.at)), key=lambda j: abs(self.at[j] - mid))
            window = [self.took[j] for j in nearest[:MIN_SAMPLES]]
        else:
            window = self.took[lo:hi]
        return PACE_MS / (1e3 * statistics.median(window))

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.took)
