"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes, whoever runs what. Each timed piece of work is
paired with slices of this kernel run next to it, and end-to-end times are
reported at the reference speed:

    time_at_reference = wall_time * NOMINAL_SLICE_S / slice_time

The kernel mixes the three kinds of work delone-lab does (interpreted
Python loops, numpy sorts and uniques, cKDTree queries) on inputs fixed
here, so no change to the program under test can change its cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median slice time on the reference machine (2 vCPU Xeon, Python 3.11,
# numpy 2.4, scipy 1.17); only sets the scale of reported times
NOMINAL_SLICE_S = 0.0060


class Kernel:
    def __init__(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(20260101)
        self._a = rng.random(60_000)
        self._ints = (self._a * 5000).astype(np.int64)
        self._tree = cKDTree(rng.random((2000, 2)))
        self._queries = rng.random((3000, 2))

    def _run(self) -> None:
        s, d = 0, {}
        for i in range(20_000):
            s += i * i
            d[i & 255] = s
        np.sort(self._a)
        np.unique(self._ints)
        self._tree.query(self._queries)

    def slice(self) -> float:
        """Run one slice of the kernel; returns its wall time.

        A first, untimed round refills the caches, so that the timed round
        does not depend on how much memory the work before it touched.
        """
        self._run()
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def factor(self, slices: int) -> float:
        """Slowness now relative to the reference: median slice / nominal."""
        return statistics.median(self.slice() for _ in range(slices)) / NOMINAL_SLICE_S
