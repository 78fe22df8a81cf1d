"""Machine-speed probe used to express op times at a fixed reference speed.

The benchmark runs on a shared machine whose speed drifts by up to ~1.6x
within seconds and for minutes at a time while CPU time stays close to wall
time: other tenants slow the core down, they do not take it away.  A run
therefore times a fixed kernel right before and right after every timed
interval and scales the interval by ``REFERENCE_S / kernel time``.  The
kernel uses only Python and numpy, never ghive, so a change to ghive moves
the scaled times by the same factor as the raw ones; what it removes is most
of the machine's drift.  Raw times are kept in the run record next to the scaled
ones.

One kernel pass takes about 12 ms and two consecutive passes differ by
about 9%, so a probe for long ops runs several passes on each side and
takes their mean; that also follows the speed over more of the op.

The kernel mixes the three kinds of work ghive does: an interpreted loop,
many small numpy calls, and a few large array passes.
"""

from __future__ import annotations

import time

import numpy as np

# Typical kernel time on the 2-core box where the benchmark was defined.
# Changing it rescales every timed metric, so it is part of the benchmark's
# definition and stays fixed.
REFERENCE_S = 0.012


class SpeedProbe:
    def __init__(self, passes=1):
        self.passes = passes
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((100, 4))
        self._large = rng.standard_normal((5000, 20))
        self._weights = rng.random(5000)

    def kernel_s(self):
        """Mean seconds of one pass of the fixed kernel, over ``passes``."""
        small, large, weights = self._small, self._large, self._weights
        start = time.perf_counter()
        for _ in range(self.passes):
            acc = 0.0
            for i in range(30_000):
                acc += (i * 0.5) % 7.0
            for _ in range(1_000):
                small.T @ (small * 1.5)
                np.exp(small[:, 0])
            for _ in range(6):
                large.T @ (weights[:, None] * large)
                np.exp(np.clip(large, -5.0, 5.0))
        return (time.perf_counter() - start) / self.passes

    def timed(self, fn):
        """Run ``fn()``; return (result, raw seconds, seconds at reference
        speed, kernel seconds)."""
        before = self.kernel_s()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        kernel = 0.5 * (before + self.kernel_s())
        return result, raw, raw * REFERENCE_S / kernel, kernel
