"""Machine-speed calibration: a fixed kernel, timed around every solve.

The benchmark runs on shared hosts whose speed swings by a third or more
within seconds and between runs of the same code, and CPU time swings with
wall time. Dividing each solve's wall time by the time of a fixed kernel
measured right around it, and multiplying by ``REFERENCE_S``, gives
*reference seconds*: what the solve would have taken on a machine where the
kernel takes ``REFERENCE_S``. The kernel never touches ``ccpkit``, so a
change to the package moves reference seconds as it moves wall time; only
the host's speed is divided out.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's typical time on the 2-core host that recorded baseline.json.
REFERENCE_S = 1.5e-3

_ROWS = np.arange(50.0).reshape(10, 5)


def kernel() -> float:
    """Small-array numpy calls inside an interpreted loop, the mix ccpkit's
    solvers spend their time in."""
    x = np.ones(5)
    total = 0.0
    counts = {}
    for i in range(150):
        y = _ROWS @ x - i
        total += float(np.max(y))
        x = np.clip(x - 1e-3 * y[:5], 0.0, 1.0)
        counts[i % 7] = counts.get(i % 7, 0) + i
        total += 1e-9 * sum(k * v for k, v in counts.items())
    return total


def kernel_seconds(repeats: int = 3) -> float:
    """The kernel's best time over `repeats` runs in a row; the best of a few
    leaves out a run the scheduler preempted."""
    best = float("inf")
    for _ in range(repeats):
        begin = perf_counter()
        kernel()
        best = min(best, perf_counter() - begin)
    return best
