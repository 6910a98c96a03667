"""Reference kernel: a fixed piece of work that measures the machine's speed.

The benchmark's host is shared, and its speed switches between states that
last from seconds to minutes: the same op on the same input takes anywhere
from 1x to about 2x its fastest time, and CPU time moves with wall time, so
the slowdown is the processor itself, not scheduling.  Ops are therefore
also reported as multiples of this kernel's time, measured right before and
right after each op.  The kernel mixes the two kinds of work the package
does: interpreted Python (sorting, dict and list traffic, small calls, as in
the coordinate loops) and small int64 numpy array operations (as in the
GF(p) eliminations).  It uses nothing from ``dexchange``, so no change to
the package can change its cost.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


def _python_part():
    units = {k: (k * 7) % 13 for k in range(12)}
    acc = 0
    for j in range(1500):
        order = sorted(units, key=lambda k: (-units[k], k))
        for k in order:
            acc += units[k] - (j & 3)
        units[order[0]] = max(0, units[order[0]] - 1) + (j % 5)
    return acc


def _numpy_part():
    a = np.arange(24 * 24, dtype=np.int64).reshape(24, 24)
    for _ in range(400):
        np.nonzero(a[3:, 2])
        a = (a - np.outer(a[:, 1], a[0])) % 257
    return a


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = perf_counter()
    _python_part()
    _numpy_part()
    return perf_counter() - t0
