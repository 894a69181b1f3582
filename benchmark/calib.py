"""Clock-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose clock speed moves by 20% or
more between runs a minute apart, for every program on the machine
alike.  To take that out of the timings, a fixed CPU-bound kernel that
has nothing to do with gaussdist is timed right before every op, and
every time taken in the run (ops and set-up imports) is scaled by
REFERENCE_S over a low quantile of the kernel's times: the time at the
clock speed at which the kernel takes REFERENCE_S.  A change to gaussdist
moves the op times and leaves the kernel alone, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time at the reference clock speed; about its fast-state
# time on a 2-vCPU cloud VM, so scaled times read close to real seconds.
REFERENCE_S = 4.0e-4
# The quantile of a run's kernel times taken as the run's clock speed.  A
# low one, because other tenants slow single kernel calls at random.
QUANTILE = 0.1

_ARRAY = np.arange(20_000, dtype=float)
_OUT = np.empty_like(_ARRAY)


def kernel_seconds() -> float:
    """Wall time of one call of the calibration kernel: scalar float
    arithmetic in the interpreter, then one small numpy ufunc and sum."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3_000):
        acc += (i * 0.5) ** 0.5
    np.sqrt(_ARRAY, out=_OUT).sum()
    return time.perf_counter() - t0


def scale(kernel_times) -> float:
    """Factor that takes a run's timings to the reference clock speed."""
    return REFERENCE_S / float(np.quantile(np.asarray(kernel_times), QUANTILE))
