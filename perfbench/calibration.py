"""CPU-speed calibration for the benchmark's times.

The benchmark machine is a 2-vCPU VM on a shared host, where the same
Python code runs up to 1.8x slower for seconds at a time while the host is
busy; the VM sees no steal time, so the slowdown lands in CPU time too.  A short fixed kernel, written in the same style as entromin's hot
path (small numpy blocks, math.fsum, Python-level loops), runs before every
request and once after the last.  Each request's time is scaled by
KERNEL_REF_S / (median of the kernel times around it), which gives the time
the request would have taken at the speed where the kernel takes
KERNEL_REF_S.  Setup times are scaled the same way, by kernels run just
before the interpreter starts and just after the setup.  Both the scaled
and the wall-clock figures are reported.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the kernel's time when the 2-vCPU benchmark VM runs it at full speed (about
# 240 us when the host slows the vCPU): scaled times are full-speed times
KERNEL_REF_S = 1.4e-4
KERNELS_AROUND_SETUP = 8  # on each side of a setup

_BLOCK = np.linspace(-3.0, 0.0, 128)


def _kernel() -> float:
    s = 0.0
    for i in range(40):
        b = np.exp(_BLOCK * (1.0 + i * 1e-3))
        s += math.fsum(b[:16].tolist()) + float(b.sum())
    return s


def kernel_seconds() -> float:
    """Time of one kernel run, after an untimed run that warms the caches a
    large request may have flushed: the kernel gauges CPU speed, not cache
    state."""
    _kernel()
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def speed_factor(kernel_times) -> float:
    """Multiplier from wall time to reference-speed time."""
    return KERNEL_REF_S / statistics.median(kernel_times)
