"""Host-speed calibration of the benchmark's time metrics.

The reference host, a shared 2-vCPU VM, changes speed on its own.  It
flips between a fast and a slow state many times a second, and the
share of time it spends slow drifts over minutes: interpreter-bound
Python code then runs up to 75 % slower, small-array numpy code less,
BLAS-bound code barely.  The drift moves whole runs, so no estimator
over one run's ops removes it.

A run therefore times :func:`kernel` (fixed work that calls none of the
program's code) before every set-up and op and after each op's check,
outside the timed windows.  Times are reported in reference seconds: measured
seconds times :data:`REFERENCE_S` over the mean kernel time of the same
phase of the run (set-up or ops).  The mean, unlike the median, grows
in step with the share of time the host is slow, as an op's time does.
A change to the program moves the windows only; a slower host moves the
windows and the kernel alike and largely cancels out.

The kernel is small-array numpy work (sorts, bincounts and gathers over
2000 values), the kind of call the program spends its time in.  On the
reference host, 4-6-seed sets of runs in one slow phase gave quartile
spreads of `wall_s` of 0.12-0.16 as measured, and in reference seconds
0.03 (`place`, `compile`) and 0.12 (`ensemble`).  A pure-Python kernel
or a half-and-half mix scaled worse on every workload: interpreter-bound
code slows more than the program does.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

#: Mean :func:`kernel` time on the reference host while it runs fast,
#: so that reference seconds read close to wall seconds then.
REFERENCE_S = 0.0022

#: Array passes of :func:`kernel`.
KERNEL_PASSES = 30

#: Kernel runs per mark.
RUNS_PER_MARK = 2

_rng = np.random.default_rng(0)
_VALUES = _rng.random(2000)
_INDEX = _rng.integers(0, 2000, 2000)


def kernel() -> float:
    """Fixed small-array numpy work.

    Allocates no objects the cycle collector tracks, so its time does
    not depend on the size of the program's heap.
    """
    acc = 0.0
    for i in range(KERNEL_PASSES):
        y = np.sort(_VALUES * (i + 1) % 1.0)
        acc += float(np.searchsorted(y, 0.5))
        acc += float(np.bincount((y * 64).astype(np.int64)).max())
        acc += float(y[_INDEX].sum() + np.abs(np.where(y > 0.5, y, -y)).mean())
    return acc


class HostClock:
    """Kernel times of one phase of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def mark(self) -> None:
        """Time :data:`RUNS_PER_MARK` kernel runs, the collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(RUNS_PER_MARK):
                start = time.perf_counter()
                kernel()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Factor from measured to reference seconds for this phase."""
        return REFERENCE_S / statistics.fmean(self.samples)
