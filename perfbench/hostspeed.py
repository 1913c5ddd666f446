"""A fixed reference kernel that tells how fast the machine runs right now.

The benchmark's reference machine is a share of a host whose speed
changes by up to 2x within seconds and stays changed for seconds to
minutes: the other tenants of its cores come and go. A run of tens of
seconds can fall wholly inside a slow or a fast spell, so raw wall times
of the same code differ by more from one run to the next than the
regressions the benchmark has to catch.

The kernel below does not use motrack. It runs image-sized numpy work:
the gradient of a fixed 240x320 image and a bilinear resampling of it
with scipy.ndimage, the kind of array work the tracker's alignment
does. Of four candidate kernels tried on all three workloads (this one,
small-matrix and Python IoU arithmetic, a pure-Python dict loop, and
linear_sum_assignment on a 150x150 matrix), this one, once scaled out,
left the least spread, or close to the least, between identical rounds
on every workload (see README.md). While a round runs, a timer
interrupts the measured work every SPAN_S seconds and runs the kernel
once. The kernel's own time is left out of every measured interval, and
each piece of an interval between two kernel runs is scaled by

    REF_KERNEL_S / (mean duration of those two kernel runs)

so a piece that took 10 ms while the kernel took twice its reference
duration counts as 5 ms. Reported times are thus the times the program
would take on a machine that runs the kernel in REF_KERNEL_S. A change
to the program moves them; a change of the host's speed, which slows
the kernel alike, largely does not.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np
from scipy import ndimage

# About the median duration of one kernel run on the reference machine
# (a 2-vCPU Firecracker guest, Python 3.11, numpy with one BLAS thread).
# It sets the scale of every reported time and is never changed: a
# different value would rescale every figure the benchmark has reported.
REF_KERNEL_S = 0.03
# Wall seconds between two kernel runs. Shorter spans follow the host
# more closely; each kernel run costs about REF_KERNEL_S.
SPAN_S = 0.3

_ITERATIONS = 4
_IMAGE = np.random.default_rng(0).random((240, 320))
_ROWS, _COLS = np.mgrid[0:240, 0:320].astype(float)
_ROWS += 0.3
_COLS += 0.7


def kernel() -> float:
    """One run of the fixed reference work; returns a checksum so none
    of it can be skipped."""
    acc = 0.0
    for _ in range(_ITERATIONS):
        gy, gx = np.gradient(_IMAGE)
        moved = ndimage.map_coordinates(_IMAGE, [_ROWS, _COLS], order=1)
        acc += float((gx * moved).sum() + (gy * gy).sum())
    return acc


class HostClock:
    """Runs the kernel every SPAN_S of wall time while `running()` is
    active, from a SIGALRM handler, so long calls such as an evaluation
    are sampled inside too. Afterwards `measure` maps any wall-clock
    interval that lay inside to its wall seconds outside the kernel runs
    and the same scaled to the reference kernel: each piece of the
    interval between two kernel runs is scaled by the mean of those two
    runs."""

    def __init__(self) -> None:
        self.starts: list[int] = []  # ns, one per kernel run, in order
        self.ends: list[int] = []
        self.kernel_s: list[float] = []
        self._busy = False

    def _run_kernel(self) -> None:
        start = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append((end - start) * 1e-9)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a kernel run outlasted SPAN_S; skip this tick
            return
        self._busy = True
        try:
            self._run_kernel()
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        """Kernel runs at the start, every SPAN_S, and at the end."""
        self._run_kernel()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SPAN_S, SPAN_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._run_kernel()

    def _scale(self, after: int) -> float:
        """Scale of the piece between kernel runs after - 1 and after."""
        return REF_KERNEL_S / (0.5 * (self.kernel_s[after - 1] + self.kernel_s[after]))

    def measure(self, start_ns: int, end_ns: int) -> tuple[float, float]:
        """(wall seconds, reference seconds) of [start_ns, end_ns], which
        lay inside a finished `running()` block."""
        j = bisect.bisect_left(self.starts, start_ns)
        if j == 0 or j == len(self.starts):
            raise ValueError("interval not inside a finished running() block")
        raw = ref = 0.0
        cur = start_ns
        while self.starts[j] < end_ns:
            piece = self.starts[j] - cur
            raw += piece
            ref += piece * self._scale(j)
            cur = self.ends[j]
            j += 1
        piece = end_ns - cur
        return (raw + piece) * 1e-9, (ref + piece * self._scale(j)) * 1e-9
