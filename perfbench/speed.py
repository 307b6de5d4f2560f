"""Dividing the host's changing speed out of the timings.

On a shared virtual machine the same code runs up to twice as slowly for
seconds at a time, and process CPU time slows with it, so raw timings of
one commit spread by 15-40% from run to run.  The benchmark therefore times
a fixed reference kernel (benchmark code, never the library) all through a
measured loop, and reports each timing scaled to the speed at which the
kernel takes REFERENCE_S: an op that took 3 ms while the kernel took
120 us is reported as 1.5 ms.  Raw timings are printed in the details line.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 6e-5  # the kernel's time on a quiet machine
TICK_S = 0.02  # wall time between timer-driven kernel passes
WINDOW_S = 0.002  # kernel passes this close to an op describe its speed
MIN_PROBES = 9

_VECTOR = np.linspace(1.0, 0.0, 64)
_MATRIX = np.add.outer(np.arange(64.0), np.arange(64.0)) / 4096.0


def probe():
    """Time one pass of the kernel: interpreter loop, small-array numpy and
    a small BLAS product, the three kinds of work the library does."""
    start = time.perf_counter()
    s = 0
    for i in range(300):
        s += i * i
    for _ in range(10):
        np.cumsum(np.sort(_VECTOR)[::-1])
    _MATRIX @ _MATRIX
    return time.perf_counter() - start


def probes(count):
    return statistics.median(probe() for _ in range(count))


def scale(seconds, probe_s):
    """A timing at reference speed, given the kernel's time next to it."""
    return seconds * REFERENCE_S / probe_s


class Ticker:
    """Kernel passes taken all through a measured loop: one right before
    each op (`sample`), and one every TICK_S of wall time from a SIGALRM
    handler, so that ops lasting seconds get a speed taken during them.
    Python runs the handler between bytecodes of the main thread; `spent`
    is the time spent in it, which callers subtract from what they time."""

    def __init__(self):
        self.times, self.samples = [], []
        self.spent = 0.0

    def sample(self):
        self.times.append(time.perf_counter())
        self.samples.append(probe())

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        return False

    def kernel_s(self, start, end):
        """Median kernel time over passes within WINDOW_S of [start, end],
        widened to the MIN_PROBES nearest passes when there are fewer."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.median(self.samples[lo:hi])
