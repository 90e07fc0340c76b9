"""Timing in reference seconds: wall time rescaled to a reference speed.

On a shared host the speed of one core swings by up to a factor of two
within seconds and for minutes at a time (most likely other tenants'
work on the same physical core).  It does not show as steal time, so
neither the wall time nor the process time of a run says how fast the
program is.  Nor does a second core: the speeds of the two
cores of the 2-core container the benchmark was set up on were not
correlated (0.09 over 134 samples of 0.2 s).

So the benchmark measures the speed of its own core as it goes.  A timer
signal (`SIGALRM`, every PERIOD seconds of wall time) runs a fixed
pure-Python calibration kernel in the benchmark's own thread, right
between two bytecodes of the program.  After the run, every stretch of
wall time between two kernel runs counts as its length divided by the
host's slowness there: the median of the WINDOW kernel times around it
over REF_KERNEL_S.  The kernel runs themselves count nothing.

A time in reference seconds is then the time the work takes when the
kernel takes REF_KERNEL_S, about the median kernel time seen over the
runs on that container (Python 3.11.7), so there one reference second
is about one wall second at the host's usual speed.  The kernel is exact
rational arithmetic on short lists, the program's own kind of work
(`scalars` keeps Fractions, `linalg` eliminates over them), and none of
the program's code, so a change to the program moves its reference
times as it moves its wall times, while a slowdown of the host moves
the program and the kernel alike: five runs of the zigzag-sweep
workload with one seed, at median kernel times from 2.1 ms to 4.1 ms,
read round times within a quartile spread of 0.026 of their median.
The kernel takes about 7% of the wall time of a run.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05  # seconds of wall time between two kernel runs
WINDOW = 5  # kernel times whose median gives the slowness around a stretch
REF_KERNEL_S = 0.0035  # the kernel's time at the reference speed


def kernel() -> Fraction:
    """Three Gauss-Jordan eliminations of a fixed 6 x 6 rational matrix."""
    det = Fraction(1)
    for _ in range(3):
        n = 6
        m = [[Fraction((7 * r + 3 * c) % 11 - 5, 1 + (r + c) % 3) for c in range(n)]
             for r in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if m[r][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            piv = m[c][c]
            det *= piv
            for r in range(n):
                if r != c and m[r][c]:
                    f = m[r][c] / piv
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


class RefClock:
    """Runs the kernel every PERIOD seconds between `start` and `stop`;
    after `stop`, `ref` turns a perf_counter reading into reference
    seconds since `since`."""

    def __init__(self, since: float) -> None:
        self.since = since
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that fell due during a tick
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        self.ticks.append((t0, perf_counter()))
        self._busy = False

    def stop(self) -> None:
        """Stops the kernel runs and fixes the reference time scale."""
        if hasattr(self, "_slow"):  # stopped already
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.ticks:  # a run too short for one tick: its own kernel time
            t0 = perf_counter()
            kernel()
            self.ticks.append((t0, perf_counter()))
        times = [t1 - t0 for t0, t1 in self.ticks]
        half = WINDOW // 2
        # per tick i: the slowness of the stretch before it, and the
        # reference time at its end
        self._slow, self._ref_at_end, self._ends = [], [], []
        ref, end = 0.0, self.since
        for i, (t0, t1) in enumerate(self.ticks):
            slow = statistics.median(times[max(0, i - half): i + half + 1]) / REF_KERNEL_S
            ref += max(0.0, t0 - end) / slow
            end = t1
            self._slow.append(slow)
            self._ref_at_end.append(ref)
            self._ends.append(end)
        self._slow.append(self._slow[-1])  # after the last tick

    def ref(self, t: float) -> float:
        """Reference seconds from `since` to the perf_counter reading t."""
        i = bisect_right(self._ends, t)  # ticks 0..i-1 ended by t
        if i == 0:
            return max(0.0, min(t, self.ticks[0][0]) - self.since) / self._slow[0]
        t0 = self.ticks[i][0] if i < len(self.ticks) else t
        return self._ref_at_end[i - 1] + (min(t, t0) - self._ends[i - 1]) / self._slow[i]

    def kernel_median(self) -> float:
        return statistics.median(t1 - t0 for t0, t1 in self.ticks)
