"""Host-speed sampling for timing on a shared machine.

On a shared host each vCPU runs the same code up to 1.8 times slower for
stretches of a fraction of a second to tens of seconds while other tenants
are busy, and the two vCPUs of a 2-vCPU guest switch independently.  A
timed unit of work therefore runs inside a HostSpeed block: an interval
timer interrupts the measuring process every PERIOD_S seconds, between two
bytecodes of whatever runs, and times a short fixed reference kernel on the
same vCPU.  The kernel is pure Python, so it can sample before numpy is
imported, and it never calls robustcbf, so a change to the program moves
the scaled times in full.

The host speed is REFERENCE_S / sample: the work the host gets done per
second relative to the reference speed.  A unit's time at the reference
speed is its wall time, less the time the samples took, times the host
speed over it: the mean over the unit's samples, or, for a point inside
the unit, the speed interpolated between the samples around it
(speed_at).  On the reference host the workloads' times followed the host
speed with log-log slopes of 0.94-1.16.
"""

from __future__ import annotations

import math
import signal
import time

# Seconds of one sample on the reference host, a 2-vCPU Intel Xeon at
# 2.1 GHz (Python 3.11), at a typical speed: about the median sample taken
# inside the benchmark's closed-loop calls.  Times are reported at this
# speed.
REFERENCE_S = 0.35e-3
PERIOD_S = 0.05
_PASSES = 60
_POINTS = [(0.01 * k, 0.02 * k, 0.001 * k) for k in range(22)]


def reference_once() -> float:
    """Seconds for one pass of the reference kernel."""
    start = time.perf_counter()
    points = _POINTS
    acc = 0.0
    for _ in range(_PASSES):
        points = [(x + 0.03 * math.cos(t), y + 0.03 * math.sin(t), t + 1e-3)
                  for x, y, t in points]
        acc += sum(p[0] for p in points)
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - start


def sampling_before(t, intervals):
    """Seconds of the (start, end) sampling intervals that lie before t
    (t may be an array); the intervals are in time order."""
    import numpy as np  # not at module level: set-up probes sample before numpy loads

    if not intervals:
        return np.zeros_like(np.asarray(t, dtype=float))
    edges = np.asarray(intervals, dtype=float)
    taken = np.concatenate([[0.0], np.cumsum(edges[:, 1] - edges[:, 0])])
    # Flat between two samples, rising inside one.
    return np.interp(t, edges.reshape(-1), np.repeat(taken, 2)[1:-1])


class HostSpeed:
    """Samples the host speed while the block runs.

    One sample is taken on entry and one on exit, and the interval timer
    adds one every PERIOD_S seconds in between.  Time the unit inside the
    block and convert it with scaled(start, end); program_time() takes the
    sampling out of any interval, so single solves can drop it too.
    """

    def __init__(self):
        self.samples: list = []
        self.intervals: list = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        reference_once()  # warms the caches that the interrupted code took over
        self.samples.append(reference_once())
        self.intervals.append((start, time.perf_counter()))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def speed(self) -> float:
        """Host speed over the block, relative to the reference state."""
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def program_time(self, start, end):
        """Wall time of [start, end] less the sampling inside it (arrays
        allowed)."""
        inside = sampling_before(end, self.intervals) - sampling_before(start, self.intervals)
        return end - start - inside

    def scaled(self, start, end):
        """Program time of [start, end] at the reference speed."""
        return self.program_time(start, end) * self.speed()

    def speed_at(self, start, offsets):
        """Host speed at `offsets` seconds of program time after `start`,
        interpolated between the samples (and flat beyond the first and
        the last)."""
        import numpy as np

        middle = np.asarray(self.intervals, dtype=float).mean(axis=1)
        position = self.program_time(start, middle)
        return np.interp(offsets, position, REFERENCE_S / np.asarray(self.samples))
