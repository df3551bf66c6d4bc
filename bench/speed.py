"""Machine-speed sampling, so timings can be read at a reference speed.

Other tenants of the machine slow this process down by up to 2x for
stretches of a second to a minute, which moves wall-clock figures by 10-30%
between runs.  The process's CPU time does not leave this out: it grows
with the wall time.  So a timer signal every PERIOD_S runs a short fixed
Python loop (the probe) on the measured thread itself; the probe's speed
relative to PROBE_REF_S, averaged over an interval, is the share of a quiet
machine's speed that interval ran at.  Multiplying a wall interval, with the
ticks' own time removed, by that share gives its length at the reference
speed.

The probe mixes small-integer bit operations with tuple indexing, as the
library's bitmask code does; a plain counting loop tracked the slowdown of
the solver less closely.  Each tick runs the probe twice and times only the
second run: the first one brings the probe's data back into the caches, so
the timed one does not depend on what the program left there.  A program
that uses the caches worse is slower, and the probe does not credit that
back.  Stdlib only: the child imports this before the program.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left

PERIOD_S = 0.01
PROBE_LOOPS = 400
# The 5th percentile of the timed probe's duration during a census-cubic14
# pass on a 2-vCPU Xeon host: the probe's speed, interleaved with the
# program, when no other tenant is busy.  Any constant works; it fixes the
# scale, the same for every commit measured.
PROBE_REF_S = 1.1e-4
_TABLE = tuple(range(4096))


def probe() -> float:
    start = time.perf_counter()
    acc = mask = 0
    for i in range(PROBE_LOOPS):
        mask = (mask << 1 | 1) & 0xFFFFFFFF
        acc ^= mask & -mask
        acc += _TABLE[i * 97 & 4095] & 1 << i % 30
    return time.perf_counter() - start


class Sampler:
    """Probes the speed of the calling thread every PERIOD_S while running."""

    def __init__(self):
        self.stamps = []     # when each tick started
        self.durations = []  # how long its timed probe took
        self.costs = []      # how long the whole tick took

    def _tick(self, *_):
        start = time.perf_counter()
        probe()
        self.durations.append(probe())
        self.stamps.append(start)
        self.costs.append(time.perf_counter() - start)

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False


def share(durations) -> float:
    """Mean speed of the given probes as a share of the reference speed."""
    return sum(PROBE_REF_S / d for d in durations) / len(durations)


def reference_seconds(stamps, durations, costs, start: float, end: float) -> float:
    """Length of the wall interval [start, end] at the reference speed.

    The ticks that started inside the interval give its speed and their
    cost is taken out; an interval too short to hold a probe takes the speed
    of the nearest probe on each side."""
    lo, hi = bisect_left(stamps, start), bisect_left(stamps, end)
    if lo < hi:
        return (end - start - sum(costs[lo:hi])) * share(durations[lo:hi])
    return (end - start) * share(durations[max(lo - 1, 0):lo + 1])
