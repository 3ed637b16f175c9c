"""Job timing corrected for the CPU speed of the moment.

On a small shared machine the speed of the one CPU a client runs on can
swing by a factor of two within seconds, as other tenants come and go;
wall times of the same job then differ by 30-40% between back-to-back
runs.  :class:`SpeedProbe` tracks the speed with a fixed pure-Python probe
(exact ``Fraction`` sums, the same kind of work as the program) that runs
right before and right after each timed call and, through an interval
timer, every :data:`INTERVAL` seconds inside it.  Each stretch of the call
between two probes is scaled by ``REF_PROBE_S / probe time``, the mean of
the probes at its two ends: the result is the call's duration at the
reference speed, at which one probe takes :data:`REF_PROBE_S` seconds.
Probe time is excluded from the call's wall time as well.

The probe never calls the program, so a faster program still reads faster;
only the machine's speed changes are divided out.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02
REF_PROBE_S = 0.00016


def _probe_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i % 13 + 1)
    return total


def probe() -> float:
    """Seconds one fixed probe takes now; garbage collection held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _probe_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    def __init__(self):
        self._marks = []  # (start, end, probe seconds) of each in-call probe
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        seconds = probe()
        self._marks.append((start, perf_counter(), seconds))

    def time_call(self, fn):
        """Run fn(); return (wall seconds, reference-speed seconds, result)."""
        before = probe()
        self._marks = []
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
        after = probe()
        wall = scaled = 0.0
        left, left_probe = start, before
        for mark_start, mark_end, seconds in self._marks + [(end, end, after)]:
            stretch = mark_start - left
            wall += stretch
            scaled += stretch * REF_PROBE_S * 2 / (left_probe + seconds)
            left, left_probe = mark_end, seconds
        return wall, scaled, result
