"""Times in reference seconds: wall time corrected for the host's drifting speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow the
CPU by tens of percent, in bursts of tens of milliseconds and in drifts over
seconds and hours, and the process's CPU time slows with it: neither wall nor
CPU time of one run can be compared with another's.  A ``RefClock`` region
therefore measures the host's speed while the work runs.  Every
``INTERVAL_S`` a SIGALRM handler interrupts the work (between two bytecodes of
the main thread, inside mstd's calls too) to run one fixed slice of
pure-Python set and dict work, which is the benchmark's own code and never
mstd's, and records how long the slice took.  The region's work time (its wall
time minus its slices) divided by the mean slice time is the work in slice
units, from which the host's speed cancels.  Multiplied by ``REF_SLICE_S`` it
reads in reference seconds: the wall time the work takes on a host where one
slice takes ``REF_SLICE_S``.

Slices interrupt only the main thread of this process, so a region should
hold work done there; a search pool's workers run unsampled.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# The scale of reference seconds: a slice's time on a calm 2-vCPU Xeon host at
# 2.1 GHz under Python 3.11.  Changing it rescales every reference time.
REF_SLICE_S = 0.003
INTERVAL_S = 0.045
SLICE_ROUNDS = 40
_POINTS = tuple(sorted(random.Random(7).sample(range(200), 24)))


def run_slice() -> float:
    """One calibration slice; returns its duration in seconds."""
    t0 = time.perf_counter()
    for _ in range(SLICE_ROUNDS):
        sums = set()
        diffs = {}
        for x in _POINTS:
            for y in _POINTS:
                sums.add(x + y)
                d = x - y
                diffs[d] = diffs.get(d, 0) + 1
        sorted(sums)
    return time.perf_counter() - t0


@dataclass
class Reading:
    """One region: its wall time, its work time and the slices measured in it.

    ``slices`` also holds one slice run just before and one just after the
    region, outside its wall time, so that a short region has a speed too.
    """

    wall_s: float = 0.0
    work_s: float = 0.0
    slices: list[float] = field(default_factory=list)

    @property
    def slice_s(self) -> float | None:
        return statistics.fmean(self.slices) if self.slices else None

    @property
    def ref_s(self) -> float | None:
        """The work time in reference seconds (None when nothing was sampled)."""
        if not self.slices:
            return None
        return self.work_s * REF_SLICE_S / statistics.fmean(self.slices)


class RefClock:
    """Times regions of the main thread and samples the host's speed in them."""

    def __init__(self):
        self._inside: list[float] | None = None
        # installed once and never restored: an alarm still pending when a
        # region ends finds the handler idle instead of the default action,
        # which would end the process
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        inside = self._inside
        if inside is None:
            return
        inside.append(run_slice())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextmanager
    def region(self):
        reading = Reading()
        inside: list[float] = []
        reading.slices.append(run_slice())
        self._inside = inside
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._inside = None
            reading.wall_s = time.perf_counter() - start
            reading.work_s = reading.wall_s - sum(inside)
            reading.slices += inside
            reading.slices.append(run_slice())


class NullClock:
    """Same interface as RefClock; times regions without sampling (traced runs)."""

    @staticmethod
    @contextmanager
    def region():
        reading = Reading()
        start = time.perf_counter()
        try:
            yield reading
        finally:
            reading.wall_s = reading.work_s = time.perf_counter() - start
