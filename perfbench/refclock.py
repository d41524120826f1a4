"""Reference clock: time of an interval rescaled to a fixed CPU speed.

The benchmark runs on small shared guests whose vCPUs change speed from one
second to the next, by up to 2x, as other guests load the host's cores.
Steal time stays near zero and CPU time tracks wall time: the same code just
runs slower.  Raw wall time then measures the host more than the package.

A probe, a fixed piece of work made of exact fraction sums, small numpy
products and object allocation (the package's own mix of work, but none of
its code), runs from a SIGPROF timer every PERIOD_S of process CPU time, or
every SHORT_PERIOD_S in short set-up processes, which would otherwise take
few probes.  The time of an interval at reference speed is its wall time,
less the probes that ran inside it, times PROBE_NOMINAL_S over the local
probe time: the mean over the probes inside the interval, or the next probe
for an interval shorter than the period, each probe time smoothed as the
median of its neighbours.  PROBE_NOMINAL_S sets only the scale: it is about
the probe's time on an unloaded 2-vCPU Xeon guest, so reference seconds
read close to wall seconds there.

The probe measures the host, not the package: a change to the package
moves reference times as it moves wall times, except through what it does
to the probe's own speed (say, by evicting more of the cache).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.015
SHORT_PERIOD_S = 0.01
PROBE_NOMINAL_S = 0.6e-3
SMOOTH = 1  # neighbours on each side in a probe's smoothed time; the speed changes within 0.1 s

_M = np.array([[0.6, 0.2, 0.1], [0.1, 0.7, 0.1], [0.2, 0.1, 0.6]])
_B = np.array([0.1, 0.2, 0.3])


def probe_work() -> int:
    """The fixed work whose time defines reference speed."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i)
    x = np.ones(3)
    for _ in range(60):
        x = _M @ x + _B
        np.abs(x).max()
    return len([(i, str(i), [i]) for i in range(400)]) + s.denominator % 2


class RefClock:
    """Probes the CPU speed while started; converts marked intervals afterwards.

    ``mark()`` returns (wall time, probe seconds so far); an interval is a
    pair of marks, and ``reference(a, b)`` its reference seconds once the
    clock is stopped.  An unstarted clock has no probes and cannot convert.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.starts: list[float] = []
        self.times: list[float] = []
        self.busy = 0.0
        self._ratio: list[float] = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.busy += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        ts = self.times
        self._ratio = [
            PROBE_NOMINAL_S / statistics.median(ts[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(len(ts))
        ]

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.busy

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second between wall times t0 and t1."""
        if not self._ratio:
            raise RuntimeError("reference clock has no probes; was it started and stopped?")
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi > lo:
            return statistics.fmean(self._ratio[lo:hi])
        return self._ratio[min(lo, len(self._ratio) - 1)]

    def reference(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Reference seconds of the interval between marks a and b, probes excluded."""
        return (b[0] - a[0] - (b[1] - a[1])) * self.factor(a[0], b[0])

    def lifetime(self) -> dict:
        """Probe seconds and mean factor over every probe, for a parent that timed this process."""
        return {"probe_s": self.busy, "factor": self.factor(float("-inf"), float("inf")), "probes": len(self.times)}
