"""Host-speed probe: express measured times in reference seconds.

The benchmark's host runs a fixed Python loop at two or three speeds up
to 1.8x apart, each held for tenths of a second to minutes, so a whole
run can fall in a slow spell and no best-of or median over the run
removes it.  The probe measures that speed in the workload's own
process: a timer signal every PROBE_INTERVAL_S runs a fixed pure-Python
loop between two bytecodes of the workload and records how long it took.

A timed interval is then scaled by the host's speed during it:

    reference time = (wall time - probe time inside it) * scale

where scale is REF_PROBE_S times the mean of 1/duration over the probes
fired during the interval (at least MIN_PROBES of them, the nearest in
time for a short interval).  Probes fire at even wall-clock steps, so
the mean of 1/duration is the interval's average speed in probe loops
per second.  A reference second is the time in which the host runs
1 / REF_PROBE_S probe loops; the loop touches nothing in dlstar, so a
change to the library cannot move the unit.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_INTERVAL_S = 0.01
REF_PROBE_S = 1e-4
MIN_PROBES = 16


def probe_loop() -> int:
    """The fixed unit of work; about 0.1 ms on a 2-vCPU Xeon VM at its fast speed."""
    d: dict[int, int] = {}
    for i in range(1000):
        d[i & 255] = d.get(i & 255, 0) + i
    return len(d)


class SpeedProbe:
    """Records (start, duration) of every probe while installed."""

    def __init__(self):
        self.start = array("d")
        self.duration = array("d")

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _fire(self, signum, frame) -> None:
        t = perf_counter()
        probe_loop()
        self.start.append(t)
        self.duration.append(perf_counter() - t)

    def probe_time(self, t0: float, t1: float) -> float:
        """Time spent in probes that ran inside [t0, t1]."""
        lo, hi = bisect_left(self.start, t0), bisect_right(self.start, t1)
        return sum(self.duration[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        lo, hi = bisect_left(self.start, t0), bisect_right(self.start, t1)
        if hi - lo < MIN_PROBES:
            lo = max(0, bisect_left(self.start, (t0 + t1) / 2) - MIN_PROBES // 2)
            hi = min(len(self.start), lo + MIN_PROBES)
            lo = max(0, hi - MIN_PROBES)
        if hi == lo:
            raise RuntimeError("no speed probe has fired")
        return REF_PROBE_S * sum(1 / d for d in self.duration[lo:hi]) / (hi - lo)

    def reference_s(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] without its probes, in reference seconds."""
        return (t1 - t0 - self.probe_time(t0, t1)) * self.scale(t0, t1)
