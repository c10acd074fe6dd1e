"""The host's speed, sampled while a worker runs, and times corrected by it.

On a shared host the same pure-Python work runs up to 1.7x slower from one
second to the next, and the share of slow seconds differs from one run to
the next, so raw times of identical work spread by up to a quarter across
runs.  `SpeedProbe` runs a fixed arithmetic loop every `INTERVAL_S` of wall
time from a SIGALRM handler, so it samples the speed of the same CPU at the
same moments as the workload.  `corrected` turns an interval into the time
it would have taken at reference speed: the speed at which the loop takes
`REF_LOOP_S`.  The handler's own time is left out of every interval.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import monotonic

INTERVAL_S = 0.02
LOOP_N = 2000
# the unit of corrected time: about the loop's time at the fast speed of a
# 2-core x86-64 VM; corrected times are comparable only under one value
REF_LOOP_S = 1.5e-4


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


def scale(own_s: float, took: list[float]) -> float:
    """`own_s` seconds of work at the speed the loop samples `took` show,
    in seconds at reference speed."""
    return own_s * REF_LOOP_S * len(took) / sum(took)


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = monotonic()
        _loop()
        t1 = monotonic()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def start(self) -> None:
        """Take one sample now and then one every `INTERVAL_S`."""
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> list[float]:
        """The loop times of the samples taken between t0 and t1."""
        return self.took[bisect_left(self.at, t0):bisect_right(self.at, t1)]

    def own(self, t0: float, t1: float) -> float:
        """The time from t0 to t1 (`time.monotonic` readings) less the
        handler's."""
        return t1 - t0 - sum(self.inside(t0, t1))

    def corrected(self, t0: float, t1: float) -> float:
        """`own(t0, t1)` at reference speed.  An interval holding no sample
        takes the speed of the samples on either side of it."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        took = self.took[lo:hi] or self.took[max(lo - 1, 0):lo + 1]
        return scale(self.own(t0, t1), took)
