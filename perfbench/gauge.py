"""A fixed reference task timed alongside the program, to factor out host speed.

On a shared host the same work takes from 1x to 2x its quiet time, in
phases of seconds to minutes, so wall times alone do not repeat from one
run to the next.  While a `Gauge` is entered, a timer signal interrupts
the program every `INTERVAL_S` of wall time and times one run of
`reference_task` in the same process, on the same core, under the same
load.  Time spent by the program, divided by the reference task's
duration around it, is in "ref" units: it holds still as the host slows
down and speeds up, and falls in proportion when the program does less
work.  The reference task's own time is taken out of the program's.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.02

# small numpy calls and interpreter work, the mix the program's hot paths have
_VALUES = np.random.default_rng(0).standard_normal(1024)
_KEYS = tuple(range(400))


def reference_task() -> float:
    total = 0.0
    for _ in range(8):
        total += float(np.sort(_VALUES)[512])
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key & 63] = counts.get(key & 63, 0) + key
    return total + len(counts)


class Gauge:
    """Reference-task samples (start, duration) taken while entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_task()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> Gauge:
        self._tick(None, None)          # warms the task; at least one sample per pass
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _slice(self, lo: float, hi: float) -> slice:
        return slice(bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi))

    def spent_s(self, lo: float, hi: float) -> float:
        """Seconds spent in the reference task between lo and hi."""
        return sum(self.durations[self._slice(lo, hi)])

    def refs_per_s(self, lo: float, hi: float) -> float:
        """Reference units per second of program time between lo and hi.

        Samples come at even steps of wall time, so the mean of their
        reciprocal durations is the host's mean speed over the interval.
        With no sample inside it, every sample of the run counts.
        """
        durations = self.durations[self._slice(lo, hi)] or self.durations
        return float(np.mean(1.0 / np.asarray(durations)))
