"""The speed of the machine, measured next to the program, to scale its times.

On a shared host the speed a process gets wanders by up to 1.7x, in phases
that last from seconds to minutes, so wall times of the same work spread by
20-25% between 15-30 s runs.  The benchmark therefore times a fixed piece of
pure-Python work (exact fractions, sets, dicts: what welldom spends its time
on) between operations, about every ``SAMPLE_EVERY_S`` seconds, and reports
each time scaled to a machine on which that work takes ``REFERENCE_S``:

    scaled time = wall time x REFERENCE_S / (mean reference time around it)

The reference is the benchmark's own code, so a change to welldom moves the
scaled times as it moves the wall times, while the machine's phases cancel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# median time of reference_work() on the machine of README's reference figures
REFERENCE_S = 0.008
SAMPLE_EVERY_S = 0.2
# reference samples within this distance of an interval speak for its speed
WINDOW_S = 1.0


def reference_work() -> int:
    """A fixed piece of pure-Python work of about 10 ms."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
    seen, sums = set(), {}
    for i in range(20000):
        seen.add((i * 7919) % 10007)
        sums[i & 1023] = sums.get(i & 1023, 0) + i
    return total.denominator % 97 + len(seen) + sum(sums.values()) % 89


class Pace:
    """Reference samples taken during a run, and the scale they give."""

    def __init__(self) -> None:
        self.mids: list[float] = []  # midpoints of the samples, increasing
        self.times: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        started = perf_counter()
        reference_work()
        self.last = perf_counter()
        self.mids.append((started + self.last) / 2)
        self.times.append(self.last - started)

    def due(self) -> None:
        """Take a sample if ``SAMPLE_EVERY_S`` have passed since the last one."""
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a wall time spent in [start, end] into a
        scaled time.  Callers call ``due`` (or ``sample``) right before every
        interval they scale, so a sample lies less than SAMPLE_EVERY_S <
        WINDOW_S before it and the window is never empty."""
        lo = bisect_left(self.mids, start - WINDOW_S)
        hi = bisect_right(self.mids, end + WINDOW_S)
        return REFERENCE_S / fmean(self.times[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
