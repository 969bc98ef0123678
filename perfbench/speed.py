"""Wall-clock times scaled to a fixed machine speed.

On the shared virtual machine the benchmark was tuned on (2-vCPU Xeon),
pure-Python code runs at about two speeds, 1.7x apart. They switch every
fraction of a second to a few seconds, and for minutes at a time the slow
one dominates, so the same pass takes up to 1.9x as long from one run to
the next. The kernel reports no stolen time and CPU time slows alike, so
neither CPU time nor the fastest of several timings removes it.

What does track it is a fixed loop timed right next to the work: in one
run, an operation's wall time varied by 0.16-0.59 (interquartile range
over median) while its ratio to the loop timed around it varied by
0.08-0.15. So a stretch of work is timed, the loop is timed after it, and
the work's time is multiplied by REFERENCE_S over the mean of the loop
times before and after. The result is the time the work would take at the
speed at which the loop takes REFERENCE_S: on the tuning machine, the
wall time at its faster speed. The loop imports nothing from pwanet, so
a change to the library moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# The loop's time at the faster speed of the tuning machine. Any fixed
# value would do; this one keeps scaled times close to wall times there.
REFERENCE_S = 0.0032

# Work is scaled in stretches of at least this long, so a point query of
# a fraction of a millisecond does not pay for a loop of its own.
STRETCH_S = 0.02


def _loop() -> Fraction:
    """Fixed pure-Python work: Fraction products summed, as pwanet's LPs do."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def loop_seconds() -> float:
    start = perf_counter()
    _loop()
    return perf_counter() - start


class Pace:
    """Collects wall times of operations as scaled samples, per key."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._pending: list[tuple[str, float]] = []
        self._pending_s = 0.0
        self._before = loop_seconds()

    def add(self, key: str, seconds: float) -> None:
        """One wall time, just measured; scaled once the stretch is long enough."""
        self._pending.append((key, seconds))
        self._pending_s += seconds
        if self._pending_s >= STRETCH_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = loop_seconds()
        scale = 2 * REFERENCE_S / (self._before + after)
        for key, seconds in self._pending:
            self.samples[key].append(seconds * scale)
        self._pending.clear()
        self._pending_s = 0.0
        self._before = after

    def timed(self, key: str, fn, *args):
        """Call fn(*args), add its wall time under key, return its result."""
        start = perf_counter()
        result = fn(*args)
        self.add(key, perf_counter() - start)
        return result

    def total(self) -> float:
        self.flush()
        return sum(sum(values) for values in self.samples.values())
