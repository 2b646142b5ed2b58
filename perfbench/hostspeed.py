"""The host's speed over a stretch of time, read from a fixed piece of work.

On a shared host, other tenants slow a core down, up to 2x, in phases that
last from under a second to minutes.  Such a phase can cover a whole run, and
then no choice among the run's own samples recovers the task's cost.  The
reference work below slows down with the host: it does the same kinds of
work as the tasks, in about equal parts (interpreter dispatch on tuples and
dicts; NumPy XOR over a 256 KiB uint8 vector, the size of a dense sweep at
n = 18) and never calls charclass, so no change to the package moves it.

A reading times the reference work, warm, and divides by REFERENCE_S, its
time per repetition on an idle core of the machine the benchmark was defined
on (Intel Xeon, 2 vCPUs, Python 3.11, NumPy 2.4).  The runner takes a
reading just before and just after every timed call.  A call's slowdown is the mean
of the readings within a window around it that reaches out by twice the
call's length, and at least WINDOW_S, on each side: a single reading jitters
from millisecond to millisecond, while a long call averages the host's
phases over its whole length, so a long call needs readings from many
moments.  Dividing the call's time by its slowdown gives its time at
reference speed.  REFERENCE_S and the reference work must never change:
every normalized time is in their units.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.81e-3  # one repetition of _work on an idle core, see above
REPS = 2  # repetitions per reading
WINDOW_S = 0.05  # least reach of the window around a call, each side


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(2507)
        self._vec = rng.integers(0, 2, 1 << 18, dtype=np.uint8)
        # preallocated, so a reading never asks malloc for a large block and
        # does not depend on the allocator state the calls left behind
        self._bufs = (np.zeros_like(self._vec), np.zeros_like(self._vec))
        self._keys = [tuple(rng.integers(0, 8, 4).tolist()) for _ in range(256)]
        self.times: list[float] = []  # midpoint of each reading, ascending
        self.values: list[float] = []

    def _work(self) -> int:
        acc: dict[tuple, int] = {}
        for key in self._keys:
            for shift in range(4):
                rotated = key[shift:] + key[:shift]
                acc[rotated] = acc.get(rotated, 0) ^ (sum(rotated) & 1)
        v, (a, b) = self._vec, self._bufs
        for shift in range(1, 25):
            np.bitwise_xor(v[shift:], a[:-shift], out=b[shift:])
            a, b = b, a
        return len(acc) + int(np.count_nonzero(a))

    def read(self) -> None:
        """Take a reading: reference time over REFERENCE_S (1 = idle core).

        One untimed repetition first brings the reference's data back into
        the caches, so the reading does not depend on what the call before
        it left there.
        """
        self._work()
        start = time.perf_counter()
        for _ in range(REPS):
            self._work()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.values.append((end - start) / REPS / REFERENCE_S)

    def around(self, start: float, end: float) -> float:
        """The host's slowdown over the call that ran from ``start`` to ``end``."""
        reach = max(WINDOW_S, 2 * (end - start))
        lo = bisect.bisect_left(self.times, start - reach)
        hi = bisect.bisect_right(self.times, end + reach)
        return statistics.fmean(self.values[lo:hi])
