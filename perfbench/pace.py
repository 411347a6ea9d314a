"""How fast the host runs Python right now, measured between the timed ops.

    python3 pace.py   # serve: one reference run per line read on stdin

On a shared host the speed at which one fixed piece of Python runs drifts by
half or more, over tens of seconds: on a 2-vCPU cloud VM the median of one
fixed pure-Python loop read 7.8 ms in one 20 s window and 12.5 ms in another.
That is slow enough that a whole 40 s run can land in a slow phase, and no
estimator over one run removes that.  So the benchmark also times a fixed
reference workload of its own, often and outside the timed windows, and
reports each timing at *reference pace*:

    seconds at reference pace = seconds measured * REFERENCE_S / r

where r is the median duration of the reference samples nearest in time to the
measurement.  On a host that runs the reference in exactly ``REFERENCE_S`` the
two readings agree.  A change to the program moves its timings at reference
pace as much as its raw timings; a change in the host's speed moves both the
program and the reference, and cancels.

The reference walks a few megabytes of small objects, as the library's heaps
do.  On that VM, over 10 s windows, the medians of a dictionary tally and of
a sort over such data moved with those of the workloads' ops (log-log slopes
0.87 to 1.11 for a model-block op, a sweep slice and an interpreter start),
where small references that stay in the processor's caches moved up to three
times as much as the ops.  Each CPU's speed drifts on its own, so the
benchmark keeps itself and the reference on one CPU (``run.py``).

The reference uses only the standard library and none of ``gieseker``, so a
change to the program cannot change it.  It runs in a child process of its
own, so that its memory does not count towards the workload's peak RSS and the
library's heap does not slow its garbage collector; the child runs only while
its parent waits for the answer.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
from bisect import bisect_left
from statistics import median
from time import perf_counter

REFERENCE_S = 0.020  # the reference's duration on the nominal host
PACE_EVERY_S = 0.3  # sample the reference at most this often
NEAREST = 3  # reference samples that set the pace at one moment
_ITEMS = 60000  # (key, value) pairs the reference walks


def _items() -> list[tuple[int, int]]:
    rng = random.Random(20161125)
    return [(rng.randrange(10**6), rng.randrange(1000)) for _ in range(_ITEMS)]


def reference(items: list[tuple[int, int]]) -> tuple[int, tuple[int, int]]:
    """Fixed work: a dictionary tally over every pair and a sort of a third."""
    tally: dict[int, int] = {}
    for key, value in items:
        tally[key] = tally.get(key, 0) + value
    return len(tally), sorted(items[::3])[len(items) // 6]


def _serve() -> None:
    gc.disable()  # the reference makes no cycles
    items = _items()
    for _ in sys.stdin:
        start = perf_counter()
        reference(items)
        print(perf_counter() - start, flush=True)


class Pacer:
    """Reference samples taken through a run, and the pace they give.

    Use as a context manager: the reference child exits on leaving it."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each sample, in order
        self.durations: list[float] = []
        self._last = float("-inf")
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def __enter__(self) -> "Pacer":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def sample(self) -> None:
        start = perf_counter()
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process exited")
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(float(line))
        self._last = end

    def due(self) -> None:
        """Sample unless the last sample is more recent than ``PACE_EVERY_S``."""
        if perf_counter() - self._last >= PACE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a timing over [start, end] to reference pace."""
        mid = (start + end) / 2
        i = bisect_left(self.times, mid)
        lo, hi = i, i  # widen [lo, hi) towards the nearer side each step
        while hi - lo < min(NEAREST, len(self.times)):
            if lo > 0 and (hi == len(self.times) or mid - self.times[lo - 1] <= self.times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / median(self.durations[lo:hi])


if __name__ == "__main__":
    _serve()
