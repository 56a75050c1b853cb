"""A speed reference that runs alongside the measured code.

The benchmark runs on a few cores of a shared host.  The CPU time of the
same deterministic work drifts there by up to 1.8x over minutes (neighbours
on the same physical cores, clock changes), so a raw time says as much about
the host as about the library.  A :class:`Gauge` measures that drift while
the work runs: once armed, ``SIGPROF`` fires every ``REF_EVERY_S`` of CPU time
and its handler runs a fixed reference loop, recording when it ran and how
long it took.  Because the samples are taken inside the measured calls and
between them, they see the host in the state the work saw.

Each measured stretch is then reported as ``own CPU time x REF_NOMINAL_S /
mean reference time`` over the reference samples nearest to it: its CPU time
at the speed where one reference sample takes ``REF_NOMINAL_S``.  Times use
the thread CPU clock (``thread_time``), which leaves out time the host gives
to other tenants and stays exact while a process CPU timer is armed (the
process clock then advances only at scheduler ticks).  The handler's own time
is subtracted from the stretches it interrupted.
"""

from __future__ import annotations

import bisect
import signal
from contextlib import contextmanager
from time import thread_time

REF_EVERY_S = 0.004  # CPU seconds between two reference samples
REF_NOMINAL_S = 125e-6  # reference sample time that reported times assume
# Reference samples either side of a stretch used to scale it, besides those
# inside it.  The host's speed changes within tens of milliseconds: on a
# fixed input whose raw CPU time spread 0.28 (interquartile range over
# median, 15-second windows), scaling by samples within 20 ms left 0.016, and
# by samples within one second 0.05.
NEAREST = 5
MIN_SAMPLES = 20

_REF_SIZE = 8
_REF_MATRIX = [[(r * 7 + c * 3) % 11 - 5 for c in range(_REF_SIZE)] for r in range(_REF_SIZE)]
_REF_COLUMNS = list(zip(*_REF_MATRIX))


def reference_loop() -> None:
    """Fixed interpreter-bound integer work: a product of two small integer
    matrices, the kind of arithmetic the library does (about 0.12 ms)."""
    [[sum(x * y for x, y in zip(row, col)) for col in _REF_COLUMNS] for row in _REF_MATRIX]


class Gauge:
    def __init__(self):
        self.starts: list[float] = []  # thread CPU time at each sample's start
        self.prefix: list[float] = [0.0]  # running sum of sample durations
        self.spent = 0.0  # thread CPU time spent in samples so far

    def _sample(self, signum=None, frame=None) -> None:
        start = thread_time()
        reference_loop()
        took = thread_time() - start
        self.starts.append(start)
        self.prefix.append(self.prefix[-1] + took)
        self.spent += took

    @contextmanager
    def armed(self):
        """Take reference samples while the block runs (main thread only)."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
            while len(self.starts) < MIN_SAMPLES:  # a very short run
                self._sample()

    def clock(self) -> tuple[float, float]:
        """``(own, at)``: thread CPU time outside the samples, and in all."""
        while True:
            spent = self.spent
            at = thread_time()
            if spent == self.spent:  # no sample ran in between
                return at - spent, at

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Own CPU seconds between two :meth:`clock` readings, at the speed
        where a reference sample takes ``REF_NOMINAL_S``."""
        if not self.starts:
            raise RuntimeError("the gauge has no reference samples yet")
        first = max(0, bisect.bisect_left(self.starts, start[1]) - NEAREST)
        last = min(len(self.starts), bisect.bisect_right(self.starts, end[1]) + NEAREST)
        mean = (self.prefix[last] - self.prefix[first]) / (last - first)
        return (end[0] - start[0]) * REF_NOMINAL_S / mean
