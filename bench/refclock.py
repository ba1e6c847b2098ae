"""A clock that counts seconds at a fixed reference speed of the processor.

On a shared two-core machine the speed at which this process runs changes
by up to 2x within seconds, as other tenants come and go, so a plain wall
time of a multi-second round spreads by 20-25% from run to run.  While a
RefClock runs, a timer signal interrupts the process every PERIOD seconds
and times a short fixed probe (Python float arithmetic and small-array numpy
work, as in the program's inner loops).  The time between two probes is
then rescaled by PROBE_REF_S / (the mean of the two probe times), so an
interval is reported as the seconds it would have taken had every probe run in
exactly PROBE_REF_S.  The probes' own time is left out.

The probe does not touch ccfmlab, but it runs in the program's process, so
its time also depends on what the program left in the caches.  An untimed
warm-up of WARMUP steps before the timed ones takes most of that out: the
fastest probe times then differ by at most about 8% between kinds of work
(small-array loops, pure Python, streaming over 8 MB arrays, sleeping),
against 50% without it (bench/README.md, "Calibration").
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

PERIOD = 0.02
STEPS = 150
WARMUP = 50
PROBE_REF_S = 2.0e-4  # a fixed scale, near the time of STEPS probe steps on a 2-core Xeon VM

_X = np.linspace(0.0, 1.0, 8)


def _probe(steps: int) -> float:
    """Python float arithmetic and small-array numpy work, about 1.3 us a step."""
    x = _X.copy()
    acc = 0.0
    for i in range(steps):
        acc += math.exp(-i * 1e-3)
        x = x * 0.5 + _X
    return acc + float(x[0])


class RefClock:
    """Records probe times while running; converts wall intervals to reference seconds."""

    def __init__(self):
        self._marks: list[tuple[float, float, float]] = []  # (warm-up start, timed start, probe end)
        self._old_handler = None
        self._edges: list[float] = []
        self._cum: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe(WARMUP)
        timed = time.perf_counter()
        _probe(STEPS)
        self._marks.append((start, timed, time.perf_counter()))

    def start(self) -> None:
        self._tick()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._tick()
        # Reference seconds accumulated up to each probe's start and end.
        edges, cum = [], []
        total = 0.0
        marks = self._marks
        for j, (start, timed, end) in enumerate(marks):
            if j:
                _, prev_timed, prev_end = marks[j - 1]
                speed = PROBE_REF_S / (0.5 * ((prev_end - prev_timed) + (end - timed)))
                total += (start - prev_end) * speed
            edges += [start, end]
            cum += [total, total]
        self._edges, self._cum = edges, cum

    def at(self, t: float) -> float:
        """Reference seconds elapsed between the clock's start and wall time t."""
        edges, cum = self._edges, self._cum
        k = bisect.bisect_right(edges, t)
        if k == 0:
            return 0.0
        if k == len(edges):
            return cum[-1]
        if k % 2 == 1:  # inside a probe
            return cum[k - 1]
        lo, hi = edges[k - 1], edges[k]
        return cum[k - 1] + (cum[k] - cum[k - 1]) * (t - lo) / (hi - lo)

    def seconds(self, t0: float, t1: float) -> float:
        return self.at(t1) - self.at(t0)

    @property
    def probes(self) -> int:
        return len(self._marks)
