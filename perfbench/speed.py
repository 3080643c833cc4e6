"""Correction of measured times for the speed of a shared machine.

On a shared 2-vCPU machine the same Python code runs up to twice as slow
for seconds at a time, as other tenants load the core; process CPU time
slows alike, so neither wall nor CPU time repeats from run to run. While
``running()`` is active, a ``SIGALRM`` timer interrupts the benchmark every
``TICK_S`` seconds of wall time and runs a fixed pure-Python probe loop.
The probes sample how fast the core runs Python throughout a measurement,
inside long calls too.

``now()`` is a clock that leaves out the probes' own time. A time measured
on it over an interval is put at the reference speed by ``factor()``:
``PROBE_REF_S`` over the mean probe time inside the interval.
``PROBE_REF_S`` is about the probe's time on the uncontended 2-vCPU Intel
Xeon this benchmark was defined on, so corrected times read close to its
uncontended wall times.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

TICK_S = 0.02
PROBE_ITERATIONS = 2000
PROBE_REF_S = 0.00025


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        k = i & 1023
        acc[k] = acc.get(k, 0) + i * i % 7
    return time.perf_counter() - t0


class Speed:
    def __init__(self):
        self.probed = 0.0  # wall seconds spent in probes
        self.ends: list[float] = []  # probe end times on the now() clock
        self.seconds: list[float] = []  # probe durations

    def now(self) -> float:
        return time.perf_counter() - self.probed

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        d = probe()
        self.probed += time.perf_counter() - t0
        self.ends.append(self.now())
        self.seconds.append(d)

    @contextlib.contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per second of ``now()`` over ``[t0, t1]``.
        An interval too short to hold a probe takes the nearest one."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.seconds[lo:hi] or self.seconds[max(0, lo - 1) : lo + 1] or [probe()]
        return PROBE_REF_S * len(inside) / sum(inside)
