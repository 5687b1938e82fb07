"""Speed of the machine at a moment, from a fixed calibration kernel.

The host of the reference machine runs a process at changing speed, on
time scales from milliseconds to tens of seconds; CPU time equals wall time
throughout, so only a measurement of work done per second shows it.  The
kernel below does a fixed amount of what the program's integrands do
(Python arithmetic and calls into ``math``), imports nothing, so sampling
can start before numpy and scipy load, and depends on nothing in deltanls,
so a change to the program cannot change it.

``speed()`` is REFERENCE_S divided by the kernel's time: 1 at the
undisturbed speed of the reference machine, below 1 while the host runs
the process slower.  A time multiplied by the speed during it is the time
the same work takes at undisturbed speed on the reference machine.

The speed changes within tens of milliseconds, so a ``Sampler`` measures it
every INTERVAL_S from a SIGALRM handler, during the operations themselves,
and keeps the time it spends out of them.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

#: The kernel's time at undisturbed speed on the reference machine (the
#: fastest of 20,000 runs, against a median of 0.107 ms, on a 2-vCPU Xeon
#: host with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1).
REFERENCE_S = 6.4e-5


def _integrand(x: float) -> float:
    return math.exp(-x * x) * (1.0 + x) ** 0.3


def kernel() -> float:
    total = 0.0
    for k in range(300):
        total += _integrand(k * 0.01)
    return total


def speed() -> float:
    start = time.perf_counter()
    kernel()
    return REFERENCE_S / (time.perf_counter() - start)


INTERVAL_S = 0.004


class Sampler:
    """Speed samples taken every INTERVAL_S of wall time by a SIGALRM handler."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0        # time spent in the handler, to leave out of timings
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:          # a signal that arrives during a sample
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.speeds.append(REFERENCE_S / (end - start))
        self.spent += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples in [start, end], widened by one interval
        each side, or of the nearest sample on each side when none is there
        (a long call into C code can hold the handler back)."""
        lo = bisect.bisect_left(self.times, start - INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + INTERVAL_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        inside = self.speeds[lo:hi]
        if not inside:
            raise RuntimeError("no speed sample was taken")
        return sum(inside) / len(inside)
