"""Machine-speed calibration of the end-to-end times.

The reference machine is a virtual machine on a shared host whose speed
drifts: the same round of commands takes 0.85 s in one minute and 1.4 s
in the next, in user time, not in time stolen by the hypervisor.  So
between operations the run times a fixed reference computation that
does not touch telecert: a pure-Python integer loop and a few 81x81
dense solves and products.  An operation's time is scaled by
REFERENCE_S over the median reference time measured within WINDOW_S
seconds of the operation.  The result is the time the operation would
take at the speed at which the reference computation takes REFERENCE_S,
its time when run alone on the reference machine.

A change to telecert moves the scaled times in the same proportion as
the raw ones, because the reference computation runs none of its code.  A change
that leaves work running between commands (a busy thread, say) would
slow the reference computation and so flatter the scaled times; the raw
times that run.py prints next to them show that.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Time of one reference computation run alone on the reference machine
#: (2-vCPU Intel Xeon virtual machine, Python 3.11, OpenBLAS, 1 thread);
#: between telecert operations it takes 9.5-11 ms there, so scaled times
#: read lower than raw ones.  Only a unit: spreads and ratios ignore it.
REFERENCE_S = 0.0072
#: Least time between two samples; one sample costs about 3% of it.
INTERVAL_S = 0.25
#: Samples taken this long before an operation's start or after its end
#: speak for it.
WINDOW_S = 2.0


class Calibration:
    def __init__(self):
        import numpy as np  # here, not at import: run.py fixes the BLAS threads first

        self._np = np
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((81, 81))
        self._matrix = matrix @ matrix.T + 81.0 * np.eye(81)
        self.times: list = []  # perf_counter at each sample's start
        self.seconds: list = []  # each sample's reference time
        self._last = float("-inf")

    def _reference(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i % 7
        for i in range(20):
            self._np.linalg.solve(self._matrix, self._matrix[i])
            self._matrix @ self._matrix
        return time.perf_counter() - start

    def sample(self) -> None:
        now = time.perf_counter()
        self.seconds.append(self._reference())
        self.times.append(now)
        self._last = now

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that brings a time measured from `start` to `end` to the
        reference speed.  Callers sample at most INTERVAL_S before every
        operation they time, so the window is never empty."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.seconds)
