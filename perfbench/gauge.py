"""Host-speed gauge: scales measured times to a reference host speed.

On a shared host the speed of a core drifts: the same fixed loop takes
anywhere from 1.0 to 2.2 ms within minutes, and every CLI command slows
with it.  A :class:`HostGauge` thread in the benchmark process times a
fixed pure-Python loop of about 1 ms every 50 ms (about 2% of the core the
CLI process does not use) for the whole run.  :meth:`HostGauge.scale`
returns ``REFERENCE_S`` divided by the median loop time over an interval,
so ``seconds * scale`` reads as seconds on a host running at the reference
speed.  On an Intel Xeon host with 2 vCPUs the scaled times of repeated
``spectrum-gap`` and ``trap-certify`` runs spread 2-3 times less than the
raw ones (coefficient of variation 0.06 against 0.14-0.19 over 4 minutes).

The scaling is only sound while the CLI process keeps to one core, which
the benchmark enforces: a second busy thread would compete with the gauge
and make the program look faster.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

# the loop's time on an unloaded Intel Xeon host with 2 vCPUs
REFERENCE_S = 1.0e-3
LOOP_ITERATIONS = 20_000
PERIOD_S = 0.05
# samples this close outside an interval still count for it
PAD_S = 0.1
MIN_SAMPLES = 3


def loop_time() -> float:
    """Seconds taken by the fixed loop, once."""
    start = time.perf_counter()
    total = 0
    for k in range(LOOP_ITERATIONS):
        total += k * k
    return time.perf_counter() - start


class HostGauge:
    """Background sampler of :func:`loop_time`, keyed by ``time.monotonic``."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-gauge", daemon=True)

    def __enter__(self) -> HostGauge:
        self._record()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _record(self) -> None:
        seconds = loop_time()
        # stamped at the loop's midpoint; appends are atomic under the GIL
        self.times.append(seconds)
        self.stamps.append(time.monotonic() - seconds / 2)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._record()

    def median(self, start: float, end: float) -> float:
        """Median loop time over [start, end], widened until it holds
        ``MIN_SAMPLES`` samples."""
        count = min(len(self.stamps), len(self.times))
        stamps, times = self.stamps[:count], self.times[:count]
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(stamps, start - pad)
            hi = bisect.bisect_right(stamps, end + pad)
            if hi - lo >= min(MIN_SAMPLES, count):
                return statistics.median(times[lo:hi])
            pad *= 2

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds spent in [start, end] into seconds at
        the reference speed."""
        return REFERENCE_S / self.median(start, end)
