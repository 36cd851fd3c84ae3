"""Interpreter speed probe, so that times from a machine whose CPU speed
drifts can be compared between runs.

A probe times a fixed piece of pure-Python work (dict, tuple, list and sort
operations, as translation does).  A timed interval is scaled by
``REFERENCE_S`` over the mean of the probes taken just before and just after
it, which reports it at the speed where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.0005  # probe time at the reference speed
PROBE_EVERY = 0.05  # seconds between probes during a timed loop
PROBE_TRIES = 3  # a probe is the fastest of this many timings
# the speed drifts over seconds: an interval longer than this outlasts the
# probes around it and is scaled by probes taken alongside it instead
LOCAL_MAX_S = 1.0


def _work() -> int:
    table = {}
    for i in range(800):
        table[("k", i % 97, i)] = [i, str(i)]
    return len(sorted(table, key=lambda key: key[2] % 13))


def probe() -> float:
    """Seconds the probe work takes now.  The garbage collector is off while
    it runs, so the probe does not depend on the heap or gc settings of the
    code being measured."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_TRIES):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Scaler:
    """Probes between timed intervals and scales each interval by the probes
    just before and just after it."""

    def __init__(self):
        self.probes = [probe()]  # every probe taken, in seconds
        self._pending: list[float] = []
        self._last = time.perf_counter()

    @property
    def pending(self) -> int:
        """Intervals queued and not yet scaled."""
        return len(self._pending)

    def since_last(self) -> float:
        """Probe now; the scale for what ran since the previous probe."""
        before = self.probes[-1]
        self.probes.append(probe())
        self._last = time.perf_counter()
        return REFERENCE_S / ((before + self.probes[-1]) / 2)

    def add(self, raw: float) -> list[float]:
        """Queue one interval and :meth:`tick`."""
        self._pending.append(raw)
        return self.tick()

    def tick(self) -> list[float]:
        """Probe if ``PROBE_EVERY`` has passed since the last probe; returns
        the scaled intervals that probe closes."""
        if time.perf_counter() - self._last < PROBE_EVERY:
            return []
        return self.flush()

    def flush(self) -> list[float]:
        """Probe now and return every queued interval, scaled."""
        scale = self.since_last()
        scaled = [raw * scale for raw in self._pending]
        self._pending = []
        return scaled


def factor(probes) -> float:
    """One scale for a whole run, from the median of its probes."""
    return REFERENCE_S / statistics.median(probes)
