"""Reference CPU speed, measured next to the timed calls.

On a shared 2-core Linux x86_64 host (Python 3.11.7) the CPU speed
changed by up to 1.7x over minutes: one `wiener_quotient` call took 46 ms
in one minute and 80 ms a few minutes later, with CPU time following wall
time.  A fixed pure-Python probe, timed between the calls it brackets,
tracks that drift: three runs of one oracle_sweep seed read 204.2, 155.9
and 160.0 rings/s unscaled and 188.2, 192.5 and 187.3 scaled.  Reported
times are scaled by PROBE_REFERENCE_S / probe time, so they read as times
on a CPU on which the probe takes PROBE_REFERENCE_S, close to that host's
usual speed.
"""

from __future__ import annotations

import time

PROBE_REFERENCE_S = 0.0006
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.1  # a probe at least this often between timed calls


def _probe_work() -> int:
    # Integer arithmetic plus allocation churn: over 17 ten-second windows,
    # this tracked a small `cozero wiener` call and a quotient call better
    # than either part alone or a scan of a buffer larger than the cache.
    acc = 0
    table = {}
    for i in range(1500):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 127] = acc
    objs = [{"k": i, "s": str(i), "l": [i, acc]} for i in range(500)]
    return acc + len(objs)


def probe() -> float:
    """Best of PROBE_REPEATS timings of the probe, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Scaler:
    """Scales call times by the mean of the probes taken before and after them.

    `add` records a raw time; the times recorded since the last probe are
    scaled when the next probe runs, at least every PROBE_EVERY_S, and at
    `flush`.  Scaled times accumulate in `scaled`, raw ones in `raw`.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending = 0.0
        self._before = probe()

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._pending += seconds
        if self._pending >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        after = probe()
        factor = PROBE_REFERENCE_S / ((self._before + after) / 2)
        self.scaled.extend(t * factor for t in self.raw[len(self.scaled) :])
        self._before = after
        self._pending = 0.0
