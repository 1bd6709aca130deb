"""Machine-speed probe.

On the shared 2-core VM the benchmark was built on, the same pure-Python
loop runs up to 1.5 times slower for stretches of several seconds, with
no steal time and no other load in the VM.  No run length averages that
away.  The benchmark therefore times a fixed probe loop between
instances (outside the timed sections) and scales each measured time by
``PROBE_NOMINAL_S / probe``, using the probes taken just before and just
after it.  Times are then in seconds at the probe's nominal speed; a
program change moves them as it moves wall time, a change of machine
speed mostly does not.  Raw wall times are printed alongside.
"""

from __future__ import annotations

import statistics
import time

# Median probe time on the reference machine (2-core VM, Python 3.11).
PROBE_NOMINAL_S = 0.001
PROBE_EVERY_S = 0.1
_LOOP = 18_000


def _loop() -> int:
    s = 0
    for i in range(_LOOP):
        s += i & 7
    return s


def probe() -> float:
    """Seconds for the fixed loop: the median of three tries."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedLog:
    """Probes taken during a run, and the scale factor around any moment."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took = probe()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def factor(self, before: int, after: int) -> float:
        """Scale for a time measured between probe ``before`` and probe
        ``after`` (indexes into the log)."""
        return PROBE_NOMINAL_S / ((self.took[before] + self.took[after]) / 2)
