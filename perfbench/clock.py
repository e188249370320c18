"""Times rescaled to one fixed host speed.

On a shared 2-vCPU Xeon VM every process runs up to 2.5 times slower than
in the host's fast phase, in phases of seconds to minutes, as other tenants
come and go.  Over 30 s windows of identical domain-square jobs, that put
0.24 between the quartiles of the raw median job time; rescaled as below,
0.04.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy


def speed_probe() -> float:
    """Seconds a fixed piece of interpreter work takes now.

    The work mixes what the jobs do: float arithmetic, rational arithmetic,
    dict stores and small numpy operations.  It runs long enough (about
    20 ms) to average over the host's sub-second speed changes, as a job does.
    """
    start = time.perf_counter()
    acc, q, table, v = 0.0, Fraction(0), {}, numpy.ones(3)
    for i in range(6000):
        x = i * 0.001
        acc += x * x - 0.5 * x + 1.0
        q += Fraction(i, 7)
        table[i & 15] = acc
        v = v * 0.5 + 1.0
    return time.perf_counter() - start


@dataclass
class Timed:
    wall_s: float
    scale: float = 1.0  # set by Clock

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale


class Clock:
    """Probes the host's speed between timed regions, never inside one, and
    multiplies each time by REF_PROBE_S over the mean of the probes taken
    just before and just after it."""

    REF_PROBE_S = 0.020  # the probe in that host's fast phase
    EVERY_S = 0.5  # probe at most this often

    def __init__(self):
        self.last = speed_probe()
        self.last_at = time.perf_counter()
        self.pending: list[Timed] = []

    def add(self, timed: Timed) -> None:
        """Sets ``timed.scale`` once the probe after it is taken."""
        self.pending.append(timed)
        if time.perf_counter() - self.last_at >= self.EVERY_S:
            self.flush()

    def flush(self) -> None:
        now = speed_probe()
        scale = self.REF_PROBE_S / (0.5 * (self.last + now))
        for timed in self.pending:
            timed.scale = scale
        self.pending.clear()
        self.last, self.last_at = now, time.perf_counter()
