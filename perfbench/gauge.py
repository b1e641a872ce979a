"""Machine-speed gauge: a fixed pure-Python probe timed around operations.

The benchmark runs on a few cores of a shared host, whose speed drifts:
on a 2-vCPU VM the median of one fixed case-study pass moved between
45 and 79 ms a solve within a minute, and whole runs minutes apart
differed by more.  No setting of the benchmark removes that, so the
end-to-end times are reported at a reference machine speed, with the
wall times beside them.

The probe uses nothing from saferoute (dict updates, a sort and a small
min-plus DP over floats, the kind of work the solver does), so a change
to the package cannot move it.  It runs once before a timed section,
every ``Gauge.INTERVAL`` seconds inside each operation and once after
it; an operation of ``t`` seconds (net of the probes inside) whose
probes took ``p`` seconds on average is charged

    t * REFERENCE_S / p

seconds.  Measured on that VM over 30 rnd-rush passes of nine solves
(about 5 s each), the log of a pass's solve time against the log of its
probe time had correlation 0.95 and slope 1.10; the scaled time varied
by 0.049 (standard deviation of the log), the raw time by 0.149.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from contextlib import contextmanager

#: Probe time, in seconds, on the 2-vCPU VM the figures above come from,
#: when it was quiet.  Times are scaled to this speed; the constant only
#: sets the scale, so it must never change once runs have been compared.
REFERENCE_S = 0.0011

_rng = random.Random(20240601)
_ITEMS = [(_rng.random(), _rng.randrange(500), _rng.randrange(10**6))
          for _ in range(1500)]
_COSTS = [[_rng.random() for _ in range(32)] for _ in range(32)]


def probe() -> float:
    """The fixed work whose duration the gauge times."""
    totals: dict[int, float] = {}
    for x, key, _ in _ITEMS:
        totals[key] = totals.get(key, 0.0) + x * 1.0001
    ordered = sorted(_ITEMS)
    best = [0.0] * 32
    for layer in range(8):
        row = _COSTS[layer]
        nxt = []
        for j in range(32):
            low = math.inf
            for i in range(32):
                c = best[i] + row[(i + j) & 31]
                if c < low:
                    low = c
            nxt.append(low)
        best = nxt
    return sum(totals.values()) + ordered[0][0] + best[0]


class Gauge:
    """Times the probe around and inside operations, and scales each
    operation's time to reference speed.

    Inside an operation a real-time interval timer interrupts it every
    ``INTERVAL`` seconds and the signal handler runs the probe, in the
    same thread, so a solve of several seconds is judged by the speed
    during it, not only at its edges.  The probe time spent inside is
    taken out of the operation's time.
    """

    INTERVAL = 0.05

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self._inside: list[float] = []
        self._armed = False

    def _probe(self) -> float:
        started = time.perf_counter()
        probe()
        took = time.perf_counter() - started
        self.samples.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        if self._armed:
            self._inside.append(self._probe())

    def start(self) -> None:
        """Probe once before a timed section."""
        self._last = self._probe()

    @contextmanager
    def during(self):
        """Probe every ``INTERVAL`` seconds of the block; the block's time
        goes to ``charge`` next."""
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def charge(self, elapsed: float) -> tuple[float, float]:
        """Wall time of the block just timed, net of the probes inside it,
        and that time at reference speed, judged by the probes before,
        inside and after it (the one after also starts the next block)."""
        seconds = elapsed - sum(self._inside)
        after = self._probe()
        around = [self._last, *self._inside, after]
        self._last = after
        return seconds, seconds * REFERENCE_S / statistics.fmean(around)

    def speed(self) -> float:
        """Reference probe time over the median probe time of the run:
        above 1 when this run's machine was faster than the reference."""
        return REFERENCE_S / statistics.median(self.samples)
