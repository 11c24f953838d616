"""Host-speed calibration for the benchmark's time metrics.

The sandbox this benchmark was built on is a 2-vCPU VM whose speed drifts by
up to 1.8x for minutes at a time with other tenants' load: the fastest pass
of a 30-second run moved from 0.34 s to 0.70 s between runs. No statistic
within a run removes that, so a burst of this fixed pure-Python loop is timed
before and after every pass, and the pass's time is scaled to the speed at
which the loop takes REF_S seconds. On sparse-300 this cut the run-to-run
spread of the median pass from 25% to 12%. Any change to the loop or to
REF_S rescales every time metric, so both stay fixed.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# Median time of one loop on the reference sandbox (2 vCPUs, Python 3.11.7)
# when it ran fastest.
REF_S = 0.0033


class _Point:
    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _loop() -> int:
    # The simulator's mix: attribute reads, small calls, float arithmetic,
    # dict and list growth and Mersenne Twister draws.
    rng = random.Random(7)
    points = [_Point(rng.random() * 100, rng.random() * 100) for _ in range(80)]
    near: dict[int, list[_Point]] = {}
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if abs(a.x - b.x) + abs(a.y - b.y) <= 20.0:
                near.setdefault(i, []).append(b)
    kept = 0
    for _ in range(30_000):
        if rng.random() < 0.5:
            kept += 1
    return kept + len(near)


def burst() -> float:
    """Median duration of three runs of the loop, in host seconds."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Factor turning host seconds of work done between two bursts into
    reference seconds."""
    return 2 * REF_S / (before + after)
