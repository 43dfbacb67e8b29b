"""Fixed-bucket histograms for latency time-series.

The interval collector samples read latencies into log-spaced buckets
instead of retaining every sample: a run with millions of reads then
costs a few hundred integers per interval rather than O(reads) floats,
which is what makes per-interval latency series affordable.  Exact
count/total/min/max are tracked alongside, so means are exact and only
percentiles are bucket-quantised (to the bucket's upper bound).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

__all__ = ["Histogram", "default_latency_bounds"]


def default_latency_bounds(
    lo_us: float = 10.0, hi_us: float = 1e6, per_decade: int = 8
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds covering ``[lo_us, hi_us]``.

    Eight buckets per decade keeps the quantisation error of a
    percentile under ~33% of its value — tight enough for trend plots
    and regression gates over 10 us .. 1 s latencies.
    """
    if lo_us <= 0 or hi_us <= lo_us:
        raise ValueError("need 0 < lo_us < hi_us")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    bounds: list[float] = []
    step = 0
    while True:
        bound = lo_us * 10 ** (step / per_decade)
        bounds.append(bound)
        if bound >= hi_us:
            break
        step += 1
    return tuple(bounds)


class Histogram:
    """Counting histogram over fixed ascending bucket bounds.

    Bucket ``i`` counts values ``<= bounds[i]`` (and greater than the
    previous bound); values above the last bound land in an overflow
    bucket whose reported percentile is the observed maximum.
    """

    def __init__(self, bounds: Sequence[float] | None = None) -> None:
        self.bounds: tuple[float, ...] = (
            tuple(bounds) if bounds is not None else default_latency_bounds()
        )
        if not self.bounds:
            raise ValueError("need at least one bucket bound")
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank ``q``-th percentile, quantised to bucket bounds."""
        if not 0 < q <= 100:
            raise ValueError("q must be in (0, 100]")
        if not self.count:
            return 0.0
        rank = max(1, -(-int(q * self.count) // 100))  # ceil(q/100 * count)
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index >= len(self.bounds):  # overflow bucket
                    return self.max
                return min(self.bounds[index], self.max)
        return self.max  # pragma: no cover - unreachable

    def summary(self) -> dict:
        """Count / mean / p50 / p95 / p99 / max, JSON-ready."""
        return {
            "count": self.count,
            "mean_us": self.mean,
            "p50_us": self.percentile(50),
            "p95_us": self.percentile(95),
            "p99_us": self.percentile(99),
            "max_us": self.max if self.count else 0.0,
        }
