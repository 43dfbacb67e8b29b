"""Measurement collectors: response times, throughput, read-mix accounting.

The evaluation reports (i) mean read response time per workload, normalised
to the baseline (Figs. 8, 9, 11, Table V); (ii) device throughput
(Fig. 10); and (iii) the read-mix and refresh-overhead breakdowns (Fig. 4,
Table IV).  Everything those artifacts need is accumulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
__all__ = ["LatencyStats", "ReadMixCounters", "SimMetrics"]


class LatencyStats:
    """Streaming latency statistics with exact percentiles on demand.

    The sorted order is computed lazily and cached, so reporting code can
    query several percentiles (``summary()`` asks for three) at the cost
    of one sort; ``add`` invalidates the cache.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._total = 0.0
        self._sorted: list[float] | None = None

    def add(self, value_us: float) -> None:
        if value_us < 0:
            raise ValueError("latencies must be non-negative")
        self._samples.append(value_us)
        self._total += value_us
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean_us(self) -> float:
        return self._total / len(self._samples) if self._samples else 0.0

    def percentile(self, q: float) -> float | None:
        """Exact ``q``-th percentile (0 < q <= 100) by nearest-rank.

        Degenerate populations have well-defined answers instead of
        surprises: an empty population has no percentiles (``None`` —
        0.0 would be indistinguishable from a genuinely instant
        response), and a single sample is every percentile of itself.
        """
        if not 0 < q <= 100:
            raise ValueError("q must be in (0, 100]")
        if not self._samples:
            return None
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        rank = max(1, math.ceil(q / 100 * len(self._sorted)))
        return self._sorted[rank - 1]

    @property
    def max_us(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def summary(self) -> dict:
        """Count / mean / p50 / p95 / p99 / max as a JSON-ready dict."""
        return {
            "count": self.count,
            "mean_us": self.mean_us,
            "p50_us": self.percentile(50),
            "p95_us": self.percentile(95),
            "p99_us": self.percentile(99),
            "max_us": self.max_us,
        }


@dataclass
class ReadMixCounters:
    """Fig. 4 accounting: page-type and validity-scenario counts per read.

    Counted at read-dispatch time, per *page* read:

    * ``by_type[bit]`` — reads landing on each page type;
    * ``csb_with_invalid_lsb`` — CSB reads whose wordline LSB is invalid;
    * ``msb_with_invalid_lower`` — MSB reads whose LSB and/or CSB is
      invalid;
    * ``ida_fast_reads`` — reads served from IDA-reprogrammed wordlines.
    """

    by_type: dict[int, int] = field(default_factory=dict)
    csb_with_invalid_lsb: int = 0
    msb_with_invalid_lower: int = 0
    ida_fast_reads: int = 0
    total: int = 0

    def record(
        self,
        bit: int,
        wordline_validity: tuple[bool, ...],
        from_ida: bool,
    ) -> None:
        self.total += 1
        self.by_type[bit] = self.by_type.get(bit, 0) + 1
        bits = len(wordline_validity)
        if bits >= 3:
            if bit == 1 and not wordline_validity[0]:
                self.csb_with_invalid_lsb += 1
            if bit == bits - 1 and not all(wordline_validity[:-1]):
                self.msb_with_invalid_lower += 1
        elif bits == 2:
            if bit == 1 and not wordline_validity[0]:
                self.msb_with_invalid_lower += 1
        if from_ida:
            self.ida_fast_reads += 1

    def fraction_of_type(self, bit: int) -> float:
        """Fraction of all page reads that hit page type ``bit``."""
        if not self.total:
            return 0.0
        return self.by_type.get(bit, 0) / self.total

    def csb_invalid_fraction(self) -> float:
        """Fraction of CSB reads whose associated LSB is invalid."""
        csb = self.by_type.get(1, 0)
        return self.csb_with_invalid_lsb / csb if csb else 0.0

    def msb_invalid_fraction(self, msb_bit: int) -> float:
        """Fraction of MSB reads whose associated lower bits are invalid."""
        msb = self.by_type.get(msb_bit, 0)
        return self.msb_with_invalid_lower / msb if msb else 0.0


@dataclass
class SimMetrics:
    """Everything one simulation run measures."""

    read_response: LatencyStats = field(default_factory=LatencyStats)
    write_response: LatencyStats = field(default_factory=LatencyStats)
    read_mix: ReadMixCounters = field(default_factory=ReadMixCounters)
    bytes_read: int = 0
    bytes_written: int = 0
    start_us: float = 0.0
    end_us: float = 0.0
    gc_invocations: int = 0
    gc_page_moves: int = 0
    block_erases: int = 0
    refresh_invocations: int = 0
    refresh_page_moves: int = 0
    refresh_adjusted_wordlines: int = 0
    refresh_reprogrammed_pages: int = 0
    refresh_corrupted_pages: int = 0
    refresh_extra_reads: int = 0
    read_retries: int = 0
    unmapped_reads: int = 0
    phys_ops_dispatched: int = 0
    # Fault handling (all zero unless a FaultPlan is active).
    program_failures: int = 0
    erase_failures: int = 0
    grown_bad_blocks: int = 0
    uncorrectable_reads: int = 0
    read_reclaims: int = 0
    torn_adjust_recoveries: int = 0
    die_failures: int = 0
    fault_page_moves: int = 0

    @property
    def elapsed_us(self) -> float:
        return max(0.0, self.end_us - self.start_us)

    def throughput_mb_s(self) -> float:
        """Host data rate over the simulated span, in MB/s."""
        if self.elapsed_us <= 0:
            return 0.0
        total_bytes = self.bytes_read + self.bytes_written
        return (total_bytes / 1e6) / (self.elapsed_us / 1e6)

    def read_throughput_mb_s(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return (self.bytes_read / 1e6) / (self.elapsed_us / 1e6)
