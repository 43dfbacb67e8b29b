"""Tests for metrics collectors (repro.sim.metrics)."""

from __future__ import annotations

import pytest

from repro.sim.metrics import LatencyStats, ReadMixCounters, SimMetrics


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean_us == 0.0
        # An empty population has no percentiles: None, never a fake 0.0
        # (indistinguishable from a genuinely instant response) and
        # never an IndexError.
        assert stats.percentile(50) is None
        assert stats.percentile(99) is None
        assert stats.max_us == 0.0

    def test_empty_summary_propagates_none(self):
        summary = LatencyStats().summary()
        assert summary["count"] == 0
        assert summary["mean_us"] == 0.0
        assert summary["p50_us"] is None
        assert summary["p95_us"] is None
        assert summary["p99_us"] is None
        assert summary["max_us"] == 0.0

    def test_single_sample_is_every_percentile(self):
        stats = LatencyStats()
        stats.add(42.0)
        for q in (1, 50, 95, 99, 100):
            assert stats.percentile(q) == 42.0
        summary = stats.summary()
        assert summary["p50_us"] == 42.0
        assert summary["p99_us"] == 42.0
        assert summary["max_us"] == 42.0

    def test_mean_and_total(self):
        stats = LatencyStats()
        for v in (10.0, 20.0, 30.0):
            stats.add(v)
        assert stats.mean_us == 20.0
        assert stats.max_us == 30.0

    def test_percentiles_nearest_rank(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.add(float(v))
        assert stats.percentile(50) == 50.0
        assert stats.percentile(95) == 95.0
        assert stats.percentile(99) == 99.0
        assert stats.percentile(100) == 100.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyStats().add(-1.0)

    def test_rejects_bad_quantile(self):
        stats = LatencyStats()
        stats.add(1.0)
        with pytest.raises(ValueError):
            stats.percentile(0)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_sorted_cache_invalidated_by_add(self):
        stats = LatencyStats()
        for v in (30.0, 10.0, 20.0):
            stats.add(v)
        assert stats.percentile(100) == 30.0  # populates the cache
        stats.add(99.0)
        assert stats.percentile(100) == 99.0  # cache must not go stale
        assert stats.percentile(25) == 10.0

    def test_repeated_percentiles_share_one_sort(self):
        stats = LatencyStats()
        for v in range(1000, 0, -1):
            stats.add(float(v))
        stats.percentile(50)
        assert stats._sorted is not None
        cached = stats._sorted
        stats.percentile(95)
        assert stats._sorted is cached  # no re-sort between queries

    def test_summary_keys_and_values(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.add(float(v))
        summary = stats.summary()
        assert summary == {
            "count": 100,
            "mean_us": 50.5,
            "p50_us": 50.0,
            "p95_us": 95.0,
            "p99_us": 99.0,
            "max_us": 100.0,
        }

    def test_summary_empty(self):
        summary = LatencyStats().summary()
        assert summary["count"] == 0
        assert summary["mean_us"] == 0.0
        assert summary["max_us"] == 0.0


class TestReadMix:
    def test_tlc_accounting(self):
        mix = ReadMixCounters()
        mix.record(0, (True, True, True), False)   # LSB
        mix.record(1, (False, True, True), False)  # CSB, LSB invalid
        mix.record(1, (True, True, True), False)   # CSB, all valid
        mix.record(2, (False, True, True), True)   # MSB, lower invalid, IDA
        mix.record(2, (True, True, True), False)   # MSB, all valid
        assert mix.total == 5
        assert mix.fraction_of_type(0) == pytest.approx(0.2)
        assert mix.csb_invalid_fraction() == pytest.approx(0.5)
        assert mix.msb_invalid_fraction(2) == pytest.approx(0.5)
        assert mix.ida_fast_reads == 1

    def test_msb_counts_any_invalid_lower(self):
        mix = ReadMixCounters()
        mix.record(2, (True, False, True), False)
        mix.record(2, (False, False, True), False)
        assert mix.msb_with_invalid_lower == 2

    def test_mlc_accounting(self):
        mix = ReadMixCounters()
        mix.record(1, (False, True), False)
        mix.record(1, (True, True), False)
        assert mix.msb_with_invalid_lower == 1

    def test_mlc_lsb_reads_never_count_as_invalid_lower(self):
        mix = ReadMixCounters()
        mix.record(0, (False, True), False)  # LSB read, LSB itself invalid
        mix.record(0, (True, True), False)
        assert mix.msb_with_invalid_lower == 0
        assert mix.csb_with_invalid_lsb == 0  # MLC has no CSB
        assert mix.fraction_of_type(0) == 1.0

    def test_mlc_msb_invalid_fraction_uses_bit_one(self):
        mix = ReadMixCounters()
        mix.record(1, (False, True), True)
        mix.record(1, (True, True), False)
        mix.record(0, (True, True), False)
        assert mix.msb_invalid_fraction(1) == pytest.approx(0.5)
        assert mix.ida_fast_reads == 1

    def test_empty_fractions(self):
        mix = ReadMixCounters()
        assert mix.fraction_of_type(0) == 0.0
        assert mix.fraction_of_type(7) == 0.0  # type never recorded
        assert mix.csb_invalid_fraction() == 0.0
        assert mix.msb_invalid_fraction(2) == 0.0
        assert mix.msb_invalid_fraction(1) == 0.0
        assert mix.total == 0

    def test_fraction_of_unseen_type_with_traffic(self):
        mix = ReadMixCounters()
        mix.record(0, (True, True, True), False)
        assert mix.fraction_of_type(2) == 0.0
        assert mix.csb_invalid_fraction() == 0.0  # no CSB reads yet


class TestSimMetrics:
    def test_throughput(self):
        metrics = SimMetrics()
        metrics.bytes_read = 50_000_000
        metrics.bytes_written = 10_000_000
        metrics.start_us = 0.0
        metrics.end_us = 1_000_000.0  # one second
        assert metrics.throughput_mb_s() == pytest.approx(60.0)
        assert metrics.read_throughput_mb_s() == pytest.approx(50.0)

    def test_zero_elapsed(self):
        metrics = SimMetrics()
        assert metrics.throughput_mb_s() == 0.0
