"""Tests for fixed-bucket histograms (repro.obs.histogram)."""

from __future__ import annotations

import pytest

from repro.obs.histogram import Histogram, default_latency_bounds


class TestDefaultBounds:
    def test_log_spaced_and_covering(self):
        bounds = default_latency_bounds(10.0, 1e6, per_decade=8)
        assert bounds[0] == 10.0
        assert bounds[-1] >= 1e6
        # Strictly increasing, constant ratio.
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(abs(r - ratios[0]) < 1e-9 for r in ratios)
        assert ratios[0] == pytest.approx(10 ** (1 / 8))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            default_latency_bounds(0.0, 100.0)
        with pytest.raises(ValueError):
            default_latency_bounds(100.0, 10.0)
        with pytest.raises(ValueError):
            default_latency_bounds(1.0, 10.0, per_decade=0)


class TestHistogram:
    def test_counts_land_in_right_buckets(self):
        hist = Histogram([10.0, 100.0, 1000.0])
        for value in (5.0, 10.0, 50.0, 500.0, 5000.0):
            hist.add(value)
        # <=10 | <=100 | <=1000 | overflow
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.min == 5.0
        assert hist.max == 5000.0
        assert hist.mean == pytest.approx(5565.0 / 5)

    def test_rejects_negative_values_and_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram([10.0, 5.0])
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([1.0]).add(-0.1)

    def test_percentile_quantises_to_bucket_bound(self):
        hist = Histogram([10.0, 100.0, 1000.0])
        for value in (1.0, 2.0, 3.0, 40.0):
            hist.add(value)
        # p50 -> rank 2 -> lands in the <=10 bucket, reported as its bound.
        assert hist.percentile(50) == 10.0
        # p100 -> the <=100 bucket, capped at the observed max (40).
        assert hist.percentile(100) == 40.0

    def test_percentile_never_exceeds_observed_max(self):
        hist = Histogram([10.0, 100.0])
        hist.add(3.0)
        assert hist.percentile(99) == 3.0  # min(bound=10, max=3)

    def test_overflow_percentile_is_max(self):
        hist = Histogram([10.0])
        hist.add(9999.0)
        assert hist.percentile(50) == 9999.0

    def test_empty_histogram(self):
        hist = Histogram([10.0])
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["max_us"] == 0.0

    def test_percentile_rejects_bad_q(self):
        hist = Histogram([10.0])
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_values_on_bucket_boundaries_land_inclusive(self):
        # le-semantics: a value exactly on bounds[i] belongs to bucket i,
        # matching the Prometheus cumulative-bucket convention.
        hist = Histogram([10.0, 100.0, 1000.0])
        for value in (10.0, 100.0, 1000.0):
            hist.add(value)
        assert hist.counts == [1, 1, 1, 0]
        hist.add(0.0)  # zero is valid and lands in the first bucket
        assert hist.counts == [2, 1, 1, 0]

    def test_summary_and_to_dict_shapes(self):
        hist = Histogram()
        for value in range(100):
            hist.add(float(value) + 11.0)
        summary = hist.summary()
        assert set(summary) == {"count", "mean_us", "p50_us", "p95_us",
                                "p99_us", "max_us"}
        assert summary["p50_us"] <= summary["p95_us"] <= summary["p99_us"]
