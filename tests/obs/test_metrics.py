"""Tests for the typed metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    labeled_snapshots_to_prometheus,
    merge_snapshots,
    snapshot_to_prometheus,
)


class TestHandles:
    def test_counter_only_goes_up(self):
        counter = MetricsRegistry().counter("ops_total").unlabeled
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = MetricsRegistry().gauge("depth").unlabeled
        gauge.set(4)
        gauge.inc()
        assert gauge.value == 5
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_observe(self):
        family = MetricsRegistry().histogram("lat_us", bounds=(10.0, 100.0))
        family.unlabeled.observe(50.0)
        sample = family.samples()[0]
        assert sample["count"] == 1
        assert sample["bounds_us"] == [10.0, 100.0]


class TestFamilies:
    def test_labels_create_children_on_demand(self):
        family = MetricsRegistry().counter("reads", labels=("die",))
        family.labels(die=0).inc()
        family.labels(die=1).inc(2)
        family.labels(die=0).inc()
        samples = family.samples()
        assert [s["labels"] for s in samples] == [{"die": "0"}, {"die": "1"}]
        assert [s["value"] for s in samples] == [2.0, 2.0]

    def test_wrong_label_set_rejected(self):
        family = MetricsRegistry().counter("reads", labels=("die",))
        with pytest.raises(ValueError):
            family.labels(channel=0)
        with pytest.raises(ValueError):
            family.labels(die=0, channel=0)

    def test_unlabeled_requires_label_less_family(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("reads", labels=("die",)).unlabeled


class TestRegistry:
    def test_redeclare_same_shape_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("ops_total", "help", labels=("die",))
        second = registry.counter("ops_total", "other help", labels=("die",))
        assert first is second

    def test_redeclare_different_kind_or_labels_raises(self):
        registry = MetricsRegistry()
        registry.counter("ops_total")
        with pytest.raises(ValueError):
            registry.gauge("ops_total")
        with pytest.raises(ValueError):
            registry.counter("ops_total", labels=("die",))

    @pytest.mark.parametrize("bad", ["1bad", "sp ace", "dash-ed", ""])
    def test_invalid_metric_names_rejected(self, bad):
        with pytest.raises(ValueError):
            MetricsRegistry().counter(bad)

    @pytest.mark.parametrize("bad", ["1bad", "with:colon", ""])
    def test_invalid_label_names_rejected(self, bad):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("ok", labels=(bad,))

    def test_duplicate_label_names_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("ok", labels=("die", "die"))

    def test_snapshot_shape_and_order(self):
        registry = MetricsRegistry()
        registry.gauge("z_metric").unlabeled.set(1)
        registry.counter("a_metric").unlabeled.inc()
        snap = registry.snapshot()
        assert snap["schema"] == METRICS_SCHEMA
        assert list(snap["metrics"]) == ["a_metric", "z_metric"]
        assert snap["metrics"]["a_metric"]["kind"] == "counter"
        assert snap["metrics"]["a_metric"]["samples"][0]["value"] == 1.0

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("lat_us", labels=("cls",)).labels(cls="read").observe(5)
        json.dumps(registry.snapshot())


class TestMerge:
    def _snap(self, counter=0.0, gauge=0.0, hist=(), bounds=(10.0, 100.0)):
        registry = MetricsRegistry()
        c = registry.counter("ops_total").unlabeled
        c.inc(counter)
        registry.gauge("depth").unlabeled.set(gauge)
        h = registry.histogram("lat_us", bounds=bounds).unlabeled
        for value in hist:
            h.observe(value)
        return registry.snapshot()

    def test_counters_sum_gauges_max_histograms_add(self):
        merged = merge_snapshots(
            [self._snap(2, 5, (20.0,)), self._snap(3, 4, (50.0, 20.0))]
        )
        metrics = merged["metrics"]
        assert metrics["ops_total"]["samples"][0]["value"] == 5.0
        assert metrics["depth"]["samples"][0]["value"] == 5.0
        hist = metrics["lat_us"]["samples"][0]
        assert hist["count"] == 3
        assert hist["min_us"] == 20.0
        assert hist["max_us"] == 50.0

    def test_merge_into_empty_histogram_keeps_min(self):
        merged = merge_snapshots([self._snap(), self._snap(hist=(30.0,))])
        hist = merged["metrics"]["lat_us"]["samples"][0]
        assert hist["min_us"] == 30.0

    def test_disjoint_label_sets_union(self):
        a = MetricsRegistry()
        a.counter("reads", labels=("die",)).labels(die=0).inc()
        b = MetricsRegistry()
        b.counter("reads", labels=("die",)).labels(die=1).inc(2)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        samples = merged["metrics"]["reads"]["samples"]
        assert [s["labels"]["die"] for s in samples] == ["0", "1"]

    def test_mismatched_bucket_bounds_raise(self):
        with pytest.raises(ValueError, match="mismatched"):
            merge_snapshots(
                [self._snap(bounds=(10.0, 100.0)), self._snap(bounds=(10.0,))]
            )

    def test_conflicting_kinds_raise(self):
        a = MetricsRegistry()
        a.counter("x").unlabeled.inc()
        b = MetricsRegistry()
        b.gauge("x").unlabeled.set(1)
        with pytest.raises(ValueError, match="conflicting"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            merge_snapshots([{"schema": 99, "metrics": {}}])


class TestPrometheus:
    def test_scalar_exposition(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "operations").unlabeled.inc(3)
        text = registry.to_prometheus_text()
        assert "# HELP ops_total operations" in text
        assert "# TYPE ops_total counter" in text
        assert "ops_total 3" in text
        assert text.endswith("\n")

    def test_histogram_exposition_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_us", bounds=(10.0, 100.0)).unlabeled
        hist.observe(5.0)
        hist.observe(50.0)
        hist.observe(500.0)
        lines = registry.to_prometheus_text().splitlines()
        assert 'lat_us_bucket{le="10"} 1' in lines
        assert 'lat_us_bucket{le="100"} 2' in lines
        assert 'lat_us_bucket{le="+Inf"} 3' in lines
        assert "lat_us_count 3" in lines
        assert any(line.startswith("lat_us_sum ") for line in lines)

    def test_extra_labels_injected_and_escaped(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", labels=("die",)).labels(die=0).inc()
        text = registry.to_prometheus_text(extra_labels={"run": 'a"b'})
        assert 'ops_total{die="0",run="a\\"b"} 1' in text

    def test_labeled_snapshots_declare_families_once(self):
        a = MetricsRegistry()
        a.counter("ops_total", "operations").unlabeled.inc(1)
        b = MetricsRegistry()
        b.counter("ops_total", "operations").unlabeled.inc(2)
        text = labeled_snapshots_to_prometheus(
            [({"run": "a"}, a.snapshot()), ({"run": "b"}, b.snapshot())]
        )
        assert text.count("# TYPE ops_total counter") == 1
        assert 'ops_total{run="a"} 1' in text
        assert 'ops_total{run="b"} 2' in text

    def test_labeled_snapshots_conflicting_kind_raises(self):
        a = MetricsRegistry()
        a.counter("x").unlabeled.inc()
        b = MetricsRegistry()
        b.gauge("x").unlabeled.set(1)
        with pytest.raises(ValueError, match="conflicting"):
            labeled_snapshots_to_prometheus(
                [({"run": "a"}, a.snapshot()), ({"run": "b"}, b.snapshot())]
            )

    def test_snapshot_roundtrip_matches_registry_export(self):
        registry = MetricsRegistry()
        registry.gauge("depth", labels=("kind",)).labels(kind="die").set(7)
        assert snapshot_to_prometheus(registry.snapshot()) == (
            registry.to_prometheus_text()
        )
