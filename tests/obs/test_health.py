"""Tests for the device-health monitor (repro.obs.health)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import run_workload
from repro.experiments.systems import ida
from repro.obs import Instruments, IntervalCollector, Telemetry
from repro.obs.health import HEALTH_SCHEMA, HealthMonitor
from repro.obs.slo import SloObjective
from repro.workloads import workload


@pytest.fixture(scope="module")
def monitored_run(request):
    from repro.experiments.config import RunScale

    scale = RunScale(
        num_requests=400,
        footprint_pages=4000,
        blocks_per_plane=12,
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=2,
    )
    spec = workload("usr_1")
    duration_us = spec.scaled(scale.num_requests, scale.footprint_pages).duration_us
    telemetry = Instruments(
        health=True,
        slo=(
            SloObjective(
                name="loose",
                metric="read_p99_us",
                threshold=1e9,
                window_us=1e6,
            ),
        ),
    ).build(duration_us)
    monitor = telemetry.health
    result = run_workload(ida(0.2), spec, scale, telemetry=telemetry)
    return monitor, result


class TestConstruction:
    def test_block_groups_validated(self):
        with pytest.raises(ValueError):
            HealthMonitor(block_groups=0)

    def test_unbound_sample_raises(self):
        with pytest.raises(RuntimeError, match="not bound"):
            HealthMonitor().sample(0.0, 100.0)


class TestMonitoredRun(object):
    def test_series_collected_in_time_order(self, monitored_run):
        monitor, _ = monitored_run
        series = monitor.series()
        assert len(series) >= 8  # auto-collector carves ~16 intervals
        ends = [snap["end_us"] for snap in series]
        assert ends == sorted(ends)
        assert all(s["start_us"] < s["end_us"] for s in series)

    def test_snapshots_show_device_activity(self, monitored_run):
        monitor, result = monitored_run
        final = monitor.snapshots[-1]
        assert final.wear["max"] > 0
        assert final.in_use_blocks > 0
        assert sum(s.reads for s in monitor.snapshots) > 0
        assert any(s.gc_invocations for s in monitor.snapshots) or any(
            s.refresh_invocations for s in monitor.snapshots
        )
        # IDA system under refresh pressure exposes adjusted blocks.
        assert any(s.ida_exposure > 0 for s in monitor.snapshots)

    def test_summary_aggregates(self, monitored_run):
        monitor, _ = monitored_run
        summary = monitor.summary()
        assert summary["schema"] == HEALTH_SCHEMA
        assert summary["samples"] == len(monitor.snapshots)
        assert summary["wear"] == monitor.snapshots[-1].wear
        assert summary["read_retries"] == sum(
            s.read_retries for s in monitor.snapshots
        )
        assert summary["max_est_rber"] > 0.0

    def test_payload_is_json_ready_and_complete(self, monitored_run):
        monitor, result = monitored_run
        payload = monitor.to_payload()
        assert set(payload) == {"schema", "summary", "series", "slo", "registry"}
        json.dumps(payload)
        assert result.telemetry["health"] == payload

    def test_gauges_published_to_registry(self, monitored_run):
        monitor, _ = monitored_run
        snap = monitor.registry.snapshot()["metrics"]
        final = monitor.snapshots[-1]
        assert (
            snap["device_wear_p99_erases"]["samples"][0]["value"]
            == final.wear["p99"]
        )
        assert snap["device_ida_exposure"]["samples"][0]["value"] == pytest.approx(
            final.ida_exposure
        )
        # Per-group RBER gauge is labeled by block_group.
        rber_samples = snap["device_estimated_rber"]["samples"]
        assert len(rber_samples) == monitor.block_groups

    def test_sim_owned_counters_in_same_registry(self, monitored_run):
        monitor, result = monitored_run
        snap = monitor.registry.snapshot()["metrics"]
        assert (
            snap["ftl_block_erases_total"]["samples"][0]["value"]
            == result.metrics.block_erases
        )
        assert "host_latency_us" in snap
        assert (
            snap["host_latency_us"]["samples"][0]["labels"]["request_class"]
            == "read"
        )

    def test_loose_slo_never_breaches(self, monitored_run):
        monitor, _ = monitored_run
        assert monitor.slo.breach_count == 0
        payload = monitor.to_payload()
        assert payload["slo"]["breaches"] == 0

    def test_read_latency_tracks_interval_histogram(self, monitored_run):
        monitor, _ = monitored_run
        busy = [s for s in monitor.snapshots if s.read_latency.get("count")]
        assert busy
        for snap in busy:
            lat = snap.read_latency
            assert lat["p50_us"] <= lat["p99_us"] <= lat["max_us"]


class TestWithoutRegistry:
    def test_monitor_works_bare(self, tiny_scale):
        monitor = HealthMonitor()
        spec = workload("usr_1")
        duration_us = spec.scaled(
            tiny_scale.num_requests, tiny_scale.footprint_pages
        ).duration_us
        run_workload(
            ida(0.2), spec, tiny_scale,
            telemetry=Telemetry(
                collector=IntervalCollector(duration_us / 16), health=monitor
            ),
        )
        payload = monitor.to_payload()
        assert "registry" not in payload
        assert "slo" not in payload
        assert payload["series"]
