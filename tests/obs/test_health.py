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
        assert set(payload) == {"schema", "summary", "series", "slo"}
        json.dumps(payload)
        assert result.telemetry["health"] == payload

    @pytest.mark.parametrize(
        "counter",
        [
            "gc_invocations",
            "gc_page_moves",
            "refresh_invocations",
            "refresh_page_moves",
            "read_retries",
        ],
    )
    def test_series_deltas_sum_to_run_totals(self, monitored_run, counter):
        # Each snapshot holds the interval's delta; the series must
        # account for every event the run's end-of-run totals count.
        monitor, result = monitored_run
        assert sum(getattr(s, counter) for s in monitor.snapshots) == getattr(
            result.metrics, counter
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


class TestWithoutSlo:
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
        assert set(payload) == {"schema", "summary", "series"}
        assert payload["series"]
