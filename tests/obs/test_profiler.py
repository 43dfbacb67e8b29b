"""Tests for the sim-time profiler (repro.obs.profiler).

The three promises under test: attribution is *conservative* (critical-
path stages tile the measured response exactly), the Chrome trace export
is structurally valid (Perfetto-loadable), and an attached profiler
never perturbs the simulation it observes.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.experiments import (
    RunScale,
    ida,
    manifest_for_payload,
    run_workload,
)
from repro.obs import (
    IntervalCollector,
    SimProfiler,
    Telemetry,
    validate_chrome_trace,
)
from repro.obs.profiler import PROFILE_SCHEMA
from repro.workloads import workload


def profiled_run(keep_events: bool = True, max_events: int = 200_000,
                 collector: IntervalCollector | None = None):
    profiler = SimProfiler(keep_events=keep_events, max_events=max_events)
    result = run_workload(
        ida(0.2), workload("usr_1"), RunScale.tiny(), seed=11,
        telemetry=Telemetry(collector=collector, profiler=profiler),
    )
    return result, profiler


@pytest.fixture(scope="module")
def run_and_profiler():
    return profiled_run()


class TestConservation:
    def test_zero_residual(self, run_and_profiler):
        result, _ = run_and_profiler
        assert result.telemetry["profile"] is not None
        # The critical op's stages tile dispatch -> completion exactly,
        # so the worst per-request residual is float-noise at most.
        assert result.telemetry["profile"]["max_residual_us"] <= 1e-6

    def test_mean_attribution_matches_measured_response(self, run_and_profiler):
        result, _ = run_and_profiler
        for kind, measured in (
            ("read", result.metrics.read_response),
            ("write", result.metrics.write_response),
        ):
            cell = result.telemetry["profile"]["requests"][kind]
            attributed = (
                cell["mean_queue_wait_us"]
                + sum(cell["mean_service_us"].values())
                + cell["mean_host_overhead_us"]
            )
            assert attributed == pytest.approx(measured.mean_us, abs=1e-6)
            assert cell["count"] == measured.count

    def test_read_stages_are_the_read_pipeline(self, run_and_profiler):
        result, _ = run_and_profiler
        stages = result.telemetry["profile"]["stages"]["host_read"]
        assert set(stages) >= {"sense", "transfer", "ecc"}
        for cell in stages.values():
            assert cell["count"] > 0
            assert cell["service_us"] > 0.0

    def test_resource_section_covers_dies_and_channels(self, run_and_profiler):
        result, _ = run_and_profiler
        resources = result.telemetry["profile"]["resources"]
        assert set(resources["utilisation"]) == {"die", "channel"}
        assert 0.0 < resources["utilisation"]["die"] <= 1.0
        # read-first: a queued read's wait is never attributed to a
        # write the scheduler *chose* to start during the wait.
        wait_classes = resources["wait_classes"]["die"]
        behind = wait_classes["host_read"]["host_write"]["behind_us"]
        assert behind == 0.0

    def test_schema_tag(self, run_and_profiler):
        result, _ = run_and_profiler
        assert result.telemetry["profile"]["schema"] == PROFILE_SCHEMA


class TestChromeTrace:
    def test_export_validates(self, run_and_profiler):
        _, profiler = run_and_profiler
        trace = profiler.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"

    def test_export_is_json_serialisable(self, run_and_profiler):
        _, profiler = run_and_profiler
        json.dumps(profiler.to_chrome_trace())

    def test_one_track_per_resource(self, run_and_profiler):
        _, profiler = run_and_profiler
        trace = profiler.to_chrome_trace()
        thread_names = [
            e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert any(name.startswith("die") for name in thread_names)
        assert any(name.startswith("channel") for name in thread_names)

    def test_flows_pair_up(self, run_and_profiler):
        _, profiler = run_and_profiler
        trace = profiler.to_chrome_trace()
        starts = {e["id"] for e in trace["traceEvents"] if e["ph"] == "s"}
        ends = {e["id"] for e in trace["traceEvents"] if e["ph"] == "f"}
        assert starts and starts == ends

    def test_validator_flags_broken_traces(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_order = {"traceEvents": [
            {"ph": "X", "ts": 10.0, "dur": 1.0, "pid": 0, "tid": 0, "name": "a"},
            {"ph": "X", "ts": 5.0, "dur": 1.0, "pid": 0, "tid": 0, "name": "b"},
        ]}
        assert validate_chrome_trace(bad_order) != []
        unpaired_flow = {"traceEvents": [
            {"ph": "s", "ts": 1.0, "pid": 0, "tid": 0, "id": 7, "name": "req"},
        ]}
        assert validate_chrome_trace(unpaired_flow) != []

    def test_event_cap_drops_not_crashes(self):
        result, profiler = profiled_run(max_events=50)
        assert result.telemetry["profile"]["events_dropped"] > 0
        assert validate_chrome_trace(profiler.to_chrome_trace()) == []


class TestPassivity:
    def test_profiler_does_not_perturb_metrics(self, run_and_profiler):
        profiled, _ = run_and_profiler
        bare = run_workload(ida(0.2), workload("usr_1"), RunScale.tiny(), seed=11)
        assert bare.telemetry["profile"] is None
        assert bare.metrics.read_response.mean_us == profiled.metrics.read_response.mean_us
        assert bare.metrics.read_response.count == profiled.metrics.read_response.count
        assert bare.metrics.write_response.mean_us == profiled.metrics.write_response.mean_us
        assert bare.metrics.phys_ops_dispatched == profiled.metrics.phys_ops_dispatched

    def test_unprofiled_manifest_is_byte_identical(self, run_and_profiler):
        profiled, _ = run_and_profiler
        bare = run_workload(ida(0.2), workload("usr_1"), RunScale.tiny(), seed=11)
        bare_manifest = json.dumps(
            manifest_for_payload(bare.to_payload()), sort_keys=True
        )
        profiled_manifest = manifest_for_payload(profiled.to_payload())
        assert "profile" in profiled_manifest
        del profiled_manifest["profile"]
        assert json.dumps(profiled_manifest, sort_keys=True) == bare_manifest


class TestTimeline:
    def test_interval_samples_land_in_profile(self):
        result, _ = profiled_run(collector=IntervalCollector(5_000_000.0))
        timeline = result.telemetry["profile"]["timeline"]
        assert timeline
        for sample in timeline:
            assert 0.0 <= sample["die_busy_frac"] <= 1.0
            assert 0.0 <= sample["channel_busy_frac"] <= 1.0
            assert set(sample["die_busy_by_class"]) == {
                "host_read", "host_write", "internal",
            }

    def test_no_collector_no_timeline(self, run_and_profiler):
        result, _ = run_and_profiler
        assert result.telemetry["profile"]["timeline"] == []


class TestTransport:
    def test_pickle_roundtrip_preserves_aggregate(self, run_and_profiler):
        _, profiler = run_and_profiler
        clone = pickle.loads(pickle.dumps(profiler))
        assert clone.aggregate() == profiler.aggregate()

    def test_pickle_drops_live_simulator_refs(self, run_and_profiler):
        _, profiler = run_and_profiler
        state = profiler.__getstate__()
        assert state["_dies"] == []
        assert state["_channels"] == []
