"""Tests for report formatting and run manifests (repro.experiments.reporting)."""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path


from repro.experiments.reporting import (
    ascii_table,
    build_run_manifest,
    config_hash,
    format_pct,
    jsonable,
    metrics_summary,
    write_run_manifest,
)
from repro.obs import SCHEMA_VERSION
from repro.sim.metrics import SimMetrics


class TestAsciiTable:
    def test_alignment(self):
        table = ascii_table(["a", "bbb"], [["x", 1], ["yyyy", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        # All rows share the same width.
        assert len({len(line.rstrip()) for line in lines[2:]}) <= 2

    def test_title(self):
        assert ascii_table(["h"], [["v"]], title="T").splitlines()[0] == "T"

    def test_empty_rows(self):
        table = ascii_table(["only", "headers"], [])
        assert "only" in table


class TestFormatPct:
    def test_basic(self):
        assert format_pct(0.285) == "28.5%"
        assert format_pct(0.285, digits=0) == "28%"
        assert format_pct(1.0) == "100.0%"


class Colour(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Nested:
    colour: Colour
    path: Path


class TestJsonable:
    def test_dataclass_enum_path_tuple(self):
        out = jsonable({"n": Nested(Colour.RED, Path("/tmp/x")), "t": (1, 2)})
        assert out == {"n": {"colour": "red", "path": "/tmp/x"}, "t": [1, 2]}
        json.dumps(out)  # must be serialisable as-is

    def test_scalars_pass_through(self):
        assert jsonable(3.5) == 3.5
        assert jsonable("x") == "x"
        assert jsonable(None) is None


class TestConfigHash:
    def test_stable_across_key_order(self):
        a = {"system": "baseline", "seed": 11}
        b = {"seed": 11, "system": "baseline"}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 16

    def test_diverges_on_any_field(self):
        base = {"system": "baseline", "seed": 11}
        assert config_hash(base) != config_hash({**base, "seed": 12})
        assert config_hash(base) != config_hash({**base, "system": "ida-e20"})


def _metrics() -> SimMetrics:
    metrics = SimMetrics()
    metrics.read_response.add(100.0)
    metrics.read_response.add(200.0)
    metrics.write_response.add(2353.0)
    metrics.read_mix.record(1, (False, True, True), True)
    metrics.bytes_read = 16384
    metrics.bytes_written = 8192
    metrics.end_us = 1000.0
    metrics.gc_invocations = 2
    return metrics


class TestMetricsSummary:
    def test_shape_and_values(self):
        summary = metrics_summary(_metrics())
        assert summary["read_response"]["count"] == 2
        assert summary["read_response"]["mean_us"] == 150.0
        assert summary["read_mix"]["by_type"] == {"1": 1}
        assert summary["read_mix"]["ida_fast_reads"] == 1
        assert summary["counters"]["gc_invocations"] == 2
        json.dumps(summary)


class TestRunManifest:
    def test_minimal_manifest(self):
        manifest = build_run_manifest({"system": "baseline"}, _metrics())
        assert manifest["kind"] == "run_manifest"
        assert manifest["schema"] == SCHEMA_VERSION
        assert manifest["config_hash"] == config_hash({"system": "baseline"})
        assert "utilisation" not in manifest
        assert "time_series" not in manifest

    def test_schema_version_alias_always_present(self):
        # "schema_version" is the externally-documented spelling; it
        # mirrors "schema" so downstream consumers can key on either.
        manifest = build_run_manifest({"system": "baseline"}, _metrics())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["schema_version"] == manifest["schema"]

    def test_health_section_absent_unless_monitored(self):
        manifest = build_run_manifest({"system": "baseline"}, _metrics())
        assert "health" not in manifest
        monitored = build_run_manifest(
            {"system": "baseline"},
            _metrics(),
            telemetry={
                "health": {"schema": 1, "summary": {"samples": 3}, "series": []}
            },
        )
        assert monitored["health"]["summary"]["samples"] == 3

    def test_optional_sections(self):
        manifest = build_run_manifest(
            {"system": "x"},
            _metrics(),
            utilisation={"die": 0.5, "channel": 0.2},
            queue_wait={"die": {}},
            telemetry={"trace_path": Path("/tmp/t.jsonl")},
            extra={"note": "hello"},
        )
        assert manifest["utilisation"]["die"] == 0.5
        assert manifest["trace_path"] == "/tmp/t.jsonl"
        assert manifest["note"] == "hello"

    def test_time_series_from_collector(self):
        from repro.obs import IntervalCollector, Telemetry
        from repro.sim.engine import SimEngine

        collector = IntervalCollector(100.0)
        engine = SimEngine()
        collector.bind(engine, [], [])
        engine.at(20.0, lambda: collector.record_read(42.0, 4096))
        engine.at(150.0, lambda: None)
        collector.start()
        engine.run()
        collector.finish()
        manifest = build_run_manifest(
            {}, _metrics(), telemetry=Telemetry(collector=collector).payload()
        )
        series = manifest["time_series"]
        assert series["summary"]["read_latency"]["count"] == 1
        assert len(series["intervals"]) == len(collector.snapshots)

    def test_write_round_trip(self, tmp_path):
        manifest = build_run_manifest({"system": "baseline"}, _metrics())
        path = write_run_manifest(manifest, tmp_path / "sub" / "run.json")
        assert path.exists()
        assert json.loads(path.read_text()) == manifest

    def test_manifest_for_payload_end_to_end(self):
        from repro.experiments import RunScale, baseline, manifest_for_payload
        from repro.experiments.runner import run_workload
        from repro.workloads import workload

        result = run_workload(
            baseline(), workload("usr_1"), RunScale.tiny(), seed=11
        )
        manifest = manifest_for_payload(result.to_payload())
        assert manifest["config"]["seed"] == 11
        assert manifest["config"]["workload"]["name"] == "usr_1"
        assert manifest["metrics"]["read_response"]["count"] > 0
        assert "utilisation" in manifest
        assert "queue_wait" in manifest
        assert manifest["blocks"]["in_use"] > 0
        json.dumps(manifest)
