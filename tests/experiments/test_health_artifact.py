"""Tests for the health artifact (repro.experiments.health_artifact)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import RunScale
from repro.experiments.faults_artifact import plan_for_cell
from repro.experiments.fig11_read_retry import DEFAULT_PHASES
from repro.experiments.health_artifact import (
    format_health,
    health_objectives,
    health_to_prometheus,
)
from repro.experiments.artifacts import run_artifact
from repro.experiments.parallel import SweepExecutor
from repro.experiments.reporting import SCHEMA_VERSION, jsonable, manifest_for_run
from repro.experiments.runner import run_workload
from repro.experiments.systems import ida
from repro.obs import Instruments
from repro.obs.tracer import read_jsonl_trace
from repro.workloads import workload


def health_scale() -> RunScale:
    return RunScale.tiny()


@pytest.fixture(scope="module")
def artifact(request):
    return run_artifact("health", scale=health_scale(), workload_names=["hm_1"])


class TestObjectives:
    def test_windowed_to_duration(self):
        retry, p99 = health_objectives(4_000_000.0)
        assert retry.metric == "read_retry_rate"
        assert retry.window_us == 1_000_000.0
        assert p99.metric == "read_p99_us"
        assert p99.window_us == 1_000_000.0


class TestArtifactStructure:
    def test_full_grid_of_cells(self, artifact):
        assert artifact.workloads == ["hm_1"]
        assert len(artifact.cells) == 4
        combos = {(c.system, c.condition) for c in artifact.cells}
        assert combos == {
            ("baseline", "healthy"),
            ("baseline", "faulted"),
            ("ida-e20", "healthy"),
            ("ida-e20", "faulted"),
        }

    def test_cell_lookup(self, artifact):
        cell = artifact.cell("hm_1", "ida-e20", "faulted")
        assert cell.condition == "faulted"
        with pytest.raises(KeyError):
            artifact.cell("hm_1", "ida-e20", "nope")

    def test_every_cell_carries_full_health_payload(self, artifact):
        for cell in artifact.cells:
            assert cell.series, cell
            assert cell.health["registry"]["metrics"]
            assert cell.slo["objectives"]
            assert cell.mean_read_us > 0

    def test_faulted_cells_breach_healthy_cells_do_not(self, artifact):
        # The acceptance scenario: the retry-rate SLO discriminates the
        # late-lifetime faulted device from the healthy one.
        for cell in artifact.cells:
            if cell.condition == "healthy":
                assert cell.breaches == 0, cell
            else:
                assert cell.breaches >= 1, cell

    def test_faulted_cells_record_retries(self, artifact):
        for condition, op in (("healthy", int.__eq__), ("faulted", int.__lt__)):
            for system in ("baseline", "ida-e20"):
                cell = artifact.cell("hm_1", system, condition)
                assert op(0, cell.summary["read_retries"]) or (
                    condition == "healthy"
                    and cell.summary["read_retries"] == 0
                )


class TestExports:
    def test_format_health_renders_table_and_sparklines(self, artifact):
        text = format_health(artifact)
        assert "SLO breaches" in text
        assert "hm_1/ida-e20/faulted" in text
        assert "retry-rate [" in text
        assert "read-p99" in text

    def test_json_export_roundtrips(self, artifact):
        payload = jsonable(artifact)
        assert len(payload["cells"]) == 4
        restored = json.loads(json.dumps(payload))
        assert restored == payload

    def test_prometheus_export_labels_every_cell(self, artifact):
        text = health_to_prometheus(artifact)
        assert text.count("# TYPE device_wear_p99_erases gauge") == 1
        for cell in artifact.cells:
            needle = (
                f'condition="{cell.condition}",system="{cell.system}",'
                f'workload="{cell.workload}"'
            )
            assert needle in text, needle


class TestJobsParity:
    def test_health_series_identical_inline_vs_pool(self, artifact):
        pooled = run_artifact(
            "health",
            scale=health_scale(),
            workload_names=["hm_1"],
            executor=SweepExecutor(jobs=4),
        )
        assert json.dumps(jsonable(pooled), sort_keys=True) == json.dumps(
            jsonable(artifact), sort_keys=True
        )


class TestEndToEndBreach:
    def test_breach_reaches_tracer_and_manifest(self, tmp_path):
        # One faulted IDA run with everything attached: the SLO breach
        # must appear in the registry-backed payload, in the trace as an
        # ``slo_breach`` event, and in the run manifest.
        scale = health_scale()
        name = "hm_1"
        spec = workload(name).scaled(scale.num_requests, scale.footprint_pages)
        late = DEFAULT_PHASES[1]
        plan = plan_for_cell(name, 1, 4, scale, 11)
        trace_path = tmp_path / "trace.jsonl"
        telemetry = Instruments(
            trace_path=str(trace_path),
            health=True,
            slo=health_objectives(spec.duration_us),
        ).build(spec.duration_us)
        monitor = telemetry.health
        result = run_workload(
            ida(0.2).with_retry(late.retry_fail_prob),
            workload(name),
            scale,
            faults=plan,
            telemetry=telemetry,
        )
        telemetry.close()

        assert monitor.slo.breach_count >= 1
        events = [
            e for e in read_jsonl_trace(trace_path) if e["kind"] == "slo_breach"
        ]
        assert len(events) == monitor.slo.breach_count
        assert events[0]["objective"] in ("read-retry-rate", "read-p99")

        manifest = manifest_for_run(result)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["health"]["slo"]["breaches"] == monitor.slo.breach_count
        assert manifest["health"]["summary"]["read_retries"] > 0
        json.dumps(manifest)
