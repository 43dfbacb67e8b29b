"""Tests for the stage-attribution artifact (experiments.fig_breakdown)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import RunScale
from repro.experiments.fig_breakdown import (
    COMPONENTS,
    BreakdownCell,
    BreakdownResult,
    format_fig_breakdown,
)
from repro.experiments.artifacts import run_artifact
from repro.experiments.parallel import RunUnit, SweepExecutor, execute_unit
from repro.obs import Instruments
from repro.experiments.reporting import jsonable, manifest_for_payload
from repro.experiments.systems import ida


@pytest.fixture(scope="module")
def result():
    return run_artifact(
        "breakdown", scale=RunScale.tiny(), workload_names=["hm_1", "usr_1"]
    )


class TestRunFigBreakdown:
    def test_cells_cover_both_systems(self, result):
        assert result.system_names == ("baseline", "ida-e20")
        assert set(result.cells) == {"hm_1", "usr_1"}
        for per_system in result.cells.values():
            assert set(per_system) == {"baseline", "ida-e20"}

    def test_attribution_is_conservative(self, result):
        for per_system in result.cells.values():
            for cell in per_system.values():
                tolerance = max(
                    result.tolerance_us, 1e-9 * abs(cell.mean_response_us)
                )
                assert cell.residual_us <= tolerance
                assert cell.attributed_us == pytest.approx(
                    cell.mean_response_us, abs=2 * tolerance
                )

    def test_components_complete_and_positive_reads(self, result):
        for per_system in result.cells.values():
            for cell in per_system.values():
                assert set(cell.components_us) == set(COMPONENTS)
                assert cell.reads > 0

    def test_sense_and_wait_shrink_under_ida(self, result):
        # The paper's mechanism: IDA shortens senses directly and queue
        # wait indirectly; transfer / ECC / host overhead stay put.
        for workload in result.cells:
            saving = result.improvement_us(workload)
            assert saving["sense"] > 0.0
            assert saving["transfer"] == pytest.approx(0.0, abs=1e-6)
            assert saving["host_overhead"] == pytest.approx(0.0, abs=1e-6)

    def test_formatting_mentions_key_parts(self, result):
        report = format_fig_breakdown(result)
        assert "hm_1" in report
        assert "saved" in report
        assert "queue_wait_us" in report
        assert "mean improvement" in report

    def test_json_artifact_shape(self, result):
        artifact = jsonable(result)
        json.dumps(artifact, allow_nan=False)  # must be serialisable as-is
        assert artifact["cells"].keys() == {"hm_1", "usr_1"}
        for per_system in artifact["cells"].values():
            for cell in per_system.values():
                assert set(cell["components_us"]) == set(COMPONENTS)

    def test_unprofiled_payload_rejected(self):
        from repro.experiments.fig_breakdown import _attribution_cell

        unit = RunUnit(ida(0.2), "usr_1", RunScale.tiny())
        payload = execute_unit(unit)
        assert payload.telemetry["profile"] is None
        with pytest.raises(ValueError, match="no profile"):
            _attribution_cell(payload, "usr_1", 1e-6)


class TestImprovement:
    def make_result(self, base: float, variant: float) -> BreakdownResult:
        result = BreakdownResult(system_names=("baseline", "ida-e20"))
        result.cells["w"] = {
            "baseline": BreakdownCell(
                "w", "baseline", 10, base,
                {c: base / len(COMPONENTS) for c in COMPONENTS},
            ),
            "ida-e20": BreakdownCell(
                "w", "ida-e20", 10, variant,
                {c: variant / len(COMPONENTS) for c in COMPONENTS},
            ),
        }
        return result

    def test_mean_improvement_pct(self):
        assert self.make_result(100.0, 72.0).mean_improvement_pct() == (
            pytest.approx(28.0)
        )

    def test_zero_baseline_skipped(self):
        assert self.make_result(0.0, 72.0).mean_improvement_pct() == 0.0

    def test_improvement_us_per_component(self):
        saving = self.make_result(100.0, 50.0).improvement_us("w")
        for component in COMPONENTS:
            assert saving[component] == pytest.approx(10.0)


class TestProfileTransport:
    """RunUnit(instruments=Instruments(profile=True)) must survive the
    process-pool hop."""

    def test_inline_unit_carries_profile(self):
        unit = RunUnit(ida(0.2), "usr_1", RunScale.tiny(),
                       instruments=Instruments(profile=True))
        payload = execute_unit(unit)
        assert payload.telemetry["profile"] is not None
        assert payload.telemetry["profile"]["requests"]["read"]["count"] > 0

    def test_pool_payload_matches_inline(self):
        unit = RunUnit(ida(0.2), "usr_1", RunScale.tiny(),
                       instruments=Instruments(profile=True))
        inline = execute_unit(unit)
        pooled = SweepExecutor(jobs=2).map([unit, unit])[0]
        pooled_profile = pooled.telemetry["profile"]
        inline_profile = inline.telemetry["profile"]
        assert pooled_profile is not None
        assert pooled_profile["requests"] == inline_profile["requests"]
        assert pooled_profile["stages"] == inline_profile["stages"]

    def test_manifest_embeds_transported_profile(self):
        unit = RunUnit(ida(0.2), "usr_1", RunScale.tiny(),
                       instruments=Instruments(profile=True))
        payload = SweepExecutor(jobs=2).map([unit])[0]
        manifest = manifest_for_payload(payload, jobs=2)
        assert manifest["profile"]["requests"]["read"]["count"] > 0

    def test_run_fig_breakdown_through_pool(self):
        pooled = run_artifact(
            "breakdown",
            scale=RunScale.tiny(),
            workload_names=["usr_1"],
            executor=SweepExecutor(jobs=2),
        )
        inline = run_artifact(
            "breakdown", scale=RunScale.tiny(), workload_names=["usr_1"]
        )
        for system in pooled.system_names:
            assert (
                pooled.cells["usr_1"][system].components_us
                == inline.cells["usr_1"][system].components_us
            )
