"""Smoke tests for the faults experiment artifact."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import RunScale
from repro.experiments.faults_artifact import (
    FaultsResult,
    format_faults,
    plan_for_cell,
    run_faults,
)
from repro.experiments.fig11_read_retry import DEFAULT_PHASES
from repro.experiments.reporting import jsonable

SCALE = RunScale.tiny()


@pytest.fixture(scope="module")
def result() -> FaultsResult:
    return run_faults(
        scale=SCALE,
        workload_names=["hm_1"],
        densities=(0, 2),
        seed=11,
    )


class TestPlanForCell:
    def test_density_zero_is_faults_off(self):
        assert plan_for_cell("hm_1", 0, 0, SCALE, 11) is None

    def test_cells_get_distinct_reproducible_plans(self):
        a = plan_for_cell("hm_1", 0, 2, SCALE, 11)
        b = plan_for_cell("hm_1", 0, 2, SCALE, 11)
        c = plan_for_cell("hm_1", 1, 2, SCALE, 11)
        d = plan_for_cell("hm_1", 0, 4, SCALE, 11)
        assert a == b
        assert a != c and a != d
        assert a.count.__self__ is a  # frozen plan, usable as shared key

    def test_density_scales_event_counts(self):
        plan = plan_for_cell("hm_1", 0, 2, SCALE, 11)
        assert len(plan) == 2 + 2 + 4 + 1  # grown, program, 2x reads, adjust
        assert plan.read_reclaim_threshold == 12


class TestRunFaults:
    def test_grid_is_complete(self, result):
        assert len(result.cells) == len(DEFAULT_PHASES) * 2
        for phase in DEFAULT_PHASES:
            for density in (0, 2):
                cell = result.cell("hm_1", phase.name, density)
                assert cell.baseline_rt_us > 0
                assert cell.ida_rt_us > 0

    def test_density_zero_runs_without_injector(self, result):
        for phase in DEFAULT_PHASES:
            cell = result.cell("hm_1", phase.name, 0)
            assert cell.baseline_fired == {}
            assert cell.ida_fired == {}
            assert cell.baseline_events == []

    def test_faulted_cells_record_fired_events(self, result):
        fired_any = False
        for phase in DEFAULT_PHASES:
            cell = result.cell("hm_1", phase.name, 2)
            assert set(cell.baseline_fired)  # injector ran: counts present
            fired_any = fired_any or sum(cell.baseline_fired.values()) > 0
        assert fired_any

    def test_average_covers_grid(self, result):
        for phase in DEFAULT_PHASES:
            for density in (0, 2):
                value = result.average(phase.name, density)
                assert value == result.cell("hm_1", phase.name, density).improvement_pct

    def test_missing_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell("hm_1", "early", 99)


class TestRendering:
    def test_format_has_density_columns(self, result):
        text = format_faults(result)
        assert "density=0" in text and "density=2" in text
        assert "hm_1" in text
        assert "average" in text

    def test_json_round_trips_and_carries_events(self, result):
        data = jsonable(result)
        assert json.loads(json.dumps(data, allow_nan=False)) == data
        assert data["densities"] == [0, 2]
        assert len(data["cells"]) == len(result.cells)
        faulted = [c for c in data["cells"] if c["density"] == 2]
        assert any(c["baseline_events"] for c in faulted)
