"""Smoke tests for every artifact harness at tiny scale.

Each paper artifact must plan, run and reduce end to end through
``run_artifact`` and its formatter must produce a table; shape
assertions are kept loose here (the integration suite asserts the
paper-level trends at a larger scale).
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    format_ablation,
    format_fig4,
    format_fig8,
    format_fig9,
    format_fig10,
    format_fig11,
    format_qlc,
    format_table3,
    format_table4,
    format_table5,
    run_artifact,
)

WORKLOADS = ["usr_1"]


class TestFig4:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("fig4", quick_scale, WORKLOADS, include_extra=False)
        assert len(result.main) == 1
        row = result.main[0]
        assert row.lsb_share + row.csb_share + row.msb_share == pytest.approx(1.0)
        assert 0.0 < row.msb_with_invalid_lower < 1.0
        assert "usr_1" in format_fig4(result)


class TestFig8:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("fig8", quick_scale, WORKLOADS, error_rates=(0.0, 0.5))
        assert set(result.normalized["usr_1"]) == {"ida-e0", "ida-e50"}
        text = format_fig8(result)
        assert "ida-e0" in text and "average" in text

    def test_average_of_missing_system_is_a_clear_error(self, quick_scale):
        result = run_artifact("fig8", quick_scale, WORKLOADS, error_rates=(0.2,))
        with pytest.raises(KeyError, match="ida-e80.*usr_1"):
            result.average("ida-e80")


class TestFig9:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("fig9", quick_scale, WORKLOADS, dtr_values=(30.0, 70.0))
        assert set(result.normalized["usr_1"]) == {30.0, 70.0}
        assert "dtR=30us" in format_fig9(result)


class TestFig10:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("fig10", quick_scale, WORKLOADS, queue_depth=8)
        assert result.baseline_mb_s["usr_1"] > 0
        assert result.normalized["usr_1"] > 0
        assert "usr_1" in format_fig10(result)


class TestFig11:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("fig11", quick_scale, WORKLOADS)
        assert set(result.normalized["usr_1"]) == {"early", "late"}
        assert "early" in format_fig11(result)


class TestTable3:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("table3", quick_scale, WORKLOADS)
        row = result.rows[0]
        assert row.read_ratio_pct == pytest.approx(row.paper[0], abs=3.0)
        assert "usr_1" in format_table3(result)


class TestTable4:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("table4", quick_scale, WORKLOADS)
        row = result.rows[0]
        assert row.refreshes > 0
        assert 0 < row.avg_valid_pages <= 192
        # Structural relations: extra reads ~ kept pages; extra writes =
        # E20 of the kept pages.
        assert 0 < row.avg_extra_reads < row.avg_valid_pages
        assert row.avg_extra_writes == pytest.approx(
            row.avg_extra_reads * 0.2, rel=0.35
        )
        assert "usr_1" in format_table4(result)


class TestTable5:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("table5", quick_scale, WORKLOADS, device="mlc")
        assert "usr_1" in result.improvement_pct
        assert "MLC" in format_table5(result)


class TestQlcExtension:
    def test_runs_and_formats(self, quick_scale):
        result = run_artifact("qlc", quick_scale, WORKLOADS, devices=("qlc",))
        assert result.average("qlc") != 0.0
        assert "qlc" in format_qlc(result)


class TestAblation:
    def test_adjust_cost_runs(self, quick_scale):
        result = run_artifact("ablation-adjust", quick_scale, WORKLOADS, fractions=(1.0,))
        assert "adjust=1x" in result.improvement_pct
        assert "Ablation" in format_ablation(result)
