"""Tests for the Sec. III-C capacity analysis harness."""

from __future__ import annotations

import pytest

from repro.experiments.capacity_analysis import (
    CapacityResult,
    CapacityRow,
    format_capacity,
    run_capacity_analysis,
)


class TestCapacityRows:
    def test_in_use_fraction(self):
        row = CapacityRow("baseline", 50, 0, 200, 3, 3)
        assert row.in_use_fraction == pytest.approx(0.25)

    def test_increase_fractions(self):
        result = CapacityResult(
            workload="w",
            rows=[
                CapacityRow("baseline", 100, 0, 1000, 10, 20),
                CapacityRow("ida-e20", 120, 60, 1000, 8, 22),
            ],
        )
        assert result.in_use_increase_fraction() == pytest.approx(0.02)
        assert result.erase_increase_fraction() == pytest.approx(0.1)

    def test_zero_baseline_erases(self):
        result = CapacityResult(
            workload="w",
            rows=[
                CapacityRow("baseline", 100, 0, 1000, 0, 0),
                CapacityRow("ida-e20", 110, 50, 1000, 0, 0),
            ],
        )
        assert result.erase_increase_fraction() == 0.0

    def test_row_lookup_raises_on_unknown(self):
        result = CapacityResult(workload="w", rows=[])
        with pytest.raises(KeyError):
            result.row("baseline")


class TestEndToEnd:
    def test_quick_run(self, quick_scale):
        results = run_capacity_analysis(quick_scale, ["proj_3"])
        (result,) = results
        base = result.row("baseline")
        variant = result.row("ida-e20")
        assert base.ida_blocks == 0
        assert variant.ida_blocks > 0
        # Bounded census change either way, never explosive.
        assert abs(result.in_use_increase_fraction()) < 0.3
        text = format_capacity(results)
        assert "proj_3" in text and "baseline" in text


class TestPhasePairPin:
    def test_ida_census_pinned(self):
        # The follow-up write phase goes through the bulk untimed write
        # path; this census was captured when it still looped one
        # ``write_untimed`` call per LPN, so the two paths must agree.
        from repro.experiments.config import RunScale
        from repro.experiments.runner import CapacityCensus, run_capacity_phase_pair
        from repro.experiments.systems import ida
        from repro.workloads import workload

        census = run_capacity_phase_pair(
            ida(0.2), workload("proj_4"), RunScale.tiny(), seed=11
        )
        assert census == CapacityCensus(
            in_use_blocks=36,
            ida_blocks=16,
            total_blocks=48,
            gc_invocations=24,
            block_erases=24,
        )
