"""Table III — workload characteristics of the synthetic clones.

Each clone's measured read ratio / read size / read-data ratio must land
on its paper row (they are generator inputs); the invalid-MSB exposure is
an emergent property and must land in the right ballpark.
"""

from __future__ import annotations

import pytest

from repro.experiments import format_table3, run_artifact

from .conftest import bench_workloads, run_once


def test_table3_characteristics(benchmark, macro_scale):
    result = run_once(
        benchmark, run_artifact, "table3", macro_scale, bench_workloads()
    )
    print()
    print(format_table3(result))
    for row in result.rows:
        assert row.read_ratio_pct == pytest.approx(row.paper[0], abs=3.0)
        assert row.read_size_kb == pytest.approx(row.paper[1], rel=0.25)
        # Exposure: right order of magnitude (it is emergent, not dialed).
        assert row.msb_invalid_pct > 0.25 * row.paper[3]
