"""Table IV — voltage-adjustment overhead per refreshed block.

Paper (IDA-E20, 192-page blocks): ~113 valid pages per target block,
~58 extra reads (the reprogrammed-page integrity check), ~11 extra
writes (the 20% disturbed pages written back).
"""

from __future__ import annotations

import pytest

from repro.experiments import format_table4, run_artifact

from .conftest import bench_workloads, run_once


def test_table4_overheads(benchmark, macro_scale):
    result = run_once(
        benchmark, run_artifact, "table4", macro_scale, bench_workloads()
    )
    print()
    print(format_table4(result))
    for row in result.rows:
        assert row.refreshes > 0
        assert 60 < row.avg_valid_pages < 192
        # Extra reads ~ half the valid pages (the kept CSB/MSB pages).
        assert 0.25 * row.avg_valid_pages < row.avg_extra_reads < 0.8 * row.avg_valid_pages
        # Extra writes = E20 x extra reads.
        assert row.avg_extra_writes == pytest.approx(
            0.2 * row.avg_extra_reads, rel=0.35
        )
