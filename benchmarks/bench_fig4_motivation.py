"""Fig. 4 — read-mix and invalid-lower-page exposure (the motivation).

Paper: reads spread evenly over LSB/CSB/MSB; ~18% of CSB reads and ~30%
of MSB reads find their lower pages invalid.
"""

from __future__ import annotations

from repro.experiments import format_fig4, run_artifact

from .conftest import bench_workloads, run_once


def test_fig4_read_mix(benchmark, macro_scale):
    result = run_once(
        benchmark,
        run_artifact,
        "fig4",
        macro_scale,
        bench_workloads(),
        include_extra=False,
    )
    print()
    print(format_fig4(result))
    for row in result.main:
        # Page types are roughly evenly hit.
        assert 0.15 < row.lsb_share < 0.55
        assert 0.15 < row.msb_share < 0.55
        # The IDA opportunity exists everywhere.
        assert row.msb_with_invalid_lower > 0.05
