"""Fig. 10 — device throughput under IDA-E20 (closed loop).

Paper: +10% average throughput; every workload gains.
"""

from __future__ import annotations

from repro.experiments import format_fig10, run_artifact

from .conftest import bench_workloads, run_once


def test_fig10_throughput(benchmark, macro_scale):
    result = run_once(
        benchmark, run_artifact, "fig10", macro_scale, bench_workloads()
    )
    print()
    print(format_fig10(result))
    assert result.average() > 1.0
