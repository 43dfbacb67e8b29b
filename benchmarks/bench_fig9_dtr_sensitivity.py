"""Fig. 9 — device sensitivity: benefit vs the read-latency step dtR.

Paper: IDA-E20 improves read response by 14% at dtR=30us, 28% at 50us,
49% at 70us — monotone in dtR.
"""

from __future__ import annotations

from repro.experiments import format_fig9, run_artifact

from .conftest import bench_workloads, run_once


def test_fig9_dtr_series(benchmark, macro_scale):
    result = run_once(
        benchmark,
        run_artifact,
        "fig9",
        macro_scale,
        bench_workloads(),
        dtr_values=(30.0, 50.0, 70.0),
    )
    print()
    print(format_fig9(result))
    assert result.average(70.0) <= result.average(30.0) + 0.02
    assert result.average(50.0) < 1.0
