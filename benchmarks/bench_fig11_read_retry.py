"""Fig. 11 — lifetime phases: IDA under read-retry.

Paper: 28% improvement early in the SSD lifetime grows to 42.3% late,
when LDPC read-retries multiply every page's memory-access time.
"""

from __future__ import annotations

from repro.experiments import format_fig11, run_artifact

from .conftest import bench_workloads, run_once


def test_fig11_lifetime_phases(benchmark, macro_scale):
    result = run_once(
        benchmark, run_artifact, "fig11", macro_scale, bench_workloads()
    )
    print()
    print(format_fig11(result))
    early = result.average("early")
    late = result.average("late")
    assert early < 1.0
    # Retries amplify the benefit (allow a little scheduling noise).
    assert late <= early + 0.02
