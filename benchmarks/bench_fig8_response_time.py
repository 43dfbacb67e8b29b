"""Fig. 8 — the headline result: normalized read response vs error rate.

Paper: IDA-E20 improves mean read response by 28% on average (E0: 31%,
E50: 20.2%, E80: <7%); benefit decreases monotonically with E.
"""

from __future__ import annotations

from repro.experiments import format_fig8, run_artifact

from .conftest import bench_workloads, run_once


def test_fig8_error_rate_series(benchmark, macro_scale):
    result = run_once(
        benchmark,
        run_artifact,
        "fig8",
        macro_scale,
        bench_workloads(),
        error_rates=(0.0, 0.2, 0.5, 0.8),
    )
    print()
    print(format_fig8(result))
    e0 = result.average("ida-e0")
    e20 = result.average("ida-e20")
    e50 = result.average("ida-e50")
    e80 = result.average("ida-e80")
    # IDA wins at the paper's operating point...
    assert e20 < 1.0
    # ...the ideal system is the upper bound...
    assert e0 <= e20 + 0.02
    # ...and the benefit decays toward nothing as E grows.
    assert e0 < e80
    assert e50 <= e80 + 0.03
