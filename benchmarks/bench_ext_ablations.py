"""Extension — ablations of the design choices DESIGN.md calls out.

* Adjustment cost: the paper charges a full program per wordline but
  argues ~0.5x is achievable; the cheaper charge should not hurt.
* Refresh frequency: more cycles per trace = more conversion
  opportunities (and more refresh overhead) — the bench reports the
  trade-off curve.
* Allocation strategy: the IDA benefit should survive a different
  stripe order (it is a coding effect, not an allocation artifact).
"""

from __future__ import annotations

from repro.experiments import SUBSET_WORKLOADS, format_ablation, run_artifact

from .conftest import run_once

WORKLOADS = list(SUBSET_WORKLOADS)


def test_ablation_adjust_cost(benchmark, macro_scale):
    result = run_once(
        benchmark, run_artifact, "ablation-adjust", macro_scale, WORKLOADS,
        fractions=(0.5, 1.0),
    )
    print()
    print(format_ablation(result))
    # The cheaper (proportional) charge should be at least as good.
    assert result.average("adjust=0.5x") >= result.average("adjust=1x") - 2.0


def test_ablation_refresh_frequency(benchmark, macro_scale):
    result = run_once(
        benchmark, run_artifact, "ablation-refresh", macro_scale, WORKLOADS,
        cycles=(1.5, 3.0),
    )
    print()
    print(format_ablation(result))
    assert result.improvement_pct  # report-only: the curve is the artifact


def test_ablation_allocation(benchmark, macro_scale):
    result = run_once(
        benchmark, run_artifact, "ablation-alloc", macro_scale, WORKLOADS,
        strategies=("cwdp", "pdwc"),
    )
    print()
    print(format_ablation(result))
    # IDA helps under both stripe orders.
    assert result.average("alloc=cwdp") > -2.0
    assert result.average("alloc=pdwc") > -2.0
