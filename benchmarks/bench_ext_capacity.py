"""Extension — the Sec. III-C capacity / GC-cost claims.

Paper: IDA grows the in-use block census by only 2-4% of the device, and
a write-intensive follow-up phase sees GC invocations / erases rise by at
most ~3% — IDA blocks are reclaimed promptly.
"""

from __future__ import annotations

from repro.experiments import SUBSET_WORKLOADS, run_artifact
from repro.experiments.capacity_analysis import format_capacity

from .conftest import run_once

WORKLOADS = list(SUBSET_WORKLOADS)


def test_ext_capacity(benchmark, macro_scale):
    results = run_once(
        benchmark, run_artifact, "capacity", macro_scale, WORKLOADS
    )
    print()
    print(format_capacity(results))
    for result in results:
        # Bounded census growth (scaled device => looser bound than the
        # paper's 2-4%, but the same order).
        assert result.in_use_increase_fraction() < 0.25
        # The write phase must not blow up erase counts.
        assert result.erase_increase_fraction() < 0.30
