"""Extension — the QLC evaluation the paper leaves as future work.

Paper's prediction (Sec. V-G): IDA helps QLC more than TLC, and devices
with milder read variation (the 2-3-2 TLC coding) less.  Expected
ordering of average improvements: qlc > tlc > tlc232 > 0-ish.
"""

from __future__ import annotations

from repro.experiments import format_qlc, run_artifact

from .conftest import bench_workloads, run_once


def test_ext_qlc_ordering(benchmark, macro_scale):
    result = run_once(
        benchmark,
        run_artifact,
        "qlc",
        macro_scale,
        bench_workloads(),
        devices=("tlc", "qlc", "tlc232"),
    )
    print()
    print(format_qlc(result))
    assert result.average("qlc") > result.average("tlc") - 1.0
    assert result.average("qlc") > result.average("tlc232")
