"""Table V — IDA-E20 on an MLC device.

Paper: 14.9% average read response-time improvement on an MLC SSD
(65 / 115 us LSB / MSB reads) — significant, but lower than TLC's 28%
because MLC has only one slow page type and a narrower latency spread.

In this reproduction the MLC effect lands near zero (0-2%, inside
run-to-run noise — see EXPERIMENTS.md): with a single 50 us-slower page
type, the direct savings are a few microseconds per read against a
queue-dominated response.  The robust reproduced claim is the paper's
*ordering* — MLC benefits far less than TLC (and QLC more; see
``bench_ext_qlc_device``) — so this bench asserts MLC << TLC rather
than a sign that noise can flip.
"""

from __future__ import annotations

from repro.experiments import format_table5, run_artifact

from .conftest import bench_workloads, run_once


def test_table5_mlc(benchmark, macro_scale):
    result = run_once(
        benchmark,
        run_artifact,
        "table5",
        macro_scale,
        bench_workloads(),
        device="mlc",
    )
    print()
    print(format_table5(result))
    # No regression: the MLC device is never meaningfully hurt...
    assert result.average() > -2.5
    # ...and the improvement stays well below TLC's (paper: 14.9 vs 28).
    assert result.average() < 6.0
