"""Parallel-vs-sequential parity, pinned against the sequential golden.

The executor's determinism contract is *exact equality*: a pool run must
reproduce the sequential numbers bit-for-bit, not approximately.  Two
pins enforce it:

* pool payloads compared field-by-field against the same
  ``tests/golden/fig8_tiny.json`` snapshots the sequential simulator is
  pinned to — so a parallel run is transitively pinned to the
  pre-pipeline float;
* a full ``run_fig8`` sweep at ``jobs=1`` vs ``jobs=2`` must render
  byte-identical output and carry exactly equal normalised curves.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import RunScale
from repro.experiments.fig8_response_time import format_fig8, run_fig8
from repro.experiments.parallel import RunUnit, SweepExecutor
from repro.experiments.systems import baseline, ida
from repro.faults import FaultPlan

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fig8_tiny.json"
TRACES = ("hm_1", "proj_1", "usr_1")
SYSTEMS = {"baseline": baseline(), "ida-e20": ida(0.2)}
SEED = 11


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pool_payloads() -> dict:
    """All (trace, system) cells executed once on a 2-worker pool."""
    cells = [
        (trace, name) for trace in TRACES for name in sorted(SYSTEMS)
    ]
    units = [
        RunUnit(SYSTEMS[name], trace, RunScale.tiny(), seed=SEED)
        for trace, name in cells
    ]
    payloads = SweepExecutor(jobs=2).map(units)
    return dict(zip(cells, payloads))


@pytest.mark.parametrize("trace", TRACES)
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_pool_payload_matches_golden_exactly(
    golden: dict, pool_payloads: dict, trace: str, system_name: str
) -> None:
    expected = golden[trace][system_name]
    payload = pool_payloads[(trace, system_name)]
    actual = json.loads(
        json.dumps(
            {
                "read": payload.read_response,
                "write": payload.write_response,
                "elapsed_us": payload.elapsed_us,
                "block_erases": payload.counters["block_erases"],
                "refresh_page_moves": payload.counters["refresh_page_moves"],
                "read_retries": payload.counters["read_retries"],
            }
        )
    )
    assert actual == {
        "read": expected["read"],
        "write": expected["write"],
        "elapsed_us": expected["elapsed_us"],
        "block_erases": expected["block_erases"],
        "refresh_page_moves": expected["refresh_page_moves"],
        "read_retries": expected["read_retries"],
    }


def test_fig8_sweep_parity_across_job_counts() -> None:
    kwargs = dict(
        scale=RunScale.tiny(),
        workload_names=["hm_1", "usr_1"],
        error_rates=(0.2,),
        seed=SEED,
    )
    sequential = run_fig8(executor=SweepExecutor(jobs=1), **kwargs)
    parallel = run_fig8(executor=SweepExecutor(jobs=2), **kwargs)
    assert parallel.normalized == sequential.normalized
    assert format_fig8(parallel) == format_fig8(sequential)


def test_fault_injection_parity_across_job_counts() -> None:
    """ISSUE 5 acceptance: same seed + same FaultPlan, inline vs --jobs 4,
    yields byte-identical metrics *and* fault-event streams."""
    scale = RunScale.tiny()
    plan = FaultPlan.generate(
        seed=23,
        duration_us=50_000.0,
        total_blocks=scale.blocks_per_plane * scale.channels * 4,
        program_fails=2,
        grown_bad=2,
        uncorrectable_reads=3,
        adjust_interrupts=1,
        max_program_ordinal=scale.num_requests // 2,
        max_read_ordinal=scale.num_requests,
        read_reclaim_threshold=12,
        name="parity",
    )
    units = [
        RunUnit(SYSTEMS[name], trace, scale, seed=SEED, faults=plan)
        for trace in ("hm_1", "usr_1")
        for name in sorted(SYSTEMS)
    ]
    inline = SweepExecutor(jobs=1).map(units)
    pooled = SweepExecutor(jobs=4).map(units)
    for seq, par in zip(inline, pooled):
        assert json.dumps(seq.metrics_summary(), sort_keys=True) == json.dumps(
            par.metrics_summary(), sort_keys=True
        )
        assert seq.faults is not None and par.faults is not None
        assert json.dumps(seq.faults, sort_keys=True) == json.dumps(
            par.faults, sort_keys=True
        )
        # The plan actually bit: at least one unit fired something.
    assert any(
        sum(payload.faults["fired"].values()) > 0 for payload in inline
    )
