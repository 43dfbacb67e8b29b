"""Read-first ordering at a contended die (Table II scheduling).

End-to-end checks through the full simulator (FTL dispatch -> policy ->
pipeline -> resources): a queued host read overtakes queued host writes
*and* queued internal refresh traffic, while the operation already in
service is never suspended (scheduling is non-preemptive).
"""

from __future__ import annotations

import pytest

from repro.core import conventional_tlc
from repro.flash.geometry import Geometry
from repro.flash.timing import TimingSpec
from repro.ftl.refresh import RefreshMode, RefreshPolicy
from repro.obs import MemorySink, Telemetry, Tracer
from repro.sim.resources import IoPriority
from repro.sim.scheduler import HostRequest
from repro.sim.ssd import SsdSimulator


def _single_die_sim(policy="read-first", tracer=None):
    # One channel, one die: every op contends for the same resources.
    geometry = Geometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=12,
    )
    return SsdSimulator(
        geometry=geometry,
        timing=TimingSpec.tlc_table2(),
        coding=conventional_tlc(),
        refresh_policy=RefreshPolicy(mode=RefreshMode.BASELINE, period_us=1e9),
        seed=5,
        policy=policy,
        telemetry=Telemetry(tracer=tracer),
    )


def _read(request_id, time, lpns, page_bytes=8192):
    return HostRequest(request_id, time, True, tuple(lpns), len(lpns) * page_bytes)


def _write(request_id, time, lpns, page_bytes=8192):
    return HostRequest(request_id, time, False, tuple(lpns), len(lpns) * page_bytes)


class TestReadFirstOrdering:
    def test_queued_read_overtakes_queued_write(self):
        # t=0: write W0 (channel transfer, then die busy until 2348).
        # t=10: write W1 transfers and queues its program behind W0's.
        # t=100: read R queues at the busy die, behind W1's program.
        # Read-first: R's sense runs before W1's program.
        sim = _single_die_sim()
        sim.preload([0, 1, 2, 3], -100.0, 0.0)
        metrics = sim.run_requests(
            [
                _write(0, 0.0, [1]),
                _write(1, 10.0, [2]),
                _read(2, 100.0, [0]),
            ]
        )
        timing = sim.timing
        w0_end = timing.transfer_us + timing.program_us  # 2348
        # R waits for W0's program, then senses immediately: response =
        # (w0_end - arrival) + sense + transfer + ecc + host.
        expected_read = (
            (w0_end - 100.0)
            + timing.read_us(1)
            + timing.transfer_us
            + timing.ecc_decode_us
            + timing.host_overhead_us
        )
        assert metrics.read_response.mean_us == pytest.approx(expected_read)
        # W1 programs only after R's sense released the die.
        w1_program_start = w0_end + timing.read_us(1)
        expected_w1 = (
            w1_program_start + timing.program_us + timing.host_overhead_us - 10.0
        )
        assert metrics.write_response.max_us == pytest.approx(expected_w1)

    def test_in_service_op_is_never_suspended(self):
        # The read arrives mid-way into W0's 2.3 ms program (which began
        # at t=48, after the channel transfer); non-preemptive scheduling
        # means it cannot start before the program finishes.
        sim = _single_die_sim()
        sim.preload([0, 1], -100.0, 0.0)
        metrics = sim.run_requests([_write(0, 0.0, [1]), _read(1, 100.0, [0])])
        timing = sim.timing
        w0_end = timing.transfer_us + timing.program_us
        min_response = (
            (w0_end - 100.0)
            + timing.read_us(1)
            + timing.transfer_us
            + timing.ecc_decode_us
            + timing.host_overhead_us
        )
        assert metrics.read_response.mean_us == pytest.approx(min_response)

    def test_read_overtakes_queued_internal_refresh_traffic(self):
        # Saturate the die with a chained internal sequence, then land a
        # host read: under read-first it waits out at most the op in
        # service, not the whole chain.
        sink = MemorySink()
        sim = _single_die_sim(tracer=Tracer(sink))
        sim.preload([0], -100.0, 0.0)
        from repro.ftl.ops import OpKind, PhysOp

        internal = [
            PhysOp(kind=OpKind.ERASE, block_index=b, page=None, senses=0)
            for b in range(4, 8)
        ]
        sim.engine.at(0.0, lambda: sim.issue_internal_sequence(internal))
        metrics = sim.run_requests([_read(0, 10.0, [0])])
        timing = sim.timing
        # The chain issues erase #2 the instant #1 completes — but the
        # read queued meanwhile wins the die first.
        expected = (
            (timing.erase_us - 10.0)
            + timing.read_us(1)
            + timing.transfer_us
            + timing.ecc_decode_us
            + timing.host_overhead_us
        )
        assert metrics.read_response.mean_us == pytest.approx(expected)

    def test_fcfs_makes_the_same_read_wait_out_the_whole_backlog(self):
        # Control arm: under FCFS the read queues behind both writes.
        sim = _single_die_sim(policy="fcfs")
        sim.preload([0, 1, 2, 3], -100.0, 0.0)
        metrics = sim.run_requests(
            [
                _write(0, 0.0, [1]),
                _write(1, 10.0, [2]),
                _read(2, 100.0, [0]),
            ]
        )
        timing = sim.timing
        w0_end = timing.transfer_us + timing.program_us
        w1_end = w0_end + timing.program_us  # transfer overlapped W0
        expected_read = (
            (w1_end - 100.0)
            + timing.read_us(1)
            + timing.transfer_us
            + timing.ecc_decode_us
            + timing.host_overhead_us
        )
        assert metrics.read_response.mean_us == pytest.approx(expected_read)


class TestQueueWaitAttribution:
    def test_die_wait_lands_on_the_waiting_class(self):
        sim = _single_die_sim()
        sim.preload([0, 1], -100.0, 0.0)
        sim.run_requests([_write(0, 0.0, [1]), _read(1, 100.0, [0])])
        stats = sim.queue_wait_report()["die"]
        assert stats["host_read"]["ops"] == 1
        assert stats["host_read"]["total_wait_us"] > 0.0
        assert stats["host_write"]["total_wait_us"] == 0.0
        assert IoPriority.HOST_READ < IoPriority.HOST_WRITE  # sanity
