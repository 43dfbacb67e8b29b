"""End-to-end fault injection through the simulator (repro.faults.injector)."""

from __future__ import annotations

from repro.core import conventional_tlc
from repro.faults import FaultEvent, FaultKind, FaultPlan, check_coding_invariants
from repro.flash.errors import ReadRetryModel
from repro.flash.geometry import Geometry
from repro.flash.timing import TimingSpec
from repro.ftl.refresh import RefreshMode, RefreshPolicy
from repro.sim.scheduler import HostRequest
from repro.sim.ssd import SsdSimulator

PAGE = 8192


def _geometry():
    return Geometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=12,
    )


def _simulator(plan, refresh_mode=RefreshMode.BASELINE, period_us=1e9, retry=None):
    return SsdSimulator(
        geometry=_geometry(),
        timing=TimingSpec.tlc_table2(),
        coding=conventional_tlc(),
        refresh_policy=RefreshPolicy(mode=refresh_mode, period_us=period_us),
        retry_model=retry,
        seed=5,
        faults=plan,
    )


def _read(rid, at_us, lpns):
    return HostRequest(rid, at_us, True, tuple(lpns), len(lpns) * PAGE)


def _write(rid, at_us, lpns):
    return HostRequest(rid, at_us, False, tuple(lpns), len(lpns) * PAGE)


class TestProgramFail:
    def test_inflight_page_replayed_and_block_retired(self):
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=2),)
        )
        sim = _simulator(plan)
        writes = [_write(i, 100.0 + i * 200.0, [i]) for i in range(8)]
        metrics = sim.run_requests(writes)
        assert metrics.program_failures == 1
        assert metrics.grown_bad_blocks == 1
        assert metrics.fault_page_moves >= 1
        # The replayed write still lands: every LPN written is mapped.
        for lpn in range(8):
            assert sim.ftl.map.lookup(lpn) is not None
        assert check_coding_invariants(sim.ftl) == []

    def test_ordinal_beyond_run_never_fires(self):
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=10_000),)
        )
        sim = _simulator(plan)
        metrics = sim.run_requests([_write(0, 100.0, [0])])
        assert metrics.program_failures == 0
        assert sim.fault_summary()["events"] == []


class TestEraseFail:
    def test_refresh_erase_failure_retires_block(self):
        # Baseline refresh migrates aged blocks and erases the sources;
        # the first erase is scripted to fail.
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.ERASE_FAIL, op_ordinal=1),)
        )
        sim = _simulator(plan, RefreshMode.BASELINE, period_us=1000.0)
        sim.preload(range(24), -2000.0, -1500.0)
        metrics = sim.run_requests(
            [_read(i, i * 500.0, [i % 24]) for i in range(20)]
        )
        assert metrics.block_erases > 0
        assert metrics.erase_failures == 1
        assert metrics.grown_bad_blocks == 1
        assert check_coding_invariants(sim.ftl) == []


class TestGrownBad:
    def test_live_data_migrates_and_block_stays_retired(self):
        # Preload fills blocks round-robin; retire block 0 mid-run.
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.GROWN_BAD, at_us=2_000.0, block=0),)
        )
        sim = _simulator(plan)
        sim.preload(range(24), -2000.0, -1500.0)
        metrics = sim.run_requests(
            [_read(i, 500.0 + i * 500.0, [i % 24]) for i in range(16)]
        )
        assert metrics.grown_bad_blocks == 1
        block, pool = None, None
        for candidate_pool in sim.ftl.table.planes:
            for in_plane in range(candidate_pool.total_blocks):
                if candidate_pool.block(in_plane).retired:
                    pool, block = candidate_pool, candidate_pool.block(in_plane)
        assert block is not None, "no block was retired"
        assert block.valid_count == 0
        # All preloaded LPNs remain readable after the migration.
        for lpn in range(24):
            assert sim.ftl.map.lookup(lpn) is not None
        assert check_coding_invariants(sim.ftl) == []

    def test_retired_block_is_not_reallocated(self):
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.GROWN_BAD, at_us=1_000.0, block=0),)
        )
        sim = _simulator(plan)
        sim.preload(range(8), -2000.0, -1500.0)
        # Heavy overwrite traffic after the retirement forces allocation
        # (and likely GC) — the retired block must never rejoin service.
        writes = [_write(i, 2_000.0 + i * 150.0, [i % 8]) for i in range(60)]
        sim.run_requests(writes)
        retired = [
            pool.block(in_plane)
            for pool in sim.ftl.table.planes
            for in_plane in range(pool.total_blocks)
            if pool.block(in_plane).retired
        ]
        assert len(retired) == 1
        assert retired[0].valid_count == 0
        assert check_coding_invariants(sim.ftl) == []


class TestUncorrectableRead:
    def test_forced_retry_exhaustion_and_relocation(self):
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.UNCORRECTABLE_READ, op_ordinal=1),)
        )
        retry = ReadRetryModel(fail_prob=0.0, max_retries=7)
        sim = _simulator(plan, retry=retry)
        sim.preload(range(4), -2000.0, -1500.0)
        metrics = sim.run_requests([_read(0, 100.0, [0]), _read(1, 5_000.0, [0])])
        assert metrics.uncorrectable_reads == 1
        # The forced read pays the whole retry ladder even though
        # fail_prob is zero.
        assert metrics.read_retries == retry.max_retries
        # The page was rebuilt and relocated; it is still mapped.
        assert sim.ftl.map.lookup(0) is not None
        assert check_coding_invariants(sim.ftl) == []

    def test_read_reclaim_threshold_triggers_migration(self):
        plan = FaultPlan(read_reclaim_threshold=4)
        retry = ReadRetryModel(fail_prob=0.9, max_retries=4)
        sim = _simulator(plan, retry=retry)
        sim.preload(range(4), -2000.0, -1500.0)
        reads = [_read(i, 100.0 + i * 300.0, [i % 4]) for i in range(40)]
        metrics = sim.run_requests(reads)
        assert metrics.read_retries > 4
        assert metrics.read_reclaims >= 1
        assert metrics.fault_page_moves >= 1
        assert check_coding_invariants(sim.ftl) == []


class TestDieFail:
    def test_die_leaves_allocation_and_data_survives(self):
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.DIE_FAIL, at_us=5_000.0, die=1),)
        )
        sim = _simulator(plan)
        sim.preload(range(24), -2000.0, -1500.0)
        requests = [_read(i, i * 500.0, [i % 24]) for i in range(20)] + [
            _write(100 + i, 11_000.0 + i * 100.0, [i]) for i in range(6)
        ]
        metrics = sim.run_requests(sorted(requests, key=lambda r: r.arrival_us))
        assert metrics.die_failures == 1
        # Writes after the die loss still succeed on surviving planes.
        for lpn in range(24):
            assert sim.ftl.map.lookup(lpn) is not None
        assert check_coding_invariants(sim.ftl) == []
        summary = sim.fault_summary()
        assert [e["kind"] for e in summary["events"]] == ["die_fail"]


class TestDeterminismAndSummary:
    def _run(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=2),
                FaultEvent(kind=FaultKind.UNCORRECTABLE_READ, op_ordinal=3),
                FaultEvent(kind=FaultKind.GROWN_BAD, at_us=2_000.0, block=3),
            ),
            read_reclaim_threshold=4,
            name="mixed",
        )
        sim = _simulator(plan, retry=ReadRetryModel(fail_prob=0.3))
        sim.preload(range(24), -2000.0, -1500.0)
        requests = [_write(i, 100.0 + i * 200.0, [i % 12]) for i in range(6)] + [
            _read(50 + i, 4_000.0 + i * 100.0, [i % 24]) for i in range(30)
        ]
        metrics = sim.run_requests(sorted(requests, key=lambda r: r.arrival_us))
        return metrics, sim.fault_summary(), check_coding_invariants(sim.ftl)

    def test_identical_runs_fire_identically(self):
        metrics_a, summary_a, violations_a = self._run()
        metrics_b, summary_b, violations_b = self._run()
        assert violations_a == violations_b == []
        assert summary_a == summary_b
        assert (
            metrics_a.read_response.summary() == metrics_b.read_response.summary()
        )

    def test_summary_shape(self):
        _, summary, _ = self._run()
        assert summary["plan"]["kind"] == "fault_plan"
        assert summary["plan"]["name"] == "mixed"
        fired = summary["fired"]
        assert fired["program_fail"] == 1
        assert fired["uncorrectable_read"] == 1
        assert fired["grown_bad"] == 1
        kinds = {event["kind"] for event in summary["events"]}
        assert {"program_fail", "uncorrectable_read", "grown_bad"} <= kinds
        for event in summary["events"]:
            assert event["t_us"] >= 0.0

    def test_no_plan_means_no_summary(self):
        sim = _simulator(None)
        sim.run_requests([_write(0, 100.0, [0])])
        assert sim.fault_summary() is None
