"""Tests for the coding/recovery invariant checker (repro.faults.invariants).

The load-bearing case is the torn-reprogram invariant: an IDA adjustment
interrupted mid-refresh must resolve to the old or the new coding, never
the in-between :data:`~repro.flash.block.TORN_WL` state.
"""

from __future__ import annotations

from repro.core import conventional_tlc
from repro.faults import FaultEvent, FaultKind, FaultPlan, check_coding_invariants
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


def _ida_simulator(plan, period_us=1000.0):
    return SsdSimulator(
        geometry=_geometry(),
        timing=TimingSpec.tlc_table2(),
        coding=conventional_tlc(),
        refresh_policy=RefreshPolicy(mode=RefreshMode.IDA, period_us=period_us),
        seed=5,
        faults=plan,
    )


def _aged_reads(sim, n=20):
    sim.preload(range(24), -2000.0, -1500.0)
    return [
        HostRequest(i, i * 500.0, True, (i % 24,), PAGE) for i in range(n)
    ]


class TestCleanDevice:
    def test_healthy_run_has_no_violations(self):
        sim = _ida_simulator(None)
        sim.run_requests(_aged_reads(sim))
        assert check_coding_invariants(sim.ftl) == []


class TestTornWordlineDetection:
    def test_manually_torn_wordline_is_flagged(self):
        sim = _ida_simulator(None)
        sim.run_requests(_aged_reads(sim))
        block = sim.ftl.table.blocks[0]
        block.mark_wordline_torn(0)
        violations = check_coding_invariants(sim.ftl)
        assert any("left torn" in v for v in violations)

    def test_uncommitted_journal_intent_is_flagged(self):
        sim = _ida_simulator(None)
        sim.run_requests(_aged_reads(sim))
        sim.ftl.enable_fault_recovery()
        sim.ftl.table.blocks[0].journal_adjust(0, 1, (1, 2))
        violations = check_coding_invariants(sim.ftl)
        assert any("uncommitted adjust-journal intent" in v for v in violations)

    def test_journal_row_is_flagged_without_a_fault_plan(self):
        """Every ADJUST writes its on-flash row, fault plan or not, so the
        check reads the rows of any FTL."""
        sim = _ida_simulator(None)
        sim.run_requests(_aged_reads(sim))
        assert check_coding_invariants(sim.ftl) == []
        sim.ftl.table.blocks[3].journal_adjust(2, 1, (7, 8))
        assert check_coding_invariants(sim.ftl) == [
            "uncommitted adjust-journal intent for block 3 wordline 2"
        ]
        sim.ftl.commit_adjust(3, 2)
        assert check_coding_invariants(sim.ftl) == []


class TestMappingDetection:
    """The OOB column is the map's reverse direction, so the checker
    pins that every mapped LPN's page is VALID and names that LPN."""

    def _run(self):
        sim = _ida_simulator(None)
        sim.run_requests(_aged_reads(sim))
        assert check_coding_invariants(sim.ftl) == []
        return sim

    def test_corrupted_oob_row_is_flagged(self):
        sim = self._run()
        ppn = sim.ftl.map.lookup(3)
        sim.ftl.table.state.oob_lpn[ppn] = 17
        assert check_coding_invariants(sim.ftl) == [
            f"LPN 3 maps to PPN {ppn} whose OOB record holds LPN 17"
        ]

    def test_stale_forward_entry_is_flagged(self):
        sim = self._run()
        ppn = sim.ftl.map.lookup(4)
        sim.ftl.map._forward[3] = ppn
        assert check_coding_invariants(sim.ftl) == [
            f"LPN 3 maps to PPN {ppn} whose OOB record holds LPN 4"
        ]

    def test_forward_entry_to_an_invalid_page_is_flagged(self):
        sim = self._run()
        old_ppn = sim.ftl.map.lookup(3)
        sim.ftl.host_write(3, 0.0)
        sim.ftl.map._forward[3] = old_ppn
        assert check_coding_invariants(sim.ftl) == [
            f"LPN 3 maps to PPN {old_ppn} whose page state is INVALID, "
            "not VALID"
        ]


class TestPoolDetection:
    """The pool state kept in RAM (free list, open block) must agree with
    the columns, and retired blocks must hold no live data."""

    def _run(self):
        sim = _ida_simulator(None)
        sim.run_requests(_aged_reads(sim))
        assert check_coding_invariants(sim.ftl) == []
        return sim, sim.ftl.table.planes[1]

    def test_retired_blocks_with_live_data_are_flagged_in_block_order(self):
        sim, pool = self._run()
        # Plane 1 holds blocks 8..15: in-plane 1 and 2 carry live pages.
        pool.block(2).retired = True
        sim.ftl.table.blocks[1].retired = True
        assert check_coding_invariants(sim.ftl) == [
            "retired block 1 still holds 6 valid pages",
            "retired block 10 still holds 5 valid pages",
            "open block 10 is retired",
        ]

    def test_free_list_entries_are_checked(self):
        sim, pool = self._run()
        pool.free.append(3)
        pool.free.append(0)
        pool.block(4).retired = True
        assert check_coding_invariants(sim.ftl) == [
            "free block 11 is listed more than once",
            "free block 8 is not erased",
            "free block 12 is retired",
        ]

    def test_open_block_on_the_free_list_is_flagged(self):
        sim, pool = self._run()
        pool.free.appendleft(pool.active)
        assert check_coding_invariants(sim.ftl) == [
            "free block 10 is not erased",
            "open block 10 is on the free list",
        ]

    def test_full_open_block_is_flagged(self):
        sim, pool = self._run()
        block = pool.block(pool.active)
        while not block.is_full:
            block.program_next(0.0)
        assert check_coding_invariants(sim.ftl) == ["open block 10 is full"]


class TestAdjustInterruptRecovery:
    def test_interrupted_adjust_rolls_forward(self):
        """ISSUE 5 acceptance: the torn-reprogram invariant holds under an
        injected mid-refresh interruption."""
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.ADJUST_INTERRUPT, op_ordinal=1),)
        )
        sim = _ida_simulator(plan)
        metrics = sim.run_requests(_aged_reads(sim))
        # The IDA refresh actually adjusted wordlines, the scripted
        # interruption hit one of them, and recovery resolved it.
        assert metrics.refresh_adjusted_wordlines > 0
        assert metrics.torn_adjust_recoveries == 1
        assert sim.fault_summary()["fired"]["adjust_interrupt"] == 1
        assert check_coding_invariants(sim.ftl) == []

    def test_every_interrupt_in_ladder_recovers(self):
        plan = FaultPlan(
            events=tuple(
                FaultEvent(kind=FaultKind.ADJUST_INTERRUPT, op_ordinal=i)
                for i in range(1, 4)
            )
        )
        sim = _ida_simulator(plan)
        metrics = sim.run_requests(_aged_reads(sim, n=30))
        summary = sim.fault_summary()
        fired = summary["fired"]["adjust_interrupt"]
        assert fired >= 1
        # Each interrupt either rolled the wordline forward or found its
        # intent superseded (block erased while the op was in flight) —
        # never a torn wordline at rest either way.
        assert metrics.torn_adjust_recoveries <= fired
        assert check_coding_invariants(sim.ftl) == []
        recoveries = [
            e for e in summary["events"] if e["kind"] == "adjust_interrupt"
        ]
        assert len(recoveries) == fired
        assert all(e["wordline"] >= 0 for e in recoveries)
