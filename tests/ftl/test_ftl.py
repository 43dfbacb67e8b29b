"""Tests for the FTL orchestrator (repro.ftl.ftl)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import conventional_tlc
from repro.flash.geometry import Geometry
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GcPolicy
from repro.ftl.ops import OpKind
from repro.ftl.refresh import RefreshMode, RefreshPolicy


def _small_geometry(blocks_per_plane=6):
    return Geometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=12,  # 4 TLC wordlines
    )


def _ftl(mode=RefreshMode.BASELINE, error_rate=0.0, blocks_per_plane=6):
    return Ftl(
        _small_geometry(blocks_per_plane),
        conventional_tlc(),
        RefreshPolicy(mode=mode, period_us=1000.0, error_rate=error_rate),
        gc_policy=GcPolicy(low_watermark=1, target_free=2),
        rng=np.random.default_rng(3),
    )


class TestHostPath:
    def test_write_then_read(self):
        ftl = _ftl()
        result = ftl.host_write(5, 0.0)
        assert len(result.host_ops) == 1
        assert result.host_ops[0].kind is OpKind.WRITE
        op = ftl.host_read(5, 1.0)
        assert op.kind is OpKind.READ
        assert op.senses == 1  # first page of a block is an LSB page
        assert op.bit == 0

    def test_overwrite_invalidates_old_copy(self):
        ftl = _ftl()
        ftl.host_write(5, 0.0)
        ppn_old = ftl.map.lookup(5)
        ftl.host_write(5, 1.0)
        ppn_new = ftl.map.lookup(5)
        assert ppn_new != ppn_old
        block, page = ftl.table.block_of_ppn(ppn_old)
        assert block.state_of(page).name == "INVALID"

    def test_page_types_cycle_with_fill(self):
        ftl = _ftl()
        # With 2 planes, lpns 0,1 land on page 0 (LSB) of each plane;
        # lpns 2,3 on page 1 (CSB); lpns 4,5 on page 2 (MSB).
        for lpn in range(6):
            ftl.host_write(lpn, 0.0)
        assert ftl.host_read(0, 1.0).senses == 1
        assert ftl.host_read(2, 1.0).senses == 2
        assert ftl.host_read(4, 1.0).senses == 4

    def test_unmapped_read_is_automapped_and_counted(self):
        ftl = _ftl()
        op = ftl.host_read(40, 0.0)
        assert op.kind is OpKind.READ
        assert ftl.counters.unmapped_reads == 1
        assert ftl.map.lookup(40) is not None

    def test_read_reports_wordline_validity(self):
        ftl = _ftl()
        for lpn in range(6):
            ftl.host_write(lpn, 0.0)
        ftl.host_write(0, 1.0)  # invalidate the LSB neighbour of lpn 2/4
        op = ftl.host_read(4, 2.0)  # MSB page sharing WL with old lpn 0
        assert op.wl_validity == (False, True, True)


class TestGc:
    def test_gc_reclaims_when_low(self):
        ftl = _ftl(blocks_per_plane=3)
        # Fill both planes' blocks with constantly-overwritten data so
        # invalid pages accumulate and GC must fire.
        for round_ in range(10):
            for lpn in range(12):
                ftl.host_write(lpn, float(round_))
        assert ftl.counters.gc_invocations > 0
        assert ftl.counters.block_erases > 0
        # All live data still mapped.
        for lpn in range(12):
            assert ftl.map.lookup(lpn) is not None

    def test_gc_preserves_data_locations_consistency(self):
        ftl = _ftl(blocks_per_plane=3)
        for round_ in range(8):
            for lpn in range(10):
                ftl.host_write(lpn, float(round_))
        for lpn in range(10):
            ppn = ftl.map.lookup(lpn)
            block, page = ftl.table.block_of_ppn(ppn)
            assert block.state_of(page).name == "VALID"
            assert ftl.map.owner(ppn) == lpn


class TestRefreshExecution:
    def _fill_and_age(self, ftl, lpns=24):
        for lpn in range(lpns):
            ftl.write_untimed(lpn, -2000.0)  # older than the period

    def test_baseline_refresh_moves_everything(self):
        ftl = _ftl(RefreshMode.BASELINE)
        self._fill_and_age(ftl)
        ops = ftl.check_refresh(0.0)
        assert ftl.counters.refresh_invocations == 2  # one block per plane
        kinds = {op.kind for op in ops}
        assert OpKind.ADJUST not in kinds
        # Refreshed blocks are left with no valid pages.
        for report in ftl.refresh_reports:
            block = ftl.table.block(report.block_index)
            assert block.valid_count == 0
        # All data still readable.
        for lpn in range(24):
            assert ftl.map.lookup(lpn) is not None

    def test_ida_refresh_adjusts_wordlines(self):
        ftl = _ftl(RefreshMode.IDA)
        self._fill_and_age(ftl)
        ops = ftl.check_refresh(0.0)
        assert any(op.kind is OpKind.ADJUST for op in ops)
        assert ftl.counters.refresh_adjusted_wordlines > 0
        # Fully-valid wordlines are case 1: LSBs move, CSB/MSB stay fast.
        for report in ftl.refresh_reports:
            block = ftl.table.block(report.block_index)
            if report.n_adjusted_wordlines:
                assert block.is_ida

    def test_ida_refresh_speeds_up_kept_pages(self):
        ftl = _ftl(RefreshMode.IDA)
        self._fill_and_age(ftl, lpns=24)
        ftl.check_refresh(0.0)
        # Find an MSB page still living in an IDA block.
        senses = [ftl.host_read(lpn, 1.0).senses for lpn in range(24)]
        assert min(senses) == 1
        assert max(senses) <= 4
        ida_reads = [ftl.host_read(lpn, 1.0) for lpn in range(24)]
        assert any(op.from_ida for op in ida_reads)
        for op in ida_reads:
            if op.from_ida and op.bit == 2:
                assert op.senses == 2  # MSB via IDA (CSB+MSB kept)
            if op.from_ida and op.bit == 1:
                assert op.senses == 1  # CSB via IDA

    def test_ida_refresh_error_rate_writes_back(self):
        ftl = _ftl(RefreshMode.IDA, error_rate=1.0)
        self._fill_and_age(ftl)
        ftl.check_refresh(0.0)
        for report in ftl.refresh_reports:
            assert report.n_error == report.n_target
        # With all kept pages corrupted, everything was moved out.
        for report in ftl.refresh_reports:
            block = ftl.table.block(report.block_index)
            assert block.valid_count == 0

    def test_refresh_accounting_identity(self):
        ftl = _ftl(RefreshMode.IDA, error_rate=0.5)
        self._fill_and_age(ftl)
        ftl.check_refresh(0.0)
        for report in ftl.refresh_reports:
            assert report.n_valid == report.n_moved + report.n_target
            assert 0 <= report.n_error <= report.n_target

    def test_ida_block_reclaimed_next_cycle(self):
        ftl = _ftl(RefreshMode.IDA)
        self._fill_and_age(ftl)
        ftl.check_refresh(0.0)
        ida_blocks = [b.index for b in ftl.table.blocks if b.is_ida]
        assert ida_blocks
        # Next period: the IDA blocks are due again and fully moved.
        ftl.check_refresh(2000.0)
        for index in ida_blocks:
            assert ftl.table.block(index).valid_count == 0

    def test_young_blocks_not_refreshed(self):
        ftl = _ftl(RefreshMode.BASELINE)
        for lpn in range(24):
            ftl.write_untimed(lpn, -10.0)  # younger than the period
        assert ftl.check_refresh(0.0) == []

    def test_data_never_lost_across_refresh_cycles(self):
        ftl = _ftl(RefreshMode.IDA, error_rate=0.3)
        self._fill_and_age(ftl)
        for cycle in range(4):
            ftl.check_refresh(cycle * 2000.0)
            for lpn in range(24):
                ppn = ftl.map.lookup(lpn)
                assert ppn is not None
                block, page = ftl.table.block_of_ppn(ppn)
                assert block.state_of(page).name == "VALID"


class TestCensus:
    def test_in_use_and_ida_counts(self):
        ftl = _ftl(RefreshMode.IDA)
        for lpn in range(24):
            ftl.write_untimed(lpn, -2000.0)
        assert ftl.table.in_use_blocks() > 0
        assert ftl.table.ida_blocks() == 0
        ftl.check_refresh(0.0)
        assert ftl.table.ida_blocks() > 0
        assert ftl.table.total_valid_pages() == 24


class TestBlockStatusTable:
    def test_rejects_coding_geometry_mismatch(self, mlc):
        from repro.ftl.blockstatus import BlockStatusTable

        with pytest.raises(ValueError, match="bits"):
            BlockStatusTable(_small_geometry(), mlc)

    def test_senses_for_ppn(self):
        ftl = _ftl()
        ftl.host_write(0, 0.0)
        block, page = ftl.table.block_of_ppn(ftl.map.lookup(0))
        assert block.senses_for(ftl.table.sense_table, page) == 1
