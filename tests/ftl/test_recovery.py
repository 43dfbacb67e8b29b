"""Tests for the SPOR mount path (repro.ftl.recovery)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import conventional_tlc
from repro.flash.block import CONVENTIONAL_WL, TORN_WL, PageState
from repro.flash.geometry import Geometry
from repro.faults.invariants import check_coding_invariants
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GcPolicy
from repro.ftl.recovery import MountReport, mount_device
from repro.ftl.refresh import RefreshMode, RefreshPolicy


def _geometry(blocks_per_plane=8):
    return Geometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=12,  # 4 TLC wordlines
    )


def _ftl(mode=RefreshMode.IDA, error_rate=0.2, seed=3):
    return Ftl(
        _geometry(),
        conventional_tlc(),
        RefreshPolicy(mode=mode, period_us=1000.0, error_rate=error_rate),
        gc_policy=GcPolicy(low_watermark=1, target_free=2),
        rng=np.random.default_rng(seed),
    )


def _mount(ftl):
    return mount_device(
        ftl.table.state,
        ftl.geometry,
        ftl.coding,
        ftl.refresh_policy,
        gc_policy=ftl.gc_policy,
        rng=np.random.default_rng(99),
    )


def _churn(ftl, lpns=40, writes=400, seed=7):
    """Random update traffic: overwrites, GC pressure, mixed-age blocks."""
    rng = np.random.default_rng(seed)
    for i in range(writes):
        ftl.write_untimed(int(rng.integers(0, lpns)), float(i))


class TestCleanMount:
    def test_round_trips_map_and_validity(self):
        ftl = _churn_ftl = _ftl()
        _churn(_churn_ftl)
        state = ftl.table.state
        live_map = dict(ftl.map.items())
        live_valid = bytes(state.valid_count)
        live_pages = bytes(state.page_state)
        live_seq = state.write_seq

        recovered, report = _mount(ftl)
        assert dict(recovered.map.items()) == live_map
        assert bytes(recovered.table.state.valid_count) == live_valid
        assert bytes(recovered.table.state.page_state) == live_pages
        assert recovered.table.state.write_seq == live_seq
        assert report.mapped_lpns == len(live_map)
        assert report.torn_rolled_forward == 0
        assert check_coding_invariants(recovered) == []

    def test_round_trips_pools(self):
        ftl = _ftl()
        _churn(ftl)
        live = [
            (
                set(p.free),
                p.active,
                set(p.in_use().tolist()),
                set(np.flatnonzero(~p.in_rotation()).tolist()),
            )
            for p in ftl.table.planes
        ]
        recovered, _ = _mount(ftl)
        rebuilt = [
            (
                set(p.free),
                p.active,
                set(p.in_use().tolist()),
                set(np.flatnonzero(~p.in_rotation()).tolist()),
            )
            for p in recovered.table.planes
        ]
        assert rebuilt == live

    def test_empty_device_mounts(self):
        ftl = _ftl()
        recovered, report = _mount(ftl)
        assert report == MountReport(
            free_blocks=ftl.geometry.total_blocks
        )
        assert dict(recovered.map.items()) == {}
        assert recovered.table.state.write_seq == 0

    def test_new_writes_continue_after_mount(self):
        ftl = _ftl()
        _churn(ftl, writes=120)
        recovered, _ = _mount(ftl)
        before = dict(recovered.map.items())
        recovered.write_untimed(5, 1000.0)
        after = recovered.map.lookup(5)
        assert after is not None
        assert after != before.get(5)
        assert check_coding_invariants(recovered) == []


class TestPreSporState:
    def test_missing_oob_is_rejected(self):
        ftl = _ftl()
        ftl.write_untimed(1, 0.0)
        state = ftl.table.state
        ppn = ftl.map.lookup(1)
        state.oob_lpn_np[ppn] = -1  # simulate a pre-SPOR image
        with pytest.raises(ValueError, match="no OOB record"):
            _mount(ftl)


def _cut_mid_refresh():
    """Churn, then plan a refresh whose ADJUSTs never commit."""
    ftl = _ftl()
    _churn(ftl, lpns=30, writes=300)
    # Age every block past the refresh period, then scan: the plan's
    # journal intents land on flash, but no commit ever arrives (the
    # simulated power dies before the ADJUST ops complete).
    ops = ftl.check_refresh(5000.0)
    assert ops, "refresh produced no work; test premise broken"
    journal = np.flatnonzero(ftl.table.state.journal_bit_np)
    assert len(journal), "no ADJUST journal intents pending"
    return ftl


def _pending_row(ftl):
    """The first journaled wordline that still carries a valid kept page."""
    state = ftl.table.state
    for gw in np.flatnonzero(state.journal_bit_np).tolist():
        slot, wordline = divmod(gw, state.wordlines_per_block)
        block = ftl.table.blocks[slot]
        _, kept = block.journaled_adjust(wordline)
        if any(block.state_of(page) is PageState.VALID for page in kept):
            return block, wordline
    raise AssertionError("no journaled wordline keeps a valid page")


class TestTornAdjustRollForward:
    def test_rolls_forward_and_clears_journal(self):
        ftl = _cut_mid_refresh()
        live_map = dict(ftl.map.items())
        recovered, report = _mount(ftl)
        state = recovered.table.state
        assert report.torn_rolled_forward > 0
        assert not np.flatnonzero(state.journal_bit_np).size
        assert not (state.wl_mode_np == TORN_WL).any()
        assert check_coding_invariants(recovered) == []
        # Every pre-cut LPN survives; only roll-forward moves remap.
        relocated = set(report.relocated_lpns)
        assert set(dict(recovered.map.items())) == set(live_map)
        for lpn, ppn in recovered.map.items():
            if lpn not in relocated:
                assert live_map[lpn] == ppn

    def test_counter_attributes_recoveries(self):
        ftl = _cut_mid_refresh()
        recovered, report = _mount(ftl)
        assert (
            recovered.counters.torn_adjust_recoveries
            == report.torn_rolled_forward
        )


class TestAdjustInterrupted:
    """The in-run handler reads its intent from the on-flash journal row."""

    def test_live_row_rolls_forward_and_clears(self):
        ftl = _cut_mid_refresh()
        block, wordline = _pending_row(ftl)
        intended, kept = block.journaled_adjust(wordline)
        live = [page for page in kept if block.state_of(page) is PageState.VALID]
        geometry = ftl.geometry
        owners = [
            ftl.map.owner(geometry.page_number(block.index, page)) for page in live
        ]

        ops = ftl.on_adjust_interrupted(block.index, wordline, 6000.0)

        assert ftl.counters.torn_adjust_recoveries == 1
        assert ftl.counters.fault_page_moves == len(live)
        assert len(ops) >= len(live)
        assert block.journaled_adjust(wordline) == (0, [])
        assert block.wl_mode(wordline) == intended
        state = ftl.table.state
        gw = block.index * state.wordlines_per_block + wordline
        assert state.summary_wl_mode[gw] == intended
        for page, lpn in zip(live, owners):
            assert block.state_of(page) is PageState.INVALID
            assert ftl.map.lookup(lpn) // geometry.pages_per_block != block.index

    def test_stale_row_is_a_no_op(self):
        ftl = _cut_mid_refresh()
        block, wordline = _pending_row(ftl)
        ftl.commit_adjust(block.index, wordline)  # the adjust completed
        before = dataclasses.replace(ftl.counters)
        columns = ftl.table.state.snapshot().columns

        assert ftl.on_adjust_interrupted(block.index, wordline, 6000.0) == []
        assert ftl.on_adjust_interrupted(block.index, None, 6000.0) == []
        assert ftl.counters == before
        assert ftl.table.state.snapshot().columns == columns


class TestStaleJournal:
    def test_conventional_wordline_intent_is_dropped(self):
        ftl = _ftl()
        _churn(ftl, writes=120)
        state = ftl.table.state
        # Forge a leftover intent on a conventional wordline: the block
        # was erased (or never adjusted) after the intent was journaled.
        target = None
        for gw in range(state.num_wordlines):
            if state.wl_mode[gw] == CONVENTIONAL_WL:
                target = gw
                break
        assert target is not None
        state.journal_bit_np[target] = 1
        state.journal_kept_np[target] = 0b110
        recovered, report = _mount(ftl)
        assert report.stale_journal_cleared == 1
        assert report.torn_rolled_forward == 0
        assert recovered.table.state.journal_bit[target] == 0
        assert check_coding_invariants(recovered) == []
