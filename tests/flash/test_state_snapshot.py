"""DeviceState.snapshot()/restore(): roundtrip, validation, view rules."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.flash.state import _COLUMNS, DeviceState, DeviceStateSnapshot


def _make_state(num_blocks: int = 4) -> DeviceState:
    return DeviceState(num_blocks, pages_per_block=6, bits_per_cell=3)


def _scribble(state: DeviceState) -> None:
    """Mutate every column so the roundtrip actually moves bytes."""
    state.page_state[0] = 1
    state.page_state[5] = 2
    state.wl_mode[1] = 0x03
    state.oob_seq[2] = 77
    state.next_page[0] = 4
    state.valid_count[0] = 3
    state.erase_count[3] = 9
    state.programmed_at_us[1] = 123.5
    state.flags[2] = 0x05


def _columns_equal(a: DeviceState, b: DeviceState) -> bool:
    return a.snapshot().columns == b.snapshot().columns


class TestRoundtrip:
    def test_restore_reproduces_every_column(self):
        source = _make_state()
        _scribble(source)
        snap = source.snapshot()

        target = _make_state()
        assert not _columns_equal(source, target)
        target.restore(snap)
        assert _columns_equal(source, target)

    def test_snapshot_is_a_copy_not_a_view(self):
        state = _make_state()
        snap = state.snapshot()
        before = snap.columns["page_state"]
        state.page_state[0] = 9
        assert snap.columns["page_state"] == before

    def test_snapshot_pickles(self):
        state = _make_state()
        _scribble(state)
        snap = state.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, DeviceStateSnapshot)
        assert clone.columns == snap.columns
        assert clone.nbytes() == snap.nbytes()

    def test_nbytes_matches_memory_bytes(self):
        state = _make_state()
        assert state.snapshot().nbytes() == state.memory_bytes()

    def test_wire_order_is_the_column_table_plus_write_seq(self):
        # Reordering the table changes the spill-file layout, which
        # needs a SNAPSHOT_SCHEMA bump; pin the order explicitly.
        assert list(_COLUMNS) == [
            "page_state",
            "wl_mode",
            "next_page",
            "valid_count",
            "erase_count",
            "programmed_at_us",
            "flags",
            "oob_lpn",
            "oob_seq",
            "summary_seq",
            "summary_wl_mode",
            "journal_bit",
            "journal_kept",
        ]
        assert list(_make_state().snapshot().columns) == [*_COLUMNS, "write_seq"]


class TestValidation:
    def test_geometry_mismatch_rejected_untouched(self):
        snap = _make_state(num_blocks=5).snapshot()
        target = _make_state(num_blocks=4)
        pristine = target.snapshot().columns
        with pytest.raises(ValueError, match="geometry"):
            target.restore(snap)
        assert target.snapshot().columns == pristine

    def test_missing_column_rejected_untouched(self):
        snap = _make_state().snapshot()
        del snap.columns["flags"]
        target = _make_state()
        pristine = target.snapshot().columns
        with pytest.raises(ValueError, match="missing column"):
            target.restore(snap)
        assert target.snapshot().columns == pristine

    def test_extra_column_rejected_untouched(self):
        # The schema-3 layout carried a ``wl_read_count`` wordline
        # column after ``wl_mode``; a snapshot with it must not restore.
        source = _make_state()
        _scribble(source)
        good = source.snapshot().columns
        stale = {}
        for name, blob in good.items():
            stale[name] = blob
            if name == "wl_mode":
                stale["wl_read_count"] = bytes(8 * source.num_wordlines)
        snap = DeviceStateSnapshot(
            source.num_blocks, source.pages_per_block, source.bits_per_cell, stale
        )
        target = _make_state()
        pristine = target.snapshot().columns
        with pytest.raises(ValueError, match="unknown column.*wl_read_count"):
            target.restore(snap)
        assert target.snapshot().columns == pristine

    def test_truncated_column_rejected_before_any_write(self):
        source = _make_state()
        _scribble(source)
        snap = source.snapshot()
        # ``flags`` is validated last; truncating it must still leave
        # *every* column untouched — validation runs before any write.
        snap.columns["flags"] = snap.columns["flags"][:-1]
        target = _make_state()
        pristine = target.snapshot().columns
        with pytest.raises(ValueError, match="flags"):
            target.restore(snap)
        assert target.snapshot().columns == pristine

    def test_buffers_never_resize_on_bad_restore(self):
        # A wrong-length bytearray slice-assign would silently resize the
        # buffer and orphan every numpy view; the length check prevents
        # the write from ever happening.
        state = _make_state()
        snap = state.snapshot()
        snap.columns["page_state"] = snap.columns["page_state"] + b"\x00"
        with pytest.raises(ValueError, match="page_state"):
            state.restore(snap)
        assert len(state.page_state) == state.num_pages
        assert state.page_state_np.shape == (state.num_pages,)


class TestViewCoherence:
    def test_views_reflect_restored_bytes(self):
        source = _make_state()
        _scribble(source)
        snap = source.snapshot()
        target = _make_state()
        target.restore(snap)
        assert target.page_state_np[5] == 2
        assert target.oob_seq_np[2] == 77
        assert target.erase_count_np[3] == 9
        assert target.flags_np[2] == 0x05
        assert target.programmed_at_us_np[1] == 123.5

    def test_views_stay_live_after_restore(self):
        # Post-restore, scalar mutations must remain visible through the
        # numpy views (and vice versa) — the buffers were reused in place.
        state = _make_state()
        state.restore(_make_state().snapshot())
        state.page_state[3] = 2
        assert state.page_state_np[3] == 2
        state.valid_count_np[1] = 42
        assert state.valid_count[1] == 42

    def test_pre_restore_view_references_see_restored_data(self):
        # Callers may hold ``state.<col>_np`` arrays across a restore;
        # since restore writes into the same buffers, even a stale
        # reference observes the restored bytes.
        state = _make_state()
        held = state.page_state_np
        source = _make_state()
        source.page_state[0] = 2
        state.restore(source.snapshot())
        assert held[0] == 2
        assert np.shares_memory(held, state.page_state_np)
