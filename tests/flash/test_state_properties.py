"""Property-based tests: DeviceState snapshot/restore is a true bijection.

The snapshot is the device half of the warm-state cache AND the thing a
power cut "freezes" — so the round-trip must hold for *every* geometry
and *every* column content, including the SPOR metadata columns (OOB
records, block summaries, ADJUST journal) added for power-loss recovery.
Hypothesis sweeps geometries and randomized column contents; the fixed
scribble in test_state_snapshot.py only covers one shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.state import _COLUMNS, DeviceState, DeviceStateSnapshot

_geometries = st.tuples(
    st.integers(min_value=1, max_value=10),  # num_blocks
    st.integers(min_value=1, max_value=6),  # wordlines per block
    st.sampled_from([2, 3, 4]),  # bits per cell
)


def _make_state(geometry: tuple[int, int, int]) -> DeviceState:
    num_blocks, wordlines, bits = geometry
    return DeviceState(num_blocks, wordlines * bits, bits)


def _randomize(state: DeviceState, seed: int) -> None:
    """Fill every column with arbitrary in-range values."""
    rng = np.random.default_rng(seed)

    def fill_int(view, low, high):
        view[:] = rng.integers(low, high, size=view.size, dtype=view.dtype)

    fill_int(state.page_state_np, 0, 256)
    fill_int(state.wl_mode_np, 0, 256)
    fill_int(state.next_page_np, 0, state.pages_per_block + 1)
    fill_int(state.valid_count_np, 0, state.pages_per_block + 1)
    fill_int(state.erase_count_np, 0, 10_000)
    state.programmed_at_us_np[:] = rng.uniform(0, 1e9, state.num_blocks)
    fill_int(state.flags_np, 0, 256)
    # SPOR columns: OOB records (including the NO_LPN = -1 sentinel),
    # block summaries (NO_SUMMARY = -1), and the ADJUST journal.
    fill_int(state.oob_lpn_np, -1, 1 << 30)
    fill_int(state.oob_seq_np, 0, 1 << 40)
    fill_int(state.summary_seq_np, -1, 1 << 40)
    fill_int(state.summary_wl_mode_np, 0, 256)
    fill_int(state.journal_bit_np, 0, 8)
    fill_int(state.journal_kept_np, 0, 256)
    state.write_seq = int(rng.integers(0, 1 << 50))


@settings(max_examples=50, deadline=None)
@given(geometry=_geometries, seed=st.integers(0, 2**32 - 1))
def test_restore_reproduces_every_column(geometry, seed):
    source = _make_state(geometry)
    _randomize(source, seed)
    snap = source.snapshot()

    target = _make_state(geometry)
    target.restore(snap)
    assert target.snapshot().columns == snap.columns
    assert target.write_seq == source.write_seq


@settings(max_examples=50, deadline=None)
@given(geometry=_geometries, seed=st.integers(0, 2**32 - 1))
def test_snapshot_is_immune_to_later_mutation(geometry, seed):
    state = _make_state(geometry)
    _randomize(state, seed)
    snap = state.snapshot()
    frozen = dict(snap.columns)
    _randomize(state, seed ^ 0xFFFF_FFFF)
    assert snap.columns == frozen


@settings(max_examples=30, deadline=None)
@given(
    a=_geometries,
    b=_geometries,
    seed=st.integers(0, 2**32 - 1),
)
def test_geometry_mismatch_is_rejected_before_any_write(a, b, seed):
    source = _make_state(a)
    _randomize(source, seed)
    snap = source.snapshot()

    target = _make_state(b)
    before = target.snapshot().columns
    if a == b:
        target.restore(snap)
        assert target.snapshot().columns == snap.columns
    else:
        with pytest.raises(ValueError, match="geometry"):
            target.restore(snap)
        assert target.snapshot().columns == before


@settings(max_examples=30, deadline=None)
@given(
    geometry=_geometries,
    seed=st.integers(0, 2**32 - 1),
    column=st.sampled_from([*_COLUMNS, "write_seq"]),
)
def test_truncated_column_leaves_target_untouched(geometry, seed, column):
    source = _make_state(geometry)
    _randomize(source, seed)
    good = source.snapshot()
    bad = DeviceStateSnapshot(
        good.num_blocks,
        good.pages_per_block,
        good.bits_per_cell,
        {**good.columns, column: good.columns[column][:-1]},
    )

    target = _make_state(geometry)
    _randomize(target, seed ^ 0x5A5A)
    before = target.snapshot().columns
    before_seq = target.write_seq
    with pytest.raises(ValueError):
        target.restore(bad)
    assert target.snapshot().columns == before
    assert target.write_seq == before_seq
