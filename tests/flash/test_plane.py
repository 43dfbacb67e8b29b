"""Tests for the per-plane block pool (repro.flash.plane)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.block import Block, PageState
from repro.flash.plane import PlanePool
from repro.flash.state import DeviceState
from repro.ftl.gc import select_victim

from ._pool_oracle import PoolOracle, greedy_min, plane_pool


def _pool(num_blocks=4, pages=6):
    return plane_pool(num_blocks, pages)


def _in_use(pool: PlanePool) -> set[int]:
    return set(pool.in_use().tolist())


class TestAllocation:
    def test_opens_first_free_block(self):
        pool = _pool()
        block = pool.active_block(0.0)
        assert block.index == 0
        assert pool.free_count == 3

    def test_reuses_active_until_full(self):
        pool = _pool(pages=6)
        first = pool.active_block(0.0)
        for _ in range(6):
            block = pool.active_block(0.0)
            assert block is first
            block.program_next(0.0)
        second = pool.active_block(0.0)
        assert second is not first
        assert 0 in _in_use(pool)

    def test_retire_active_moves_full_block(self):
        pool = _pool(pages=3)
        block = pool.active_block(0.0)
        for _ in range(3):
            block.program_next(0.0)
        pool.retire_active()
        assert pool.active is None
        assert 0 in _in_use(pool)

    def test_retire_ignores_partial_block(self):
        pool = _pool()
        pool.active_block(0.0).program_next(0.0)
        pool.retire_active()
        assert pool.active == 0

    def test_exhaustion_raises(self):
        pool = _pool(num_blocks=1, pages=3)
        block = pool.active_block(0.0)
        for _ in range(3):
            block.program_next(0.0)
        with pytest.raises(RuntimeError, match="no free blocks"):
            pool.active_block(0.0)


class TestRelease:
    def test_release_returns_block_to_free_list(self):
        pool = _pool(pages=3)
        block = pool.active_block(0.0)
        for _ in range(3):
            block.program_next(0.0)
        pool.retire_active()
        for page in range(3):
            block.invalidate(page)
        block.erase()
        pool.release(0)
        assert pool.free_count == 4
        assert 0 not in _in_use(pool)

    def test_release_with_valid_data_raises(self):
        pool = _pool(pages=3)
        block = pool.active_block(0.0)
        for _ in range(3):
            block.program_next(0.0)
        pool.retire_active()
        with pytest.raises(RuntimeError, match="valid data"):
            pool.release(0)

    def test_release_of_retired_block_raises(self):
        pool = _pool(pages=3)
        pool.retire(2)
        with pytest.raises(RuntimeError, match="retired"):
            pool.release(2)


class TestRetire:
    def test_retire_sets_the_flag_and_leaves_the_free_list(self):
        pool = _pool()
        pool.retire(1)
        assert pool.block(1).retired
        assert list(pool.free) == [0, 2, 3]
        assert not pool.in_rotation()[1]

    def test_retire_of_the_open_block_closes_it(self):
        pool = _pool()
        pool.active_block(0.0).program_next(0.0)
        pool.retire(0)
        assert pool.active is None
        assert _in_use(pool) == set()


class TestQueries:
    def test_used_blocks_includes_active(self):
        pool = _pool(pages=3)
        block = pool.active_block(0.0)
        block.program_next(0.0)
        assert [b.index for b in pool.used_blocks()] == [0]

    def test_victims_exclude_active(self):
        pool = _pool(pages=3)
        block = pool.active_block(0.0)
        for _ in range(3):
            block.program_next(0.0)
        pool.active_block(0.0)  # opens block 1, closes 0
        for _ in range(3):
            pool.block(1).program_next(0.0)
        assert _in_use(pool) == {0}
        assert select_victim(pool).index == 0

    def test_total_blocks(self):
        assert _pool(num_blocks=7).total_blocks == 7

    def test_column_reads_the_plane_slice(self):
        pool = plane_pool(num_blocks=3, pages=3, planes=2, plane=1)
        pool.active_block(0.0).program_next(0.0)
        assert pool.column("next_page").tolist() == [1, 0, 0]
        assert pool.block(0).index == 3

    def test_blocks_must_be_consecutive_slots(self):
        state = DeviceState(4, 3, 3)
        blocks = [
            Block(index=i, pages_per_block=3, bits_per_cell=3, state=state)
            for i in (0, 2)
        ]
        with pytest.raises(ValueError, match="consecutive"):
            PlanePool(plane_index=0, blocks=blocks)


# ----------------------------------------------------------------------
# Property: column-derived membership equals the explicit-set oracle
# ----------------------------------------------------------------------
_BLOCKS = 6
_PAGES = 3

_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["open", "program", "invalidate", "release", "retire", "lock"]
        ),
        st.integers(0, _BLOCKS - 1),
        st.integers(0, _PAGES - 1),
    ),
    max_size=80,
)


def _can_allocate(pool: PlanePool) -> bool:
    active = pool.active
    return bool(pool.free) or active is not None and not pool.block(active).is_full


def _apply(oracle: PoolOracle, op: str, target: int, page: int) -> None:
    pool = oracle.pool
    block = pool.block(target)
    if op == "open":
        if _can_allocate(pool):
            oracle.open()
    elif op == "program":
        if _can_allocate(pool):
            oracle.program()
    elif op == "invalidate":
        if block.state_of(page) is PageState.VALID:
            block.invalidate(page)
    elif op == "release":
        # GC's reclaim: a closed, unlocked block drained and erased.
        if target in oracle.used and not block.locked:
            for valid in block.valid_pages():
                block.invalidate(valid)
            block.erase()
            oracle.release(target)
    elif op == "retire":
        # Grown bad: the caller evacuates live data first.
        for valid in block.valid_pages():
            block.invalidate(valid)
        oracle.retire(target)
    else:
        block.locked = not block.locked


def _check(oracle: PoolOracle) -> None:
    pool = oracle.pool
    assert _in_use(pool) == oracle.used
    retired = {i for i in range(pool.total_blocks) if pool.block(i).retired}
    assert retired == oracle.retired
    assert not oracle.used & set(pool.free)
    assert pool.active not in oracle.used | oracle.retired
    expected = [pool.blocks[i] for i in sorted(oracle.used)]
    if pool.active is not None:
        expected.append(pool.blocks[pool.active])
    assert pool.used_blocks() == expected
    assert select_victim(pool) is greedy_min(pool, oracle.used)


@settings(max_examples=150, deadline=None)
@given(
    steps=_steps,
    wear=st.lists(st.integers(0, 2), min_size=_BLOCKS, max_size=_BLOCKS),
)
def test_membership_matches_the_explicit_set_oracle(steps, wear):
    # The second plane of two: the pool reads an offset column slice.
    oracle = PoolOracle(plane_pool(_BLOCKS, _PAGES, planes=2, plane=1))
    for in_plane, erases in enumerate(wear):
        oracle.pool.block(in_plane).erase_count = erases
    _check(oracle)
    for op, target, page in steps:
        _apply(oracle, op, target, page)
        _check(oracle)
