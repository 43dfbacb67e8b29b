"""Tests for block bookkeeping (repro.flash.block)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.block import CONVENTIONAL_WL, Block, PageState, SenseTable
from repro.flash.state import _COLUMNS, FLAG_IS_IDA, DeviceState


@pytest.fixture
def block():
    return Block(index=0, pages_per_block=192, bits_per_cell=3)


@pytest.fixture
def table(tlc):
    return SenseTable(tlc)


class TestSenseTable:
    def test_conventional_counts(self, table):
        assert table.senses(CONVENTIONAL_WL, 0) == 1
        assert table.senses(CONVENTIONAL_WL, 1) == 2
        assert table.senses(CONVENTIONAL_WL, 2) == 4

    def test_ida_mode_keeping_csb_msb(self, table):
        assert table.senses(1, 1) == 1
        assert table.senses(1, 2) == 2

    def test_ida_mode_keeping_msb_only(self, table):
        assert table.senses(2, 2) == 1

    def test_evicted_bit_raises(self, table):
        with pytest.raises(KeyError):
            table.senses(1, 0)


class TestLifecycle:
    def test_sequential_program(self, block):
        assert block.program_next(now_us=5.0) == 0
        assert block.program_next(now_us=6.0) == 1
        assert block.valid_count == 2
        assert block.programmed_at_us == 5.0  # first program stamps the age

    def test_fill_and_overflow(self, block):
        for _ in range(192):
            block.program_next(0.0)
        assert block.is_full
        with pytest.raises(RuntimeError, match="full"):
            block.program_next(0.0)

    def test_invalidate(self, block):
        page = block.program_next(0.0)
        block.invalidate(page)
        assert block.state_of(page) is PageState.INVALID
        assert block.valid_count == 0

    def test_invalidate_twice_raises(self, block):
        page = block.program_next(0.0)
        block.invalidate(page)
        with pytest.raises(RuntimeError, match="not valid"):
            block.invalidate(page)

    def test_invalidate_free_page_raises(self, block):
        with pytest.raises(RuntimeError, match="not valid"):
            block.invalidate(100)

    def test_erase_resets(self, block):
        for _ in range(6):
            block.program_next(0.0)
        for page in range(6):
            block.invalidate(page)
        block.set_wordline_ida(0, 1)
        block.erase()
        assert block.erase_count == 1
        assert block.valid_count == 0
        assert block.next_page == 0
        assert not block.is_ida
        assert block.programmed_at_us is None
        assert block.wl_mode(0) == CONVENTIONAL_WL

    @settings(max_examples=50, deadline=None)
    @given(
        num_blocks=st.integers(min_value=1, max_value=8),
        wordlines=st.integers(min_value=1, max_value=6),
        bits=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_erase_resets_exactly_its_block_rows(
        self, num_blocks, wordlines, bits, seed, data
    ):
        # After erase the block's rows in every column equal a fresh
        # device's, but for the wear bump and the IS_IDA bit; every
        # other block's rows keep their bytes.
        pages = wordlines * bits
        state = DeviceState(num_blocks, pages, bits)
        rng = np.random.default_rng(seed)
        for name in _COLUMNS:
            raw = getattr(state, f"{name}_np").view(np.uint8)
            raw[:] = rng.integers(0, 256, size=raw.size, dtype=np.uint8)
        state.erase_count_np[:] = rng.integers(0, 1 << 40, size=num_blocks)
        slot = data.draw(st.integers(0, num_blocks - 1))
        state.valid_count[slot] = 0
        before = {name: getattr(state, f"{name}_np").copy() for name in _COLUMNS}
        fresh = DeviceState(num_blocks, pages, bits)

        Block(slot, pages, bits, state=state).erase()

        rows_per_block = {"page": pages, "wordline": wordlines, "block": 1}
        for name, (extent, _code, _fill) in _COLUMNS.items():
            rows = rows_per_block[extent]
            mine = slice(slot * rows, (slot + 1) * rows)
            expected = before[name].copy()
            expected[mine] = getattr(fresh, f"{name}_np")[mine]
            if name == "erase_count":
                expected[slot] = before[name][slot] + 1
            elif name == "flags":
                expected[slot] = before[name][slot] & (0xFF ^ FLAG_IS_IDA)
            after = getattr(state, f"{name}_np")
            assert after.tobytes() == expected.tobytes(), name

    def test_erase_with_valid_pages_raises(self, block):
        block.program_next(0.0)
        with pytest.raises(RuntimeError, match="valid pages"):
            block.erase()


class TestWordlines:
    def test_wordline_geometry(self, block):
        assert block.wordlines == 64
        assert block.wordline_of(5) == 1
        assert block.bit_of(5) == 2

    def test_wordline_validity(self, block):
        for _ in range(6):
            block.program_next(0.0)
        block.invalidate(0)  # WL0 LSB
        block.invalidate(4)  # WL1 CSB
        assert block.wordline_validity(0) == (False, True, True)
        assert block.wordline_validity(1) == (True, False, True)
        assert block.wordline_validity(2) == (False, False, False)

    def test_valid_pages(self, block):
        for _ in range(4):
            block.program_next(0.0)
        block.invalidate(2)
        assert block.valid_pages() == [0, 1, 3]

    def test_set_wordline_ida(self, block, table):
        for _ in range(3):
            block.program_next(0.0)
        block.set_wordline_ida(0, 1)
        assert block.is_ida
        assert block.wl_mode(0) == 1
        assert block.senses_for(table, 1) == 1  # CSB in IDA mode
        assert block.senses_for(table, 2) == 2  # MSB in IDA mode
        assert block.senses_for(table, 3) == 1  # WL1 still conventional LSB

    def test_set_wordline_ida_validates_start(self, block):
        with pytest.raises(ValueError):
            block.set_wordline_ida(0, 0)
        with pytest.raises(ValueError):
            block.set_wordline_ida(0, 3)

    def test_adjust_wordlines_equals_per_wordline_calls(self, block):
        bulk = Block(index=0, pages_per_block=192, bits_per_cell=3)
        bulk.adjust_wordlines(np.array([0, 4, 9]), np.array([1, 2, 1]))
        for wordline, start in ((0, 1), (4, 2), (9, 1)):
            block.set_wordline_ida(wordline, start)
            kept = tuple(range(wordline * 3 + start, wordline * 3 + 3))
            block.journal_adjust(wordline, start, kept)
        assert bulk.state.snapshot().columns == block.state.snapshot().columns

    def test_adjust_wordlines_validates_start(self, block):
        for start in (0, 3):
            with pytest.raises(ValueError):
                block.adjust_wordlines(np.array([0, 1]), np.array([1, start]))

    def test_ida_block_rejects_programs(self, block):
        block.program_next(0.0)
        block.set_wordline_ida(0, 2)
        with pytest.raises(RuntimeError, match="IDA-coded"):
            block.program_next(0.0)

    def test_senses_for_conventional(self, block, table):
        for _ in range(3):
            block.program_next(0.0)
        assert block.senses_for(table, 0) == 1
        assert block.senses_for(table, 1) == 2
        assert block.senses_for(table, 2) == 4


class TestValidation:
    def test_rejects_indivisible_pages(self):
        with pytest.raises(ValueError):
            Block(index=0, pages_per_block=100, bits_per_cell=3)
