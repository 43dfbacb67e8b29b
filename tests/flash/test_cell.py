"""Tests for the cell-exact wordline model (the ``_cells`` oracle)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import conventional_qlc, conventional_tlc
from tests.flash._cells import WordlineCells


def _random_pages(rng, bits, size):
    return [rng.integers(0, 2, size, dtype=np.int8) for _ in range(bits)]


class TestProgramRead:
    def test_roundtrip_all_page_types(self, tlc, rng):
        cells = WordlineCells(tlc, 32)
        pages = _random_pages(rng, 3, 32)
        cells.program(pages)
        for bit in range(3):
            np.testing.assert_array_equal(cells.read_page(bit), pages[bit])

    def test_senses_match_coding(self, tlc, rng):
        cells = WordlineCells(tlc, 16)
        cells.program(_random_pages(rng, 3, 16))
        assert [cells.senses(b) for b in range(3)] == [1, 2, 4]

    def test_erased_cells_read_all_ones(self, tlc):
        cells = WordlineCells(tlc, 8)
        for bit in range(3):
            assert (cells.read_page(bit) == 1).all()

    def test_cannot_program_twice(self, tlc, rng):
        cells = WordlineCells(tlc, 8)
        pages = _random_pages(rng, 3, 8)
        # Ensure at least one non-erased cell.
        pages[0][0] = 0
        cells.program(pages)
        with pytest.raises(RuntimeError, match="non-erased"):
            cells.program(pages)

    def test_wrong_page_count_rejected(self, tlc, rng):
        cells = WordlineCells(tlc, 8)
        with pytest.raises(ValueError, match="need 3 pages"):
            cells.program(_random_pages(rng, 2, 8))

    def test_wrong_page_length_rejected(self, tlc, rng):
        cells = WordlineCells(tlc, 8)
        with pytest.raises(ValueError, match="length"):
            cells.program(_random_pages(rng, 3, 9))

    def test_zero_size_rejected(self, tlc):
        with pytest.raises(ValueError):
            WordlineCells(tlc, 0)


class TestIdaAdjustment:
    def test_adjust_reduces_senses(self, tlc, rng):
        cells = WordlineCells(tlc, 32)
        cells.program(_random_pages(rng, 3, 32))
        cells.apply_ida((1, 2))
        assert cells.senses(1) == 1
        assert cells.senses(2) == 2

    def test_adjust_preserves_surviving_data(self, tlc, rng):
        cells = WordlineCells(tlc, 64)
        pages = _random_pages(rng, 3, 64)
        cells.program(pages)
        cells.apply_ida((1, 2))
        np.testing.assert_array_equal(cells.read_page(1), pages[1])
        np.testing.assert_array_equal(cells.read_page(2), pages[2])

    def test_adjust_moves_states_rightward(self, tlc, rng):
        cells = WordlineCells(tlc, 64)
        cells.program(_random_pages(rng, 3, 64))
        before = cells.states.copy()
        cells.apply_ida((2,))
        assert (cells.states >= before).all()

    def test_cannot_program_after_adjust(self, tlc, rng):
        cells = WordlineCells(tlc, 8)
        cells.program(_random_pages(rng, 3, 8))
        cells.apply_ida((1, 2))
        with pytest.raises(RuntimeError, match="IDA wordline"):
            cells.program(_random_pages(rng, 3, 8))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_adjust_preserves_data_property(self, data):
        # For any programmed content and any valid-bit suffix, surviving
        # pages read back identically after the voltage adjustment.
        coding = conventional_tlc()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        start = data.draw(st.integers(min_value=1, max_value=2))
        cells = WordlineCells(coding, 48)
        pages = _random_pages(rng, 3, 48)
        cells.program(pages)
        valid = tuple(range(start, 3))
        cells.apply_ida(valid)
        for bit in valid:
            np.testing.assert_array_equal(cells.read_page(bit), pages[bit])


class TestQlcCells:
    def test_fig6_data_preservation(self, rng):
        coding = conventional_qlc()
        cells = WordlineCells(coding, 32)
        pages = _random_pages(rng, 4, 32)
        cells.program(pages)
        cells.apply_ida((2, 3))
        np.testing.assert_array_equal(cells.read_page(2), pages[2])
        np.testing.assert_array_equal(cells.read_page(3), pages[3])
        assert cells.senses(3) == 2
        assert cells.senses(2) == 1
