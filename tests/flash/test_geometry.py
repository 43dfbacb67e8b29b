"""Tests for the device geometry and address math (repro.flash.geometry)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.flash.geometry import Geometry


@pytest.fixture
def table2():
    """The paper's Table II geometry."""
    return Geometry()


def _decompose_plane(geometry, plane_index):
    """(channel, chip, die, plane) of a linear plane number: the inverse
    of ``Geometry.plane_index``, computed digit by digit."""
    plane = plane_index % geometry.planes_per_die
    rest = plane_index // geometry.planes_per_die
    die = rest % geometry.dies_per_chip
    rest //= geometry.dies_per_chip
    chip = rest % geometry.chips_per_channel
    channel = rest // geometry.chips_per_channel
    return channel, chip, die, plane


def _address_of(geometry, ppn):
    """(channel, chip, die, plane, block, page) of a PPN."""
    block_index, page = geometry.decompose_page(ppn)
    plane_index, block = divmod(block_index, geometry.blocks_per_plane)
    return (*_decompose_plane(geometry, plane_index), block, page)


class TestTableTwoNumbers:
    def test_derived_counts(self, table2):
        assert table2.total_chips == 16
        assert table2.total_dies == 32
        assert table2.total_planes == 64
        assert table2.total_blocks == 64 * 5472 == 350_208

    def test_capacity_is_half_terabyte(self, table2):
        # 350,208 blocks x 192 pages x 8 KiB ~ 512 GiB.
        capacity_gib = table2.total_pages * table2.page_size_bytes / (1 << 30)
        assert 500 < capacity_gib < 525

    def test_wordlines_per_block(self, table2):
        assert table2.wordlines_per_block == 64

    def test_page_size(self, table2):
        assert table2.page_size_bytes == 8192


class TestValidation:
    def test_rejects_indivisible_pages_per_block(self):
        with pytest.raises(ValueError, match="multiple"):
            Geometry(pages_per_block=190, bits_per_cell=3)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            Geometry(channels=0)


class TestAddressMath:
    def test_plane_index_roundtrip(self, table2):
        for channel in range(table2.channels):
            for chip in range(table2.chips_per_channel):
                for die in range(table2.dies_per_chip):
                    for plane in range(table2.planes_per_die):
                        linear = table2.plane_index(channel, chip, die, plane)
                        assert _decompose_plane(table2, linear) == (
                            channel,
                            chip,
                            die,
                            plane,
                        )

    def test_plane_indices_are_dense(self, table2):
        seen = {
            table2.plane_index(c, w, d, p)
            for c in range(table2.channels)
            for w in range(table2.chips_per_channel)
            for d in range(table2.dies_per_chip)
            for p in range(table2.planes_per_die)
        }
        assert seen == set(range(table2.total_planes))

    def test_die_of_plane_consistent(self, table2):
        for plane_index in range(table2.total_planes):
            channel, chip, die, _ = _decompose_plane(table2, plane_index)
            assert table2.die_of_plane(plane_index) == table2.die_index(
                channel, chip, die
            )

    def test_channel_of_plane_consistent(self, table2):
        for plane_index in range(table2.total_planes):
            channel, _, _, _ = _decompose_plane(table2, plane_index)
            assert table2.channel_of_plane(plane_index) == channel

    def test_page_number_roundtrip(self, table2):
        ppn = table2.page_number(12345, 100)
        assert table2.decompose_page(ppn) == (12345, 100)

    def test_address_of(self, table2):
        ppn = table2.page_number(table2.block_index(10, 3), 99)
        channel, chip, die, plane, block, page = _address_of(table2, ppn)
        assert (block, page) == (3, 99)
        assert table2.plane_index(channel, chip, die, plane) == 10

    def test_wordline_and_page_type(self, table2):
        _, page = table2.decompose_page(table2.page_number(0, 100))
        # page 100 = WL 33, CSB
        assert divmod(page, table2.bits_per_cell) == (33, 1)


class TestProperties:
    @given(st.integers(min_value=0, max_value=350_208 * 192 - 1))
    def test_ppn_roundtrips_through_full_address(self, ppn):
        geometry = Geometry()
        channel, chip, die, plane, block, page = _address_of(geometry, ppn)
        plane_index = geometry.plane_index(channel, chip, die, plane)
        block_index = geometry.block_index(plane_index, block)
        assert geometry.page_number(block_index, page) == ppn
