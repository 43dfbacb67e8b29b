"""Tests for the IDA transform (repro.core.ida) — Figs. 5 & 6."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.coding import standard_coding
from repro.core.ida import IdaTransform, merge_states


class TestFig5TlcLsbInvalid:
    """The paper's Fig. 5 scenario: TLC, LSB invalidated."""

    @pytest.fixture
    def transform(self, tlc):
        return IdaTransform(tlc, (1, 2))

    def test_moves_match_paper(self, transform):
        # S1->S8, S2->S7, S3->S6, S4->S5; S5..S8 stay.
        assert transform.move_map == (7, 6, 5, 4, 4, 5, 6, 7)

    def test_merged_states_are_top_half(self, transform):
        assert transform.merged_states == (4, 5, 6, 7)

    def test_csb_reads_with_one_sense_at_v6(self, transform):
        assert transform.senses(1) == 1
        assert transform.read_voltages(1) == ("V6",)

    def test_msb_reads_with_two_senses_at_v5_v7(self, transform):
        assert transform.senses(2) == 2
        assert transform.read_voltages(2) == ("V5", "V7")

    def test_decode_preserves_surviving_bits(self, transform, tlc):
        for state in range(8):
            target = transform.move_map[state]
            for bit in (1, 2):
                assert transform.decode(target, bit) == tlc.states[state][bit]

    def test_max_move_distance_is_full_range(self, transform):
        assert transform.max_move_distance() == 7  # S1 -> S8

    def test_describe_mentions_moves(self, transform):
        assert "S1->S8" in transform.describe()


class TestTlcMsbOnly:
    """Table I cases 3-4: only the MSB survives."""

    def test_single_sense(self, tlc):
        transform = IdaTransform(tlc, (2,))
        assert transform.senses(2) == 1
        assert transform.merged_states == (6, 7)
        assert transform.read_voltages(2) == ("V7",)


class TestFig6Qlc:
    """The paper's Fig. 6: QLC with the two lower bits invalidated."""

    def test_bit4_drops_8_to_2(self, qlc):
        transform = IdaTransform(qlc, (2, 3))
        assert qlc.senses(3) == 8
        assert transform.senses(3) == 2

    def test_bit3_drops_4_to_1(self, qlc):
        transform = IdaTransform(qlc, (2, 3))
        assert qlc.senses(2) == 4
        assert transform.senses(2) == 1

    def test_four_merged_states(self, qlc):
        transform = IdaTransform(qlc, (2, 3))
        assert len(transform.merged_states) == 4


class TestMlc:
    def test_msb_drops_2_to_1(self, mlc):
        transform = IdaTransform(mlc, (1,))
        assert transform.senses(1) == 1
        assert len(transform.merged_states) == 2


class TestAlternate232:
    def test_ida_composes_with_vendor_coding(self, tlc232):
        # The paper notes IDA is general: it applies to any coding.
        transform = IdaTransform(tlc232, (1, 2))
        assert transform.senses(1) <= tlc232.senses(1)
        assert transform.senses(2) <= tlc232.senses(2)
        assert len(transform.merged_states) == 4


class TestErrors:
    def test_empty_valid_bits_rejected(self, tlc):
        with pytest.raises(ValueError, match="at least one valid bit"):
            merge_states(tlc, ())

    def test_out_of_range_bits_rejected(self, tlc):
        with pytest.raises(ValueError, match="out of range"):
            merge_states(tlc, (3,))

    def test_duplicate_bits_rejected(self, tlc):
        with pytest.raises(ValueError, match="duplicate"):
            merge_states(tlc, (1, 1, 2))

    def test_reading_invalid_bit_rejected(self, tlc):
        transform = IdaTransform(tlc, (1, 2))
        with pytest.raises(ValueError, match="invalid under this transform"):
            transform.senses(0)
        with pytest.raises(ValueError, match="invalid under this transform"):
            transform.boundaries(0)

    def test_decoding_unmerged_state_rejected(self, tlc):
        transform = IdaTransform(tlc, (1, 2))
        with pytest.raises(ValueError, match="cannot occur"):
            transform.decode(0, 2)


def _valid_bit_subsets(bits: int):
    subsets = []
    for mask in range(1, 1 << bits):
        subsets.append(tuple(b for b in range(bits) if mask & (1 << b)))
    return subsets


class TestProperties:
    @given(
        bits=st.integers(min_value=2, max_value=4),
        mask=st.integers(min_value=1, max_value=15),
    )
    def test_moves_are_rightward_only(self, bits, mask):
        # ISPP can only raise a cell's threshold voltage.
        coding = standard_coding(bits)
        valid = tuple(b for b in range(bits) if mask & (1 << b))
        valid = tuple(b for b in valid if b < bits)
        if not valid:
            return
        move = merge_states(coding, valid)
        assert all(move[s] >= s for s in range(coding.num_states))

    @given(
        bits=st.integers(min_value=2, max_value=4),
        mask=st.integers(min_value=1, max_value=15),
    )
    def test_valid_bits_preserved_by_merge(self, bits, mask):
        # Merging must never change the value of any surviving bit.
        coding = standard_coding(bits)
        valid = tuple(b for b in range(bits) if mask & (1 << b) and b < bits)
        if not valid:
            return
        move = merge_states(coding, valid)
        for state in range(coding.num_states):
            for bit in valid:
                assert (
                    coding.states[move[state]][bit] == coding.states[state][bit]
                )

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_sense_counts_never_increase(self, bits):
        coding = standard_coding(bits)
        for valid in _valid_bit_subsets(bits):
            transform = IdaTransform(coding, valid)
            for bit in valid:
                assert transform.senses(bit) <= coding.senses(bit)

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_merged_state_count_is_two_to_valid_bits(self, bits):
        # Distinct projections of the valid bits <-> merged states.
        coding = standard_coding(bits)
        for valid in _valid_bit_subsets(bits):
            transform = IdaTransform(coding, valid)
            assert len(transform.merged_states) == 1 << len(valid)

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_all_bits_valid_is_identity(self, bits):
        coding = standard_coding(bits)
        transform = IdaTransform(coding, tuple(range(bits)))
        assert transform.move_map == tuple(range(coding.num_states))
        for bit in range(bits):
            assert transform.senses(bit) == coding.senses(bit)

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_merge_is_idempotent(self, bits):
        # Applying the move map twice changes nothing further.
        coding = standard_coding(bits)
        for valid in _valid_bit_subsets(bits):
            move = merge_states(coding, valid)
            assert all(move[move[s]] == move[s] for s in range(coding.num_states))

    @pytest.mark.parametrize("bits", [3, 4])
    def test_suffix_merge_sense_counts_halve(self, bits):
        # Keeping bits k..b-1 yields the standard (b-k)-bit ladder:
        # the kept bits read with 1, 2, 4, ... senses.
        coding = standard_coding(bits)
        for start in range(1, bits):
            transform = IdaTransform(coding, tuple(range(start, bits)))
            expected = [1 << i for i in range(bits - start)]
            got = [transform.senses(bit) for bit in range(start, bits)]
            assert got == expected
