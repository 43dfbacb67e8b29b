"""Tests for the GrayCoding machinery (repro.core.coding)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.coding import GrayCoding, sense_level, standard_coding


class TestSenseLevel:
    def test_powers_of_two(self):
        assert sense_level(1) == 0
        assert sense_level(2) == 1
        assert sense_level(4) == 2
        assert sense_level(8) == 3

    @pytest.mark.parametrize("bad", [0, -1, 3, 5, 6, 7, 9])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ValueError):
            sense_level(bad)


class TestValidation:
    def test_rejects_wrong_state_count(self):
        with pytest.raises(ValueError, match="needs 4 states"):
            GrayCoding("bad", ((1, 1), (0, 1), (0, 0)))

    def test_rejects_duplicate_patterns(self):
        with pytest.raises(ValueError, match="duplicate"):
            GrayCoding("bad", ((1, 1), (0, 1), (1, 1), (0, 0)))

    def test_rejects_non_gray_transition(self):
        # (1,1) -> (0,0) flips two bits at once.
        with pytest.raises(ValueError, match="exactly one bit"):
            GrayCoding("bad", ((1, 1), (0, 0), (0, 1), (1, 0)))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="non-binary"):
            GrayCoding("bad", ((1, 2), (0, 2), (0, 0), (1, 0)))

    def test_rejects_ragged_states(self):
        with pytest.raises(ValueError, match="bits"):
            GrayCoding("bad", ((1, 1), (0, 1), (0, 0, 1), (1, 0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GrayCoding("bad", ())


class TestStandardFamily:
    @pytest.mark.parametrize(
        "bits,expected", [(1, (1,)), (2, (1, 2)), (3, (1, 2, 4)), (4, (1, 2, 4, 8))]
    )
    def test_sense_counts(self, bits, expected):
        assert standard_coding(bits).sense_counts() == expected

    def test_erased_state_is_all_ones(self):
        for bits in range(1, 5):
            assert standard_coding(bits).states[0] == (1,) * bits

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            standard_coding(0)

    def test_names(self):
        assert standard_coding(3).name == "tlc-1-2-4"
        assert standard_coding(3, name="custom").name == "custom"
        assert standard_coding(5).name == "standard-5bit"

    def test_total_boundaries_cover_all(self):
        # Every inter-state boundary must be used by exactly one bit
        # (adjacent Gray states differ in exactly one bit).
        for bits in range(1, 5):
            coding = standard_coding(bits)
            used = [b for bit in range(bits) for b in coding.boundaries(bit)]
            assert sorted(used) == list(range(1, coding.num_states))


class TestPaperFigure2:
    """The exact Fig. 2 table: states S1..S8 as (LSB, CSB, MSB)."""

    EXPECTED = [
        (1, 1, 1),  # S1 (erased)
        (1, 1, 0),  # S2
        (1, 0, 0),  # S3
        (1, 0, 1),  # S4
        (0, 0, 1),  # S5
        (0, 0, 0),  # S6
        (0, 1, 0),  # S7
        (0, 1, 1),  # S8
    ]

    def test_state_table(self, tlc):
        assert list(tlc.states) == self.EXPECTED

    def test_writing_001_lands_in_s5(self, tlc):
        # Paper Fig. 3: writing LSB=0, CSB=0, MSB=1 forms state S5.
        assert tlc.encode((0, 0, 1)) == 4

    def test_lsb_reads_with_v4(self, tlc):
        assert tlc.read_voltages(0) == ("V4",)

    def test_csb_reads_with_v2_v6(self, tlc):
        assert tlc.read_voltages(1) == ("V2", "V6")

    def test_msb_reads_with_v1_v3_v5_v7(self, tlc):
        assert tlc.read_voltages(2) == ("V1", "V3", "V5", "V7")


class TestQueries:
    def test_state_for_roundtrip(self, tlc):
        for state in range(8):
            assert tlc.state_for(tlc.decode(state)) == state

    def test_state_for_unknown_raises(self, mlc):
        with pytest.raises(KeyError):
            mlc.state_for((1, 1, 1))

    def test_bit_value(self, tlc):
        assert tlc.decode(4)[2] == 1  # S5 MSB
        assert tlc.decode(4)[0] == 0  # S5 LSB

    def test_boundaries_out_of_range(self, tlc):
        with pytest.raises(IndexError):
            tlc.boundaries(3)

    def test_describe_mentions_all_states(self, tlc):
        text = tlc.describe()
        for s in range(1, 9):
            assert f"S{s}" in text


class TestSensingRule:
    """Hardware sensing (boundary comparisons) must agree with decode."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_sensing_matches_decode_standard(self, bits):
        coding = standard_coding(bits)
        for state in range(coding.num_states):
            for bit in range(bits):
                assert coding.read_bit_by_sensing(state, bit) == coding.states[state][bit]

    def test_sensing_matches_decode_232(self, tlc232):
        for state in range(8):
            for bit in range(3):
                assert (
                    tlc232.read_bit_by_sensing(state, bit)
                    == tlc232.states[state][bit]
                )


@st.composite
def gray_codings(draw):
    """Random valid Gray codings built from random flip sequences."""
    bits = draw(st.integers(min_value=1, max_value=4))
    num_states = 1 << bits
    # Build a random Hamiltonian Gray path on the hypercube by shuffling
    # the standard reflected code's bit roles and inverting random bits.
    permutation = draw(st.permutations(range(bits)))
    inversion = draw(st.tuples(*[st.integers(0, 1) for _ in range(bits)]))
    base = standard_coding(bits)
    states = tuple(
        tuple(base.states[s][permutation[b]] ^ inversion[b] for b in range(bits))
        for s in range(num_states)
    )
    return GrayCoding("random", states)


class TestProperties:
    @given(gray_codings())
    def test_sense_counts_sum_to_boundaries(self, coding):
        assert sum(coding.sense_counts()) == coding.num_states - 1

    @given(gray_codings())
    def test_sensing_rule_always_matches_decode(self, coding):
        for state in range(coding.num_states):
            for bit in range(coding.bits):
                assert (
                    coding.read_bit_by_sensing(state, bit)
                    == coding.states[state][bit]
                )

    @given(gray_codings())
    def test_encode_decode_roundtrip(self, coding):
        for state in range(coding.num_states):
            assert coding.encode(coding.decode(state)) == state
