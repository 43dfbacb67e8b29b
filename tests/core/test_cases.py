"""Tests for the Table I wordline classifier (repro.core.cases)."""

from __future__ import annotations

import pytest

from repro.core.cases import (
    TLC_CASE_TABLE,
    WordlineAction,
    classify_tlc_case,
    classify_validity,
    validity_table,
)


class TestTableOne:
    """Each of the eight Table I rows, exactly as printed in the paper."""

    def test_case1_all_valid(self):
        d = classify_tlc_case(True, True, True)
        assert d.case == 1
        assert d.action is WordlineAction.ADJUST
        assert d.pages_to_move == (0,)  # move LSB
        assert d.adjust_bits == (1, 2)  # adjust for CSB/MSB

    def test_case2_lsb_invalid(self):
        d = classify_tlc_case(False, True, True)
        assert d.case == 2
        assert d.action is WordlineAction.ADJUST
        assert d.pages_to_move == ()
        assert d.adjust_bits == (1, 2)

    def test_case3_csb_invalid(self):
        d = classify_tlc_case(True, False, True)
        assert d.case == 3
        assert d.action is WordlineAction.ADJUST
        assert d.pages_to_move == (0,)  # move LSB
        assert d.adjust_bits == (2,)  # adjust for MSB only

    def test_case4_lsb_csb_invalid(self):
        d = classify_tlc_case(False, False, True)
        assert d.case == 4
        assert d.action is WordlineAction.ADJUST
        assert d.pages_to_move == ()
        assert d.adjust_bits == (2,)

    def test_case5_msb_invalid(self):
        d = classify_tlc_case(True, True, False)
        assert d.case == 5
        assert d.action is WordlineAction.MOVE
        assert d.pages_to_move == (0, 1)  # move LSB and CSB
        assert d.adjust_bits == ()

    def test_case6_only_csb_valid(self):
        d = classify_tlc_case(False, True, False)
        assert d.case == 6
        assert d.action is WordlineAction.MOVE
        assert d.pages_to_move == (1,)  # move CSB

    def test_case7_only_lsb_valid(self):
        d = classify_tlc_case(True, False, False)
        assert d.case == 7
        assert d.action is WordlineAction.MOVE
        assert d.pages_to_move == (0,)  # move LSB

    def test_case8_nothing_valid(self):
        d = classify_tlc_case(False, False, False)
        assert d.case == 8
        assert d.action is WordlineAction.NOTHING
        assert d.pages_to_move == ()
        assert d.adjust_bits == ()

    def test_table_covers_all_cases(self):
        assert sorted(TLC_CASE_TABLE) == list(range(1, 9))

    def test_ida_applies_exactly_for_cases_1_to_4(self):
        for case, decision in TLC_CASE_TABLE.items():
            assert decision.applies_ida == (case <= 4)


class TestGenericDensities:
    def test_mlc_msb_valid_lsb_invalid(self):
        d = classify_validity((False, True))
        assert d.action is WordlineAction.ADJUST
        assert d.adjust_bits == (1,)
        assert d.case is None  # case numbers are TLC-specific

    def test_mlc_both_valid_moves_lsb(self):
        d = classify_validity((True, True))
        assert d.action is WordlineAction.ADJUST
        assert d.pages_to_move == (0,)
        assert d.adjust_bits == (1,)

    def test_mlc_msb_invalid(self):
        d = classify_validity((True, False))
        assert d.action is WordlineAction.MOVE
        assert d.pages_to_move == (0,)

    def test_qlc_fig6_scenario(self):
        # Bits 1 and 2 invalidated, bits 3 and 4 valid.
        d = classify_validity((False, False, True, True))
        assert d.action is WordlineAction.ADJUST
        assert d.adjust_bits == (2, 3)
        assert d.pages_to_move == ()

    def test_qlc_gap_in_valid_run(self):
        # bit2 invalid splits the run: only bit3 is kept; bits 0-1 move.
        d = classify_validity((True, True, False, True))
        assert d.action is WordlineAction.ADJUST
        assert d.adjust_bits == (3,)
        assert d.pages_to_move == (0, 1)

    def test_qlc_all_valid_keeps_suffix_above_lsb(self):
        d = classify_validity((True, True, True, True))
        assert d.adjust_bits == (1, 2, 3)
        assert d.pages_to_move == (0,)

    def test_single_bit_cell_rejected(self):
        with pytest.raises(ValueError, match="multi-bit"):
            classify_validity((True,))


class TestDecisionInvariants:
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_every_valid_page_is_handled_exactly_once(self, bits):
        # Each valid page is either moved or kept; never both, never lost.
        for mask in range(1 << bits):
            flags = tuple(bool(mask & (1 << b)) for b in range(bits))
            d = classify_validity(flags)
            kept = set(d.adjust_bits) & {b for b in range(bits) if flags[b]}
            moved = set(d.pages_to_move)
            valid = {b for b in range(bits) if flags[b]}
            assert moved | kept == valid
            assert not (moved & kept)

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_adjust_bits_form_top_suffix(self, bits):
        for mask in range(1 << bits):
            flags = tuple(bool(mask & (1 << b)) for b in range(bits))
            d = classify_validity(flags)
            if d.adjust_bits:
                assert d.adjust_bits[-1] == bits - 1
                assert list(d.adjust_bits) == list(
                    range(d.adjust_bits[0], bits)
                )
                assert d.adjust_bits[0] >= 1  # never keeps the LSB slot


class TestValidityTable:
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_table_agrees_with_classifier_for_every_mask(self, bits):
        table = validity_table(bits)
        assert all(len(column) == 1 << bits for column in table)
        for mask in range(1 << bits):
            flags = tuple(bool(mask & (1 << b)) for b in range(bits))
            d = classify_validity(flags)
            moved = {b for b in range(bits) if table.move_mask[mask] >> b & 1}
            kept = {b for b in range(bits) if table.keep_mask[mask] >> b & 1}
            assert moved == set(d.pages_to_move)
            assert kept == (set(d.adjust_bits) if d.applies_ida else set())
            start = d.adjust_bits[0] if d.applies_ida else 0
            assert table.start_bit[mask] == start

    def test_table_is_built_once_and_read_only(self):
        table = validity_table(3)
        assert validity_table(3) is table
        with pytest.raises(ValueError):
            table.keep_mask[0] = 1
