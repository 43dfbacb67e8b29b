"""Tests for refresh planning (repro.ftl.refresh).

The plan is arrays; the Table I case behind each wordline's treatment is
checked through :func:`repro.core.cases.classify_validity`.
"""

from __future__ import annotations

import pytest

from repro.core.cases import classify_validity
from repro.flash.block import Block
from repro.ftl.refresh import (
    RefreshMode,
    RefreshPolicy,
    RefreshReport,
    plan_refresh,
)


def _tlc_block(wordline_validity):
    """A full TLC block with per-wordline validity as given."""
    wordlines = len(wordline_validity)
    block = Block(index=0, pages_per_block=wordlines * 3, bits_per_cell=3)
    for _ in range(wordlines * 3):
        block.program_next(0.0)
    for wl, validity in enumerate(wordline_validity):
        for bit, valid in enumerate(validity):
            if not valid:
                block.invalidate(wl * 3 + bit)
    return block


def _case(block, wordline):
    """Table I case number of one wordline, via the classifier."""
    return classify_validity(block.wordline_validity(wordline)).case


class TestBaselinePlan:
    def test_moves_every_valid_page(self):
        block = _tlc_block([(True, True, True), (False, True, True)])
        plan = plan_refresh(block, RefreshMode.BASELINE)
        assert plan.moves.tolist() == block.valid_pages()
        assert plan.kept.tolist() == []
        assert plan.adjusted_wordlines.tolist() == []

    def test_skips_fully_invalid_wordlines(self):
        block = _tlc_block([(False, False, False), (True, True, True)])
        plan = plan_refresh(block, RefreshMode.BASELINE)
        assert plan.moves.tolist() == [3, 4, 5]


class TestIdaPlan:
    def test_case2_keeps_csb_and_msb(self):
        block = _tlc_block([(False, True, True)])
        plan = plan_refresh(block, RefreshMode.IDA)
        assert _case(block, 0) == 2
        assert plan.adjusted_wordlines.tolist() == [0]
        assert plan.start_bits.tolist() == [1]
        assert plan.moves.tolist() == []
        assert plan.kept.tolist() == [1, 2]

    def test_case1_converts_to_case2(self):
        block = _tlc_block([(True, True, True)])
        plan = plan_refresh(block, RefreshMode.IDA)
        assert _case(block, 0) == 1
        assert plan.adjusted_wordlines.tolist() == [0]
        assert plan.moves.tolist() == [0]  # LSB evicted
        assert plan.kept.tolist() == [1, 2]

    def test_case4_keeps_msb_only(self):
        block = _tlc_block([(False, False, True)])
        plan = plan_refresh(block, RefreshMode.IDA)
        assert _case(block, 0) == 4
        assert plan.adjusted_wordlines.tolist() == [0]
        assert plan.start_bits.tolist() == [2]
        assert plan.kept.tolist() == [2]

    def test_cases_5_to_7_move_like_baseline(self):
        block = _tlc_block(
            [(True, True, False), (False, True, False), (True, False, False)]
        )
        plan = plan_refresh(block, RefreshMode.IDA)
        assert [_case(block, wl) for wl in range(3)] == [5, 6, 7]
        assert plan.kept.tolist() == []
        assert plan.adjusted_wordlines.tolist() == []
        assert plan.moves.tolist() == block.valid_pages()

    def test_old_ida_block_is_fully_reclaimed(self):
        # Sec. III-C: IDA blocks are force-reclaimed at the next refresh.
        block = _tlc_block([(False, True, True)])
        block.set_wordline_ida(0, 1)
        plan = plan_refresh(block, RefreshMode.IDA)
        assert plan.kept.tolist() == []
        assert plan.adjusted_wordlines.tolist() == []
        assert plan.moves.tolist() == [1, 2]

    def test_mixed_block_accounting(self):
        block = _tlc_block(
            [
                (True, True, True),   # case 1: move 1, keep 2
                (False, True, True),  # case 2: keep 2
                (False, False, True), # case 4: keep 1
                (True, True, False),  # case 5: move 2
                (False, False, False),  # case 8: nothing
            ]
        )
        plan = plan_refresh(block, RefreshMode.IDA)
        assert [_case(block, wl) for wl in range(5)] == [1, 2, 4, 5, 8]
        assert len(plan.valid_pages) == 8
        assert len(plan.moves) == 3
        assert len(plan.kept) == 5
        assert plan.adjusted_wordlines.tolist() == [0, 1, 2]
        assert plan.start_bits.tolist() == [1, 1, 2]

    def test_every_valid_page_is_moved_or_kept(self):
        validities = [
            (l, c, m)
            for l in (True, False)
            for c in (True, False)
            for m in (True, False)
        ]
        block = _tlc_block(validities)
        plan = plan_refresh(block, RefreshMode.IDA)
        handled = sorted(plan.moves.tolist() + plan.kept.tolist())
        assert handled == block.valid_pages()
        assert not set(plan.moves.tolist()) & set(plan.kept.tolist())


class TestReportArithmetic:
    def test_paper_overhead_formulas(self):
        # Sec. III-C: extra reads = N_target, extra writes = N_error,
        # total reads = N_valid + N_target, total writes = N_valid' + N_error.
        report = RefreshReport(
            block_index=0, n_valid=113, n_moved=55, n_target=58, n_error=12
        )
        assert report.extra_reads == 58
        assert report.extra_writes == 12
        assert report.total_reads == 171
        assert report.total_writes == 67


class TestPolicy:
    def test_scan_interval_defaults_to_sixteenth(self):
        policy = RefreshPolicy(period_us=1600.0)
        assert policy.scan_interval_us == 100.0

    def test_explicit_scan_interval(self):
        policy = RefreshPolicy(period_us=1600.0, check_interval_us=50.0)
        assert policy.scan_interval_us == 50.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RefreshPolicy(period_us=0.0)
        with pytest.raises(ValueError):
            RefreshPolicy(error_rate=1.5)
