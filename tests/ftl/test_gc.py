"""Tests for GC victim selection (repro.ftl.gc)."""

from __future__ import annotations

import pytest

from repro.ftl.gc import GcPolicy, select_victim

from ..flash._pool_oracle import plane_pool


def _pool_with_filled_blocks(valid_counts, pages=6):
    """A pool whose blocks are full with the given number of valid pages."""
    pool = plane_pool(len(valid_counts) + 1, pages)
    for valid in valid_counts:
        block = pool.active_block(0.0)
        for _ in range(pages):
            block.program_next(0.0)
        for page in range(pages - valid):
            block.invalidate(page)
        pool.retire_active()
    return pool


class TestVictimSelection:
    def test_picks_fewest_valid_pages(self):
        pool = _pool_with_filled_blocks([4, 1, 3])
        victim = select_victim(pool)
        assert victim is not None
        assert victim.valid_count == 1

    def test_tie_breaks_on_erase_count(self):
        pool = _pool_with_filled_blocks([2, 2])
        pool.blocks[0].erase_count = 5
        victim = select_victim(pool)
        assert victim.index == 1  # lower wear preferred

    def test_skips_locked_blocks(self):
        pool = _pool_with_filled_blocks([1, 3])
        pool.blocks[0].locked = True
        victim = select_victim(pool)
        assert victim.index == 1

    def test_no_candidates_returns_none(self):
        pool = _pool_with_filled_blocks([])
        assert select_victim(pool) is None

    def test_partial_blocks_ineligible(self):
        pool = _pool_with_filled_blocks([2])
        # Open a second block but only half-fill it.
        block = pool.active_block(0.0)
        block.program_next(0.0)
        victim = select_victim(pool)
        assert victim.index == 0


class TestPolicy:
    def test_defaults_valid(self):
        policy = GcPolicy()
        assert policy.target_free >= policy.low_watermark >= 1

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ValueError):
            GcPolicy(low_watermark=0)
        with pytest.raises(ValueError):
            GcPolicy(low_watermark=4, target_free=2)
