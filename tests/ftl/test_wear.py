"""Tests for wear accounting (repro.ftl.wear)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import conventional_tlc
from repro.flash.geometry import Geometry
from repro.ftl.blockstatus import BlockStatusTable
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GcPolicy
from repro.ftl.ops import FtlCounters
from repro.ftl.refresh import RefreshMode, RefreshPolicy
from repro.ftl.wear import collect_wear, write_amplification


def _table():
    geometry = Geometry(
        channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=4, pages_per_block=12,
    )
    return BlockStatusTable(geometry, conventional_tlc())


class TestWearStats:
    def test_fresh_device(self):
        stats = collect_wear(_table())
        assert stats.total_erases == 0
        assert stats.wear_spread == 0
        assert stats.remaining_lifetime_fraction() == 1.0

    def test_uneven_wear(self):
        table = _table()
        table.blocks[0].erase_count = 10
        table.blocks[1].erase_count = 4
        stats = collect_wear(table)
        assert stats.total_erases == 14
        assert stats.max_erases == 10
        assert stats.min_erases == 0
        assert stats.wear_spread == 10
        assert stats.mean_erases == pytest.approx(3.5)

    def test_lifetime_fraction(self):
        table = _table()
        table.blocks[0].erase_count = 1500
        stats = collect_wear(table, rated_pe_cycles=3000)
        assert stats.worst_block_life_used == pytest.approx(0.5)
        assert stats.remaining_lifetime_fraction() == pytest.approx(0.5)

    def test_life_used_saturates(self):
        table = _table()
        table.blocks[0].erase_count = 9999
        assert collect_wear(table, rated_pe_cycles=3000).worst_block_life_used == 1.0


class TestWriteAmplification:
    def test_no_host_writes(self):
        assert write_amplification(FtlCounters()) == 1.0

    def test_pure_host_writes(self):
        counters = FtlCounters(host_writes=100)
        assert write_amplification(counters) == 1.0

    def test_gc_and_refresh_amplify(self):
        counters = FtlCounters(
            host_writes=100, gc_page_moves=30, refresh_page_moves=50,
            refresh_corrupted_pages=20,
        )
        assert write_amplification(counters) == pytest.approx(2.0)

    def test_ida_refresh_lowers_waf(self):
        """The paper's claim: IDA refresh writes fewer pages overall."""

        def run(mode):
            geometry = Geometry(
                channels=1, chips_per_channel=1, dies_per_chip=1,
                planes_per_die=2, blocks_per_plane=6, pages_per_block=12,
            )
            ftl = Ftl(
                geometry,
                conventional_tlc(),
                RefreshPolicy(mode=mode, period_us=1000.0, error_rate=0.2),
                gc_policy=GcPolicy(low_watermark=1, target_free=2),
                rng=np.random.default_rng(0),
            )
            for lpn in range(24):
                ftl.write_untimed(lpn, -2000.0)
            # One host write so WAF is defined, then a refresh cycle.
            ftl.host_write(0, 0.0)
            ftl.check_refresh(1.0)
            return write_amplification(ftl.counters)

        assert run(RefreshMode.IDA) < run(RefreshMode.BASELINE)
