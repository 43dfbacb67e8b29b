"""Host-read resolution through one block read view.

``Ftl.host_read`` resolves a page with one :meth:`Block.read_view` call.
On aged IDA devices it must return exactly the :class:`PhysOp` the
per-field block helpers compose, for every (wordline mode, page type) a
host read meets, and a torn wordline must still raise ``KeyError``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import conventional_tlc
from repro.flash.block import CONVENTIONAL_WL
from repro.flash.geometry import Geometry
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GcPolicy
from repro.ftl.ops import OpKind, PhysOp
from repro.ftl.refresh import RefreshMode, RefreshPolicy

LPNS = 48
PERIOD_US = 1000.0


def _aged_ida_ftl(updates: list[int]) -> Ftl:
    """A tiny IDA device: a full fill old enough to refresh, then young
    update writes, then one refresh scan (IDA adjusts the old blocks;
    the young blocks stay conventional)."""
    ftl = Ftl(
        Geometry(
            channels=1,
            chips_per_channel=1,
            dies_per_chip=1,
            planes_per_die=2,
            blocks_per_plane=8,
            pages_per_block=12,
        ),
        conventional_tlc(),
        RefreshPolicy(mode=RefreshMode.IDA, period_us=PERIOD_US),
        gc_policy=GcPolicy(low_watermark=1, target_free=2),
        rng=np.random.default_rng(3),
    )
    ftl.apply_untimed_batch(list(range(LPNS)), -2.0 * PERIOD_US)
    ftl.apply_untimed_batch(updates, -0.5 * PERIOD_US)
    ftl.check_refresh(0.0)
    return ftl


def _composed(ftl: Ftl, lpn: int) -> PhysOp:
    """The read op built from the per-field block helpers."""
    block, page = ftl.table.block_of_ppn(ftl.map.lookup(lpn))
    wordline = block.wordline_of(page)
    return PhysOp(
        kind=OpKind.READ,
        block_index=block.index,
        page=page,
        senses=block.senses_for(ftl.table.sense_table, page),
        bit=block.bit_of(page),
        wl_validity=block.wordline_validity(wordline),
        from_ida=block.wl_mode(wordline) != CONVENTIONAL_WL,
    )


def _check_every_lpn(ftl: Ftl) -> set[tuple[int, int]]:
    """Compare every LPN's read; returns the (mode, bit) pairs met."""
    met = set()
    for lpn in range(LPNS):
        expected = _composed(ftl, lpn)
        assert ftl.host_read(lpn, 1.0) == expected
        block = ftl.table.blocks[expected.block_index]
        met.add((block.wl_mode(block.wordline_of(expected.page)), expected.bit))
    return met


@settings(max_examples=40, deadline=None)
@given(updates=st.lists(st.integers(0, LPNS - 1), max_size=40))
def test_host_read_equals_the_helper_composition(updates):
    _check_every_lpn(_aged_ida_ftl(updates))


def test_every_mode_and_bit_is_met():
    met = set()
    for seed in range(8):
        rng = random.Random(seed)
        met |= _check_every_lpn(_aged_ida_ftl(rng.sample(range(LPNS), 24)))
    # TLC: conventional LSB/CSB/MSB, CSB+MSB kept, MSB kept.
    assert met == {
        (CONVENTIONAL_WL, 0),
        (CONVENTIONAL_WL, 1),
        (CONVENTIONAL_WL, 2),
        (1, 1),
        (1, 2),
        (2, 2),
    }


def test_torn_wordline_raises_key_error():
    ftl = _aged_ida_ftl([])
    ppn = ftl.map.lookup(0)
    block, page = ftl.table.block_of_ppn(ppn)
    block.mark_wordline_torn(block.wordline_of(page))
    with pytest.raises(KeyError, match="torn"):
        ftl.host_read(0, 1.0)
