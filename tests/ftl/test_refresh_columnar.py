"""The columnar refresh equals the per-wordline scalar flow, byte for byte.

``Ftl.check_refresh`` plans each block from one validity matrix and
programs a tick's moves in one pending run (safe segments where a block
would outgrow it); ``_refresh_oracle.py`` keeps the flow it
replaced (one Table I classification per wordline, one ``_move_page``
per page) as its oracle.  Seeded draws drive twin FTLs through the same
host writes, untimed batches and refresh ticks, on geometries small
enough that GC watermarks are crossed mid-refresh and IDA blocks come
due again.  One twin refreshes through ``Ftl.check_refresh``, the other
through the oracle.  After every step both must hold identical op lists,
device columns (the adjust journal among them), maps, pools, allocator
cursor, counters, refresh reports, trace events and RNG state.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import conventional_mlc, conventional_qlc, conventional_tlc
from repro.flash.geometry import Geometry
from repro.flash.state import FLAG_IS_IDA
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GcPolicy
from repro.ftl.refresh import RefreshMode, RefreshPolicy
from repro.obs.tracer import MemorySink, Tracer
from tests.ftl import _refresh_oracle as oracle
from tests.ftl.test_untimed_batch import _fingerprint

PERIOD_US = 1000.0
FOOTPRINT = 0.35
CODINGS = {2: conventional_mlc, 3: conventional_tlc, 4: conventional_qlc}
#: (mode, error rate) of every refresh flow the twins are driven through.
FLOWS = [
    (RefreshMode.BASELINE, 0.2),
    (RefreshMode.IDA, 0.0),
    (RefreshMode.IDA, 0.2),
    (RefreshMode.IDA, 0.5),
    (RefreshMode.IDA, 1.0),
]


def _ftl(
    bits: int,
    mode: RefreshMode = RefreshMode.IDA,
    error_rate: float = 0.2,
    *,
    planes: int = 4,
    blocks_per_plane: int = 12,
    pages_per_block: int = 96,
    gc: GcPolicy | None = None,
    armed: bool = False,
) -> Ftl:
    """A small FTL; ``armed`` enables fault recovery and a memory tracer."""
    geometry = Geometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=planes,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        bits_per_cell=bits,
    )
    ftl = Ftl(
        geometry,
        CODINGS[bits](),
        RefreshPolicy(mode=mode, period_us=PERIOD_US, error_rate=error_rate),
        gc_policy=gc or GcPolicy(low_watermark=2, target_free=3),
        rng=np.random.default_rng(11),
        tracer=Tracer(MemorySink()) if armed else None,
    )
    if armed:
        ftl.enable_fault_recovery()
    return ftl


def _state(ftl: Ftl) -> dict:
    return {
        **_fingerprint(ftl),
        "reports": list(ftl.refresh_reports),
        "rng": ftl.rng.bit_generator.state,
        "events": list(getattr(ftl.tracer.sink, "events", ())),
    }


class _Probe:
    """Counts how the columnar twin's refresh ticks moved their pages.

    ``segments`` and ``scalar_moves`` count the overflow fallback's bulk
    segments and page-by-page moves.  Every program of a tick's pending
    run is classified by where ``check_refresh`` flushed it: a flush
    followed by ``_relocate`` is an overflow fallback, the tick's last
    flush is its end, and any other flush that programs pages was forced
    by a due open block.
    """

    def __init__(self, ftl: Ftl) -> None:
        self.segments = 0
        self.scalar_moves = 0
        self.gc_in_refresh = 0
        self.ida_reclaims = 0
        self.multi_block_runs = 0
        self.open_block_flushes = 0
        self.gc_fallbacks = 0
        self._in_tick = False
        self._in_fallback = False
        #: This tick's flushes and fallbacks: ``("flush", pages)`` or
        #: ``("fallback", gc_fired)``, in call order.
        self._calls: list[tuple[str, int]] = []
        segment, move_page = ftl._relocate_segment, ftl._move_page
        program_moves, relocate = ftl._program_moves, ftl._relocate

        def counting_segment(*args) -> None:
            self.segments += 1
            segment(*args)

        def counting_move(*args):
            self.scalar_moves += self._in_tick
            return move_page(*args)

        def counting_program(run, now_us) -> None:
            if self._in_tick and not self._in_fallback:
                self._calls.append(("flush", run.length))
                if run.length:
                    lpns = np.concatenate(run.lpns)
                    sources = ftl.map.lookup_many(lpns) // ftl.geometry.pages_per_block
                    self.multi_block_runs += len(np.unique(sources)) > 1
            program_moves(run, now_us)

        def counting_relocate(*args) -> None:
            gc_before = ftl.counters.gc_invocations
            self._in_fallback = True
            try:
                relocate(*args)
            finally:
                self._in_fallback = False
            self._calls.append(("fallback", ftl.counters.gc_invocations > gc_before))

        ftl._relocate_segment = counting_segment
        ftl._move_page = counting_move
        ftl._program_moves = counting_program
        ftl._relocate = counting_relocate
        self.ftl = ftl

    def tick(self, now_us: float):
        ftl = self.ftl
        ida_before = set(np.flatnonzero(ftl.table.state.flags_np & FLAG_IS_IDA).tolist())
        reports_before = len(ftl.refresh_reports)
        gc_before = ftl.counters.gc_invocations
        self._in_tick = True
        self._calls = []
        try:
            ops = ftl.check_refresh(now_us)
        finally:
            self._in_tick = False
        self.gc_in_refresh += ftl.counters.gc_invocations - gc_before
        self.ida_reclaims += sum(
            report.block_index in ida_before
            for report in ftl.refresh_reports[reports_before:]
        )
        calls = self._calls
        for position, (kind, value) in enumerate(calls[:-1]):
            if kind == "flush" and value and calls[position + 1][0] != "fallback":
                self.open_block_flushes += 1
            self.gc_fallbacks += kind == "fallback" and value
        return ops


def _drive(columnar: Ftl, scalar: Ftl, seed: int, steps: int = 40) -> _Probe:
    """Seeded host writes, untimed batches and ticks on both twins."""
    rng = random.Random(seed)
    probe = _Probe(columnar)
    footprint = int(FOOTPRINT * columnar.geometry.total_pages)
    columnar.apply_untimed_batch(range(footprint), 0.0)
    scalar.apply_untimed_batch(range(footprint), 0.0)
    now = 0.0
    for _ in range(steps):
        now += rng.uniform(100.0, 600.0)
        roll = rng.random()
        if roll < 0.4:
            assert list(probe.tick(now)) == oracle.check_refresh(scalar, now)
        elif roll < 0.7:
            for _ in range(rng.choice((1, 8, 40))):
                lpn = rng.randrange(footprint)
                assert columnar.host_write(lpn, now) == scalar.host_write(lpn, now)
        else:
            hot = rng.sample(range(footprint), 12)
            lpns = [rng.choice(hot) for _ in range(rng.choice((20, 90, 250)))]
            columnar.apply_untimed_batch(lpns, now)
            scalar.apply_untimed_batch(lpns, now)
        assert _state(columnar) == _state(scalar)
    return probe


@pytest.mark.parametrize("armed", [False, True], ids=["plain", "armed-traced"])
@pytest.mark.parametrize(
    "mode,error_rate", FLOWS, ids=[f"{m.value}-E{e:g}" for m, e in FLOWS]
)
@pytest.mark.parametrize("bits", sorted(CODINGS), ids=["mlc", "tlc", "qlc"])
def test_columnar_refresh_equals_oracle(bits, mode, error_rate, armed) -> None:
    columnar = _ftl(bits, mode, error_rate, armed=armed)
    scalar = _ftl(bits, mode, error_rate, armed=armed)
    probe = _drive(columnar, scalar, seed=bits * 100 + int(error_rate * 10))

    # The draw must reach every regime the columnar path special-cases.
    assert columnar.refresh_reports
    assert probe.segments > 0
    assert probe.scalar_moves > 0
    assert probe.gc_in_refresh > 0
    assert probe.multi_block_runs > 0
    assert probe.open_block_flushes > 0
    assert probe.gc_fallbacks > 0
    if mode is RefreshMode.IDA:
        assert columnar.counters.refresh_adjusted_wordlines > 0
    if mode is RefreshMode.IDA and error_rate < 1.0:
        # Blocks left alive as IDA blocks came due again (at E = 1 every
        # kept page is written back, so no IDA block survives).
        assert probe.ida_reclaims > 0


# ----------------------------------------------------------------------
# Which blocks a tick refreshes: the age mask against the oracle's live
# per-block checks.
# ----------------------------------------------------------------------
def _twins(**kwargs) -> tuple[Ftl, Ftl]:
    return _ftl(3, **kwargs), _ftl(3, **kwargs)


def _write(ftls: tuple[Ftl, ...], lpns, now_us: float) -> None:
    for ftl in ftls:
        for lpn in lpns:
            ftl.host_write(lpn, now_us)


def _tick(columnar: Ftl, scalar: Ftl, now_us: float) -> list[int]:
    """One tick on both twins; the block indices refreshed, in order."""
    before = len(columnar.refresh_reports)
    assert list(columnar.check_refresh(now_us)) == oracle.check_refresh(scalar, now_us)
    assert _state(columnar) == _state(scalar)
    return [report.block_index for report in columnar.refresh_reports[before:]]


def test_active_block_filled_mid_tick_is_refreshed_in_that_tick() -> None:
    # Two planes; each holds one full block and an active block whose
    # first program predates the period, with 24 of its 48 pages free.
    twins = _twins(mode=RefreshMode.BASELINE, planes=2, pages_per_block=48)
    _write(twins, range(144), 0.0)
    columnar, scalar = twins
    late = columnar.table.planes[1]
    assert late.active == 1 and not late.blocks[1].is_full
    # Plane 0's first refresh writes 24 pages to each plane, filling
    # plane 1's active block before plane 1 is reached.
    refreshed = _tick(columnar, scalar, PERIOD_US)
    assert late.blocks[1].index in refreshed
    assert refreshed.index(late.blocks[1].index) > refreshed.index(0)


def test_open_block_sealed_by_pending_moves_is_refreshed_in_block_order() -> None:
    # Plane 1 opens block 3 before block 0, so its open block (0) has a
    # lower index than its full one (3).  Both are due; plane 0's open
    # block is not (its pages carry a later time).
    twins = _twins(mode=RefreshMode.BASELINE, planes=2, pages_per_block=48)
    for ftl in twins:
        ftl.table.planes[1].free.remove(3)
        ftl.table.planes[1].free.appendleft(3)
        ftl.apply_untimed_batch(range(96), 0.0)
        ftl.apply_untimed_batch(range(96, 144), [PERIOD_US / 2, 0.0] * 24)
    columnar, scalar = twins
    late = columnar.table.planes[1]
    assert late.active == 0 and late.in_use().tolist() == [3]
    # Plane 0's block 0 stages 48 moves, which fill both open blocks.
    # Plane 1 must see its block 0 sealed before it lists its blocks.
    refreshed = _tick(columnar, scalar, PERIOD_US)
    assert refreshed[:3] == [0, late.blocks[0].index, late.blocks[3].index]


def test_due_block_erased_by_gc_mid_tick_is_skipped() -> None:
    twins = _twins(
        mode=RefreshMode.BASELINE,
        planes=1,
        blocks_per_plane=8,
        pages_per_block=48,
        gc=GcPolicy(low_watermark=2, target_free=2),
    )
    _write(twins, range(96), 0.0)  # blocks 0 and 1, both due at the tick
    # Leave block 0 with 24 valid pages and block 1 with 2, then fill
    # blocks 2-5 with young data: two free blocks remain.
    _write(twins, [*range(24), *range(48, 94)], PERIOD_US / 2)
    _write(twins, range(96, 218), PERIOD_US / 2)
    columnar, scalar = twins
    pool = columnar.table.planes[0]
    assert pool.free_count == 2 and pool.active is None
    assert [pool.blocks[i].valid_count for i in (0, 1)] == [24, 2]
    # Block 0's second move drops the plane below the watermark; GC
    # reclaims block 1 before the tick reaches it.
    assert _tick(columnar, scalar, PERIOD_US) == [0]
    assert pool.blocks[1].erase_count == 1 and 1 in pool.free


def test_block_that_just_became_ida_is_not_refreshed_again() -> None:
    twins = _twins(error_rate=0.0, planes=1, pages_per_block=48)
    _write(twins, range(96), 0.0)
    _write(twins, range(0, 48, 3), PERIOD_US / 2)  # every LSB of block 0
    columnar, scalar = twins
    block = columnar.table.blocks[0]
    assert _tick(columnar, scalar, PERIOD_US) == [0, 1]
    assert block.is_ida and block.programmed_at_us == PERIOD_US
    # Same instant again: block 0's age restarted, so only blocks the
    # first tick left due could come up — and none did.
    assert _tick(columnar, scalar, PERIOD_US) == []
    # One period later the IDA block is force-reclaimed (Sec. III-C).
    before = len(columnar.refresh_reports)
    assert _tick(columnar, scalar, 2 * PERIOD_US)[0] == 0
    reclaim = columnar.refresh_reports[before]
    assert reclaim.n_moved == reclaim.n_valid and reclaim.n_adjusted_wordlines == 0


def test_failed_refresh_leaves_its_block_unlocked() -> None:
    ftl = _ftl(
        3,
        RefreshMode.BASELINE,
        planes=1,
        blocks_per_plane=3,
        pages_per_block=48,
        gc=GcPolicy(low_watermark=1, target_free=1),
    )
    _write((ftl,), range(96), 0.0)  # blocks 0 and 1 full of valid data
    # The first move opens block 2; the second needs GC, whose only
    # victim holds nothing but valid pages.
    with pytest.raises(RuntimeError, match="full of valid data"):
        ftl.check_refresh(PERIOD_US)
    assert not ftl.table.blocks[0].locked


def test_unreadable_page_raises_as_the_scalar_read_does() -> None:
    columnar, scalar = twins = _twins(planes=1, pages_per_block=48)
    _write(twins, range(96), 0.0)
    for ftl in twins:
        ftl.table.blocks[0].mark_wordline_torn(2)
    with pytest.raises(KeyError, match="torn") as raised:
        columnar.check_refresh(PERIOD_US)
    with pytest.raises(KeyError, match="torn") as expected:
        oracle.check_refresh(scalar, PERIOD_US)
    assert str(raised.value) == str(expected.value)
    assert not columnar.table.blocks[0].locked


def test_short_move_lists_of_one_tick_share_one_program_run() -> None:
    # Four planes of 48-page blocks.  The first 384 writes fill blocks
    # 0 and 1 of every plane; rewriting all but 4 LPNs per block leaves
    # each a handful of pages to refresh (LSBs to move, MSBs to keep)
    # and every plane's open block with 8 free pages: room for 32 moves.
    columnar, scalar = twins = _twins(planes=4, pages_per_block=48)
    _write(twins, range(384), 0.0)
    keep = {lpn for lpn in range(384) if (lpn // 4) % 24 in (0, 5)}
    _write(twins, [lpn for lpn in range(384) if lpn not in keep], PERIOD_US / 2)
    assert columnar._safe_run(columnar.geometry.total_pages) == 32
    programs = []
    program_run = columnar._program_run

    def counting_program(*args):
        programs.append(len(args[0]))
        return program_run(*args)

    columnar._program_run = counting_program
    gc_before = columnar.counters.gc_invocations
    refreshed = _tick(columnar, scalar, PERIOD_US)
    assert len(refreshed) == 8
    # No block moved 32 pages, yet the tick programmed one run.
    moved = [r.n_moved + r.n_error for r in columnar.refresh_reports]
    assert max(moved) < Ftl._MIN_BULK_SEGMENT
    assert programs == [sum(moved)]
    assert columnar.counters.gc_invocations == gc_before
