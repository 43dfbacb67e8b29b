"""The flash translation layer: host I/O, GC, and (IDA-modified) refresh.

The FTL applies logical state transitions eagerly at dispatch time and
emits :class:`~repro.ftl.ops.PhysOp` lists (a refresh tick: one
:class:`~repro.ftl.ops.OpTable`) for the simulator to push through the
contended die/channel resources.  This mirrors the paper's
DiskSim methodology: FTL decisions are instantaneous metadata updates; all
*time* is spent in the flash-operation queues.

Host writes invalidate the previous copy and program the next page of the
stripe-selected plane's active block (CWDP allocation [26]).  GC runs when
a plane's free blocks fall below the policy watermark.  The refresh daemon
(driven by the simulator clock) scans for blocks older than the refresh
period and executes either the baseline remapping flow or the IDA flow of
Fig. 7 — see :mod:`repro.ftl.refresh` for the planning logic and
accounting.

Bulk page placement is columnar.  Untimed writes and refresh relocations
are applied in *safe runs* — stretches that trigger no GC and open no
block — as scatters on the device columns plus one bulk map rebinding;
the write on each boundary takes the scalar path, so the resulting
state and op lists equal a page-by-page loop.  A refresh tick programs
the relocations of all its blocks as one run (see
:meth:`Ftl.check_refresh`) and hands its ops over as the columns it
planned with (reads, relocation writes and adjusts appended as arrays,
scalar moves and their GC as single rows).
"""

from __future__ import annotations

import numpy as np

from ..core.coding import GrayCoding
from ..flash.block import Block, PageState
from ..flash.errors import AdjustDisturbModel
from ..flash.geometry import Geometry
from ..flash.state import FLAG_IS_IDA
from ..flash.plane import PlanePool
from ..obs.tracer import NULL_TRACER, Tracer
from .allocation import StaticAllocator
from .blockstatus import BlockStatusTable
from .gc import GcPolicy, select_victim
from .mapping import PageMap
from .ops import FtlCounters, OpKind, OpTable, PhysOp, WriteResult
from .refresh import RefreshPlan, RefreshPolicy, RefreshReport, plan_refresh

__all__ = ["Ftl"]

_VALID = int(PageState.VALID)
_INVALID = int(PageState.INVALID)
_READ = OpKind.READ


class _MoveRun:
    """Refresh moves staged for one program run (see :meth:`Ftl.check_refresh`).

    Every staged page's source is already invalidated; its LPN and its
    reserved WRITE rows wait here for :meth:`Ftl._program_moves`.
    """

    __slots__ = ("capacity", "length", "lpns", "rows")

    def __init__(self) -> None:
        #: Pages the run may hold: the safe run measured when it opened.
        self.capacity = 0
        self.length = 0
        #: Per staged block: the LPNs moving, and their reserved rows.
        self.lpns: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []


class Ftl:
    """Page-mapping FTL with GREEDY GC and (IDA-)refresh.

    Args:
        geometry: Device topology.
        coding: The conventional cell coding.
        refresh_policy: Refresh flow, period and disturb rate.
        gc_policy: GC watermarks.
        rng: Seeded generator driving the adjustment-disturb sampling.
        allocation: Static allocation strategy name ("cwdp" or "pdwc").
        tracer: Structured event tracer for GC / refresh / IDA-adjust
            events; ``None`` disables (the null fast path).
        table: An existing block status table to adopt instead of
            building a fresh one — the SPOR mount path hands the FTL a
            table rebuilt from on-flash metadata this way.
    """

    def __init__(
        self,
        geometry: Geometry,
        coding: GrayCoding,
        refresh_policy: RefreshPolicy,
        gc_policy: GcPolicy | None = None,
        rng: np.random.Generator | None = None,
        allocation: str = "cwdp",
        tracer: Tracer | None = None,
        table: BlockStatusTable | None = None,
    ) -> None:
        self.geometry = geometry
        self.coding = coding
        self.refresh_policy = refresh_policy
        self.gc_policy = gc_policy or GcPolicy()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.table = table if table is not None else BlockStatusTable(geometry, coding)
        self.map = PageMap(self.table.state.oob_lpn)
        self._lookup = self.map.lookup
        self._pages_per_block = geometry.pages_per_block
        self.allocator = StaticAllocator(geometry, allocation)
        self.disturb = AdjustDisturbModel(refresh_policy.error_rate)
        self.counters = FtlCounters()
        self.refresh_reports: list[RefreshReport] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Read reclaim (``None`` = off) is armed by a bound FaultPlan.
        # Adjust intents and retired blocks live on flash only: in the
        # journal columns and ``FLAG_RETIRED``.
        self._read_reclaim_threshold: int | None = None
        self._retry_pressure: dict[int, int] = {}

    @property
    def scan_interval_us(self) -> float:
        """Refresh-scan cadence (the :class:`FlashTranslation` contract)."""
        return self.refresh_policy.scan_interval_us

    # ------------------------------------------------------------------
    # Host path
    # ------------------------------------------------------------------
    def host_read(self, lpn: int, now_us: float) -> PhysOp:
        """Resolve one host page read to a physical read op.

        Reads of never-written LPNs (cold trace prefixes) are auto-mapped
        by an untimed fill write and counted in
        ``counters.unmapped_reads``.
        """
        self.counters.host_reads += 1
        ppn = self._lookup(lpn)
        if ppn is None:
            self.counters.unmapped_reads += 1
            self._program_page(lpn, now_us, [])
            ppn = self.map.lookup(lpn)
            assert ppn is not None
        table = self.table
        block_index, page = divmod(ppn, self._pages_per_block)
        senses, bit, validity, from_ida = table.blocks[block_index].read_view(
            table.sense_table, page
        )
        return PhysOp(_READ, block_index, page, senses, bit, validity, from_ida)

    def host_write(self, lpn: int, now_us: float) -> WriteResult:
        """Apply one host page write; returns the implied physical work."""
        self.counters.host_writes += 1
        result = WriteResult()
        write_op = self._program_page(lpn, now_us, result.internal_ops)
        result.host_ops.append(write_op)
        return result

    def write_untimed(self, lpn: int, pseudo_now_us: float) -> None:
        """Preconditioning write: full logical effect, no timed ops.

        ``pseudo_now_us`` may be negative — warm-up fills are spread over
        the interval before the trace starts so block refresh ages (and
        hence refresh events) stagger naturally.
        """
        self._program_page(lpn, pseudo_now_us, [])

    #: Safe runs shorter than this are cheaper through the scalar loop
    #: than through the numpy setup of a bulk segment.
    _MIN_BULK_SEGMENT = 32

    def apply_untimed_batch(self, lpns, times) -> None:
        """Bulk :meth:`write_untimed`: identical final state, array speed.

        The path of every untimed write (preload / aging / background
        batches).  Writes are applied in *segments*: a safe run (see
        :meth:`_safe_run`) collapses to column scatters on the device
        state plus one bulk map rebinding.  The write that lands on a
        segment boundary (GC watermark, block open, block fill) goes
        through the ordinary scalar path, which realigns every invariant
        before the next segment is sized.

        Args:
            lpns: Logical pages in write order (any int sequence).
            times: Per-write ``pseudo_now_us`` values — a scalar, or a
                sequence matching ``lpns``.
        """
        lpns = np.ascontiguousarray(lpns, dtype=np.int64)
        total = len(lpns)
        if total == 0:
            return
        times = np.broadcast_to(
            np.asarray(times, dtype=np.float64), (total,)
        )
        start = 0
        while start < total:
            safe = self._safe_run(total - start)
            if safe < self._MIN_BULK_SEGMENT:
                # Too short to be worth array setup; the +1 also steps
                # over the boundary write itself (GC / block open).
                for index in range(start, min(start + safe + 1, total)):
                    self.write_untimed(int(lpns[index]), float(times[index]))
                start += safe + 1
                continue
            self._apply_untimed_segment(
                lpns[start : start + safe], times[start : start + safe]
            )
            start += safe

    def _safe_run(self, limit: int) -> int:
        """Longest write run from here that stays inside active blocks.

        A safe run triggers no GC pass and opens no block on any plane:
        each plane in the allocator rotation merely fills its
        already-open active block.  Untimed writes and refresh
        relocations are applied in such runs.

        Position ``k`` of the run lands on rotation slot ``k % P``.  For
        each slot the first boundary is either its very first write (GC
        watermark reached, no active block, or an active block the
        scalar path must special-case) or the write that would overflow
        the active block's remaining pages.
        """
        order = self.allocator.order
        cursor = self.allocator._cursor
        n_planes = len(order)
        pages_per_block = self.geometry.pages_per_block
        watermark = self.gc_policy.low_watermark
        planes = self.table.planes
        state = self.table.state
        best = limit
        for slot in range(min(n_planes, limit)):
            pool = planes[order[(cursor + slot) % n_planes]]
            active = pool.active
            if active is None or pool.free_count < watermark:
                boundary = slot
            else:
                block_index = pool.blocks[active].index
                remaining = pages_per_block - state.next_page[block_index]
                if remaining <= 0 or state.flags[block_index] & FLAG_IS_IDA:
                    boundary = slot
                else:
                    boundary = slot + remaining * n_planes
            if boundary < best:
                best = boundary
                if best == 0:
                    break
        return best

    def _program_run(
        self,
        oob_lpns: np.ndarray,
        times: np.ndarray | float,
        keep: np.ndarray | None = None,
    ) -> np.ndarray:
        """Program one safe run of pages across the allocator rotation.

        The destination step shared by untimed segments and refresh
        relocations: slot ``s`` writes pages ``next_page``, +1, ... of its
        plane's active block, and position ``p`` of the run is the
        ``(p // P)``-th write of slot ``p % P``.  Stamps the page states,
        the OOB records (``oob_lpns`` plus fresh sequence numbers, in
        write order — the scalar path's per-program stamps), each
        destination's ``next_page``, ``valid_count`` and first-program
        time, then seals filled active blocks and advances the cursor.

        Args:
            oob_lpns: The LPN each page's OOB record carries.
            times: Per-write program times, or one for the whole run (a
                destination opened since its last erase takes its first
                write's time).
            keep: Per-write flag, False for a page superseded later in
                the run: it lands directly as INVALID.  ``None`` keeps
                all.

        Returns:
            The destination PPNs in write order.
        """
        state = self.table.state
        order = self.allocator.order
        cursor = self.allocator._cursor
        n_planes = len(order)
        pages_per_block = self.geometry.pages_per_block
        length = len(oob_lpns)
        width = min(n_planes, length)

        pools = [
            self.table.planes[order[(cursor + slot) % n_planes]]
            for slot in range(width)
        ]
        dest_blocks = np.array(
            [pool.blocks[pool.active].index for pool in pools], dtype=np.int64
        )
        positions = np.arange(length, dtype=np.int64)
        slot_of = positions % n_planes
        new_ppns = (
            dest_blocks[slot_of] * pages_per_block
            + state.next_page_np[dest_blocks][slot_of]
            + positions // n_planes
        )

        page_states = state.page_state_np
        writes = np.bincount(slot_of, minlength=width)
        if keep is None:
            page_states[new_ppns] = _VALID
            kept = writes
        else:
            page_states[new_ppns[keep]] = _VALID
            page_states[new_ppns[~keep]] = _INVALID
            kept = np.bincount(slot_of[keep], minlength=width)
        # Slots are distinct planes, so ``dest_blocks`` has no repeats.
        state.next_page_np[dest_blocks] += writes
        state.valid_count_np[dest_blocks] += kept
        stamps = state.programmed_at_us_np[dest_blocks]
        fresh = stamps != stamps  # NaN: first program since erase
        if fresh.any():
            firsts = np.broadcast_to(times, (length,))[:width]
            state.programmed_at_us_np[dest_blocks[fresh]] = firsts[fresh]

        state.oob_lpn_np[new_ppns] = oob_lpns
        state.oob_seq_np[new_ppns] = state.write_seq + positions
        state.write_seq += length

        for pool in pools:
            pool.retire_active()
        self.allocator.advance(length)
        return new_ppns

    def _apply_untimed_segment(self, lpns: np.ndarray, times: np.ndarray) -> None:
        """Apply one GC-free run of untimed writes as column operations."""
        state = self.table.state
        pages_per_block = self.geometry.pages_per_block
        length = len(lpns)

        # Duplicate LPNs inside the segment: only the first occurrence
        # displaces a pre-segment mapping; only the last stays valid.
        _, first_positions = np.unique(lpns, return_index=True)
        uniq, rev_first = np.unique(lpns[::-1], return_index=True)
        last_positions = length - 1 - rev_first
        is_last = np.zeros(length, dtype=bool)
        is_last[last_positions] = True

        # Invalidate the pre-segment copies (first occurrences only).
        old_ppns = self.map.lookup_many(lpns[first_positions])
        ext_ppns = old_ppns[old_ppns >= 0]
        page_states = state.page_state_np
        if len(ext_ppns):
            stale = page_states[ext_ppns]
            if (stale != _VALID).any():
                bad = int(ext_ppns[stale != _VALID][0])
                block_index, page = divmod(bad, pages_per_block)
                raise RuntimeError(
                    f"block {block_index} page {page} is not valid "
                    f"({PageState(page_states[bad]).name})"
                )
            page_states[ext_ppns] = _INVALID
            np.subtract.at(
                state.valid_count_np, ext_ppns // pages_per_block, 1
            )

        # Program the new pages: duplicates superseded within the
        # segment land directly as INVALID (net effect of program +
        # later invalidate).
        new_ppns = self._program_run(lpns, times, is_last)
        self.map.bind_batch(uniq, new_ppns[last_positions])

    # ------------------------------------------------------------------
    # Refresh daemon
    # ------------------------------------------------------------------
    def check_refresh(self, now_us: float) -> OpTable:
        """Refresh every full block older than the policy period.

        Blocks are visited in pool order, then in the order of each
        pool's :meth:`~repro.flash.plane.PlanePool.used_blocks` at the
        time the pool is reached (in-use blocks ascending, then the open
        block).  Which blocks are old enough is taken as one mask over
        ``programmed_at_us`` at the start of the tick:
        the tick's own work can only make a block younger (a first
        program and an IDA refresh stamp ``now_us``, an erase clears the
        stamp), so the mask only narrows the live checks below.

        The tick's relocations share one pending :class:`_MoveRun`: a
        block's moves invalidate their sources and reserve their WRITE
        rows at once, and one :meth:`_program_moves` programs the whole
        run.  It is flushed at exactly three points: (a) before a block
        whose moves would outgrow the safe run measured when the run
        opened (that block then goes through :meth:`_relocate`, which
        takes the boundary write and the GC it triggers); (b) before
        a pool whose open block is due lists its blocks, and again
        before that block is checked, since the pending writes may fill
        it; (c) at the end of the tick.  This equals moving the pages
        one by one: sources are full blocks and destinations are open
        ones, so no later block's plan, senses or disturb draw reads a
        pending destination, and inside a safe run no GC fires, so
        nothing reads the allocator, the pools or the map between the
        writes.

        Returns the tick's ops as one :class:`OpTable`, in issue order.
        """
        ops = OpTable()
        period_us = self.refresh_policy.period_us
        stamps = self.table.state.programmed_at_us_np
        due = (now_us - stamps) >= period_us
        if not due.any():
            return ops
        run = _MoveRun()
        blocks_per_plane = self.geometry.blocks_per_plane
        for pool in self.table.planes:
            first = pool.plane_index * blocks_per_plane
            due_here = due[first : first + blocks_per_plane]
            if not due_here.any():
                continue
            if pool.active is not None and due_here[pool.active]:
                self._program_moves(run, now_us)  # (b): it may seal the open block
            in_use = pool.in_use()
            visit = in_use[due_here[in_use]].tolist()
            active = pool.active
            if active is not None and due_here[active]:
                visit.append(active)
            for index in visit:
                if index == active:
                    self._program_moves(run, now_us)  # (b): it may fill it
                block = pool.blocks[index]
                if not block.is_full or block.valid_count == 0:
                    continue
                if not now_us - stamps[block.slot] >= period_us:
                    continue  # erased and refilled earlier in this tick
                self._refresh_block(block, now_us, ops, run)
        self._program_moves(run, now_us)  # (c)
        return ops

    def _refresh_block(
        self, block: Block, now_us: float, ops: OpTable, run: _MoveRun
    ) -> None:
        self.counters.refresh_invocations += 1
        block.locked = True
        try:
            plan = plan_refresh(block, self.refresh_policy.mode)
            report = RefreshReport(block.index, n_valid=len(plan.valid_pages))

            # Step 1-2 of Fig. 7: read + ECC-decode every valid page.
            self._read_ops(block, plan.valid_pages, ops)

            # Step 3: move the pages that cannot benefit from IDA.
            self._move_in_run(block, plan.moves, now_us, ops, run)
            report.n_moved = len(plan.moves)
            self.counters.refresh_page_moves += report.n_moved

            # Step 4: voltage-adjust the IDA wordlines.
            if len(plan.adjusted_wordlines):
                self._adjust_wordlines(block, plan, now_us, ops)
            report.n_adjusted_wordlines = len(plan.adjusted_wordlines)
            self.counters.refresh_adjusted_wordlines += report.n_adjusted_wordlines

            # Step 5-6: re-read the reprogrammed pages (under their new
            # wordline mode) to check for disturb.
            kept_pages = plan.kept.tolist()
            report.n_target = len(kept_pages)
            self.counters.refresh_reprogrammed_pages += len(kept_pages)
            self._read_ops(block, plan.kept, ops)

            # Step 7-8: corrupted pages get their error-free copy written
            # to the new block; clean pages stay in place.
            corrupted = self.disturb.corrupted_pages(self.rng, kept_pages)
            self._move_in_run(block, corrupted, now_us, ops, run)
            report.n_error = len(corrupted)
            self.counters.refresh_corrupted_pages += len(corrupted)

            if report.n_adjusted_wordlines and block.valid_count > 0:
                # The block lives on as an IDA block; restart its age so
                # the next refresh cycle force-reclaims it (Sec. III-C).
                block.programmed_at_us = now_us
        finally:
            block.locked = False
        self.refresh_reports.append(report)
        if self.tracer.enabled:
            self.tracer.emit(
                now_us,
                "refresh",
                block=block.index,
                mode=self.refresh_policy.mode.value,
                n_valid=report.n_valid,
                n_moved=report.n_moved,
                n_target=report.n_target,
                n_error=report.n_error,
                n_adjusted_wordlines=report.n_adjusted_wordlines,
            )

    def _adjust_wordlines(
        self, block: Block, plan: RefreshPlan, now_us: float, ops: OpTable
    ) -> None:
        """Step 4 of Fig. 7 for every adjusted wordline of ``plan``.

        Sets each wordline's IDA mode and, before its ADJUST op is
        issued, its on-flash intent record: an interrupted adjust, or a
        power cut before the commit, rolls forward from it (see
        :meth:`roll_forward_adjust`).
        """
        wordlines = plan.adjusted_wordlines
        start_bits = plan.start_bits
        block.adjust_wordlines(wordlines, start_bits)
        index = block.index
        ops.add_adjusts(index, wordlines)
        if not self.tracer.enabled:
            return
        bits = block.bits_per_cell
        for wordline, start_bit in zip(wordlines.tolist(), start_bits.tolist()):
            self.tracer.emit(
                now_us,
                "ida_adjust",
                block=index,
                wordline=wordline,
                start_bit=start_bit,
                kept_pages=bits - start_bit,
            )

    def _read_ops(self, block: Block, pages: np.ndarray, ops: OpTable) -> None:
        """Append internal read ops for ``pages`` of ``block``, one gather.

        Sense counts come from :meth:`SenseTable.lut` over the current
        ``wl_mode`` column; a page the table marks unreadable is handed
        to the scalar lookup, which raises as :meth:`_internal_read_op`
        would.
        """
        state = self.table.state
        sense_table = self.table.sense_table
        wordlines, page_bits = np.divmod(pages, block.bits_per_cell)
        modes = state.wl_mode_np[block.slot * state.wordlines_per_block + wordlines]
        senses = sense_table.lut()[modes, page_bits]
        if not senses.all():
            bad = int(np.flatnonzero(senses == 0)[0])
            sense_table.senses(int(modes[bad]), int(page_bits[bad]))
        ops.add_reads(block.index, pages, senses, page_bits)

    def _move_in_run(
        self, source: Block, pages, now_us: float, ops: OpTable, run: _MoveRun
    ) -> None:
        """Stage the refresh moves of ``pages`` of ``source`` in ``run``.

        The run opens at its first staged block, sized to the safe run
        from the allocator's position then.  When ``pages`` would
        outgrow it, the run is programmed first and ``pages`` go through
        :meth:`_relocate`, whose boundary write and GC happen in place;
        the next call opens a fresh run.
        """
        count = len(pages)
        if not count:
            return
        if not run.length:
            run.capacity = self._safe_run(self.geometry.total_pages)
        if run.length + count > run.capacity:
            self._program_moves(run, now_us)  # (a)
            self._relocate(source, np.asarray(pages).tolist(), now_us, ops)
            return
        self._stage_moves(source, pages, ops, run)

    def _relocate(
        self, source: Block, pages: list[int], now_us: float, ops: OpTable
    ) -> None:
        """Move ``pages`` of ``source`` to fresh pages, in order, now.

        A refresh tick's fallback where its pending run would outgrow
        the safe run (see :meth:`check_refresh`).  Appends each move's
        WRITE op to ``ops``, preceded by any GC work its allocation
        triggered.  Moves run in safe segments like
        :meth:`apply_untimed_batch`; a move that lands on a segment
        boundary (GC watermark, block open) takes the scalar
        :meth:`_move_page`, so GC ops interleave exactly as they would
        page by page.
        """
        total = len(pages)
        start = 0
        while start < total:
            safe = self._safe_run(total - start)
            if safe < self._MIN_BULK_SEGMENT:
                for page in pages[start : start + safe + 1]:
                    ops.append(self._move_page(source, page, now_us, ops))
                start += safe + 1
                continue
            self._relocate_segment(source, pages[start : start + safe], now_us, ops)
            start += safe

    def _relocate_segment(
        self, source: Block, pages: list[int], now_us: float, ops: OpTable
    ) -> None:
        """Move one safe run of ``source`` pages as column operations."""
        run = _MoveRun()
        self._stage_moves(source, pages, ops, run)
        self._program_moves(run, now_us)

    def _stage_moves(
        self, source: Block, pages, ops: OpTable, run: _MoveRun
    ) -> None:
        """The source half of moving ``pages``: the rest waits in ``run``.

        Runs the scalar path's checks (every source page is live and
        mapped), invalidates the sources and reserves the WRITE rows.
        """
        state = self.table.state
        first = self.geometry.page_number(source.index, 0)
        old_ppns = np.asarray(pages, dtype=np.int64) + first
        lpns = self.map.owners(old_ppns)
        page_states = state.page_state_np
        stale = page_states[old_ppns] != _VALID
        if stale.any():
            source.invalidate(int(old_ppns[stale][0]) - first)
        page_states[old_ppns] = _INVALID
        state.valid_count[source.slot] -= len(old_ppns)
        run.lpns.append(lpns)
        run.rows.append(ops.reserve_writes(len(old_ppns)))
        run.length += len(old_ppns)

    def _program_moves(self, run: _MoveRun, now_us: float) -> None:
        """Program every page staged in ``run`` as one safe run; empty it.

        The LPN travels with the data; each destination gets a fresh
        sequence number (``DeviceState.relocate_oob``), and the reserved
        WRITE rows get the destinations.
        """
        if not run.length:
            return
        lpns = np.concatenate(run.lpns)
        new_ppns = self._program_run(lpns, now_us)
        self.map.bind_batch(lpns, new_ppns)
        dest = np.column_stack(np.divmod(new_ppns, self.geometry.pages_per_block))
        start = 0
        for rows in run.rows:
            rows[:] = dest[start : start + len(rows)]
            start += len(rows)
        run.lpns.clear()
        run.rows.clear()
        run.length = 0

    # ------------------------------------------------------------------
    # Fault recovery (graceful degradation)
    # ------------------------------------------------------------------
    # These paths only run when a FaultPlan is bound to the simulator.
    # Because metadata transitions are eager (applied at dispatch) while
    # faults strike at op *completion*, every handler re-checks current
    # page state before acting: the page a failing program carried may
    # already have been invalidated by a newer host write, the block an
    # erase failed on may hold fresh data, and so on.

    def enable_fault_recovery(self, read_reclaim_threshold: int | None = None) -> None:
        """Arm read reclaim (called by the fault injector's bind)."""
        self._read_reclaim_threshold = read_reclaim_threshold

    def commit_adjust(self, block_index: int, wordline: int | None) -> None:
        """A voltage adjustment completed cleanly; commit it durably.

        Writes the wordline's final mode into the block summary and
        clears its on-flash journal row (the commit record a power cut
        checks for at mount).
        """
        if wordline is None:
            return
        self.table.blocks[block_index].commit_wordline_summary(wordline)

    def commit_adjusts(self, blocks: np.ndarray, wordlines: np.ndarray) -> None:
        """:meth:`commit_adjust` for each ``(blocks[i], wordlines[i])``.

        One vectorized write of the summary and journal columns: the
        commit of every adjust an internal chain's quiet run served.  A
        negative wordline (an ADJUST without one) is skipped, as
        :meth:`commit_adjust` skips ``None``.  Commits of one wordline
        all copy its current mode, so the order within the batch cannot
        matter.
        """
        keep = wordlines >= 0
        state = self.table.state
        rows = (
            blocks[keep].astype(np.int64) * state.wordlines_per_block
            + wordlines[keep]
        )
        state.summary_wl_mode_np[rows] = state.wl_mode_np[rows]
        state.journal_bit_np[rows] = 0
        state.journal_kept_np[rows] = 0

    def on_program_failure(
        self, block_index: int, page: int | None, now_us: float
    ) -> list[PhysOp]:
        """A page program reported status failure.

        The block is retired (program failure is the classic grown-bad
        trigger), the in-flight page is replayed from the controller's
        write buffer to a fresh block, and any other live data is
        evacuated read+write.
        """
        self.counters.program_failures += 1
        block = self.table.blocks[block_index]
        self._retire(block_index)
        ops: list[PhysOp] = []
        # Replay the failed page itself: its data is still buffered in the
        # controller, so no read is charged, just the fresh program.
        if page is not None and block.state_of(page) is PageState.VALID:
            ops.append(self._move_page(block, page, now_us, ops))
            self.counters.fault_page_moves += 1
        return self._evacuate(block, now_us, ops)

    def on_erase_failure(self, block_index: int, now_us: float) -> list[PhysOp]:
        """A block erase reported status failure; retire the block."""
        self.counters.erase_failures += 1
        return self.retire_block(block_index, now_us)

    def retire_block(self, block_index: int, now_us: float) -> list[PhysOp]:
        """Grown-bad retirement: evacuate live data, drop from rotation.

        Idempotent — retiring an already-retired block is a no-op, so a
        timed GROWN_BAD event can land on a block a program failure
        already condemned.
        """
        if not self._retire(block_index):
            return []
        return self._evacuate(self.table.blocks[block_index], now_us, [])

    def fail_die(self, die_index: int, now_us: float) -> list[PhysOp]:
        """A whole die dropped out.

        Its planes leave the allocation rotation first (so the rebuild
        writes below cannot land on the dying die), then every live page
        is rewritten elsewhere from its outer-protection reconstruction —
        the die cannot be read back, so no read ops are charged — and all
        its blocks are retired.
        """
        self.counters.die_failures += 1
        planes = [
            plane
            for plane in range(self.geometry.total_planes)
            if self.geometry.die_of_plane(plane) == die_index
        ]
        self.allocator.remove_planes(planes)
        ops: list[PhysOp] = []
        for plane_index in planes:
            pool = self.table.planes[plane_index]
            for block in pool.used_blocks():
                for page in block.valid_pages():
                    ops.append(self._move_page(block, page, now_us, ops))
                    self.counters.fault_page_moves += 1
            for in_plane in range(pool.total_blocks):
                pool.retire(in_plane)
        return ops

    def on_uncorrectable_read(
        self, block_index: int, page: int | None, now_us: float
    ) -> list[PhysOp]:
        """A host read exhausted the retry ladder and still failed.

        The sector is rebuilt from outer protection (RAID-style parity
        across dies — modelled as free, only the relocation program is
        charged) and rewritten to a healthy location.
        """
        self.counters.uncorrectable_reads += 1
        block = self.table.blocks[block_index]
        ops: list[PhysOp] = []
        if (
            page is not None
            and not block.locked
            and block.state_of(page) is PageState.VALID
        ):
            ops.append(self._move_page(block, page, now_us, ops))
            self.counters.fault_page_moves += 1
        return ops

    def note_read_retries(
        self, block_index: int, retries: int, now_us: float
    ) -> list[PhysOp]:
        """Accumulate read-retry pressure; reclaim past the threshold.

        STRAW-style read reclaim: once a block's cumulative host-read
        retry count crosses the plan's threshold, its live data migrates
        to fresh blocks (read + write each) and the pressure resets.  The
        drained block is reclaimed by ordinary GC.
        """
        if self._read_reclaim_threshold is None or retries <= 0:
            return []
        pressure = self._retry_pressure.get(block_index, 0) + retries
        self._retry_pressure[block_index] = pressure
        if pressure < self._read_reclaim_threshold:
            return []
        block = self.table.blocks[block_index]
        if block.locked or block.valid_count == 0:
            return []
        self._retry_pressure[block_index] = 0
        self.counters.read_reclaims += 1
        block.locked = True
        try:
            return self._evacuate(block, now_us, [])
        finally:
            block.locked = False

    def on_adjust_interrupted(
        self, block_index: int, wordline: int | None, now_us: float
    ) -> list[PhysOp]:
        """An IDA reprogram was cut short mid-adjust (torn wordline).

        The wordline's on-flash journal row names the intended mode and
        the pages kept on it; :meth:`roll_forward_adjust` resolves it.
        A zero row means the intent is stale: the block was erased (and
        possibly reused) while the adjust op was in flight, or another
        interrupt already rolled the wordline forward, so there is
        nothing left to tear.
        """
        if wordline is None:
            return []
        block = self.table.blocks[block_index]
        if not block.journaled_adjust(wordline)[0]:
            return []
        ops: list[PhysOp] = []
        moved = self.roll_forward_adjust(block, wordline, now_us, ops)
        self.counters.fault_page_moves += len(moved)
        return ops

    def roll_forward_adjust(
        self, block: Block, wordline: int, now_us: float, ops: list[PhysOp]
    ) -> list[int]:
        """Resolve a torn wordline to its journaled coding and commit it.

        The one roll-forward, shared by the in-run interrupt handler and
        the power-loss mount.  Surviving kept pages are rewritten
        elsewhere from their buffered copies (the refresh flow had just
        read and decoded them — steps 1-2 of Fig. 7), then the wordline
        lands in the *intended* coding and its journal row clears.  The
        wordline is therefore never left torn: it lands in exactly one of
        the two codings, which is the invariant
        ``check_coding_invariants`` pins.  Rolling forward is safe on
        both sides of the race: if the pulse completed, the kept pages
        merely move; if it was cut, the move is mandatory.

        Appends the moves' WRITE ops (and any GC work they trigger) to
        ``ops``; returns the LPNs it moved, in move order.
        """
        intended, kept = block.journaled_adjust(wordline)
        block.mark_wordline_torn(wordline)
        block.locked = True
        moved: list[int] = []
        first = self.geometry.page_number(block.index, 0)
        try:
            for page in kept:
                if block.state_of(page) is PageState.VALID:
                    moved.append(self.map.owner(first + page))
                    ops.append(self._move_page(block, page, now_us, ops))
        finally:
            block.locked = False
        block.resolve_wordline(wordline, intended)
        block.commit_wordline_summary(wordline)
        self.counters.torn_adjust_recoveries += 1
        return moved

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _retire(self, block_index: int) -> bool:
        """Drop a block from rotation as grown-bad; False if it already was."""
        if self.table.blocks[block_index].retired:
            return False
        pool = self.table.plane_of_block(block_index)
        pool.retire(block_index - pool.plane_index * self.geometry.blocks_per_plane)
        self.counters.grown_bad_blocks += 1
        return True

    def _evacuate(self, block: Block, now_us: float, ops: list[PhysOp]) -> list[PhysOp]:
        """Read back and rewrite every live page of ``block``; returns ``ops``."""
        for page in block.valid_pages():
            ops.append(self._internal_read_op(block, page))
            ops.append(self._move_page(block, page, now_us, ops))
            self.counters.fault_page_moves += 1
        return ops

    def _internal_read_op(self, block: Block, page: int) -> PhysOp:
        return PhysOp(
            kind=OpKind.READ,
            block_index=block.index,
            page=page,
            senses=block.senses_for(self.table.sense_table, page),
            bit=block.bit_of(page),
        )

    def _program_page(
        self, lpn: int, now_us: float, internal_ops: list[PhysOp]
    ) -> PhysOp:
        """Invalidate the old copy of ``lpn`` and program a new page."""
        old_ppn = self.map.lookup(lpn)
        if old_ppn is not None:
            old_block, old_page = self.table.block_of_ppn(old_ppn)
            old_block.invalidate(old_page)
            self.map.unbind(lpn)
        plane_index = self.allocator.next_plane()
        pool = self.table.planes[plane_index]
        self._ensure_free_blocks(pool, now_us, internal_ops)
        block = pool.active_block(now_us)
        page = block.program_next(now_us)
        ppn = self.geometry.page_number(block.index, page)
        # Bind first: ``bind`` checks the page's OOB record before the
        # stamp overwrites it.
        self.map.bind(lpn, ppn)
        self.table.state.stamp_oob(ppn, lpn)
        pool.retire_active()
        return PhysOp(kind=OpKind.WRITE, block_index=block.index, page=page)

    def _move_page(
        self,
        source: Block,
        page: int,
        now_us: float,
        internal_ops: list[PhysOp],
    ) -> PhysOp:
        """Relocate one valid page to a freshly-allocated page."""
        old_ppn = self.geometry.page_number(source.index, page)
        plane_index = self.allocator.next_plane()
        pool = self.table.planes[plane_index]
        self._ensure_free_blocks(pool, now_us, internal_ops)
        dest = pool.active_block(now_us)
        dest_page = dest.program_next(now_us)
        new_ppn = self.geometry.page_number(dest.index, dest_page)
        self.table.state.relocate_oob(old_ppn, new_ppn)
        pool.retire_active()
        self.map.rebind_physical(old_ppn, new_ppn)
        source.invalidate(page)
        return PhysOp(kind=OpKind.WRITE, block_index=dest.index, page=dest_page)

    def _ensure_free_blocks(
        self, pool: PlanePool, now_us: float, internal_ops: list[PhysOp]
    ) -> None:
        """Run GC on ``pool`` until its free count clears the watermark."""
        if pool.free_count >= self.gc_policy.low_watermark:
            return
        while pool.free_count < self.gc_policy.target_free:
            victim = select_victim(pool)
            if victim is None:
                if pool.free_count >= 1:
                    return  # nothing reclaimable yet, but not wedged
                raise RuntimeError(
                    f"plane {pool.plane_index} wedged: no free blocks and "
                    "no GC victim"
                )
            if victim.valid_count >= victim.pages_per_block:
                raise RuntimeError(
                    f"plane {pool.plane_index} full of valid data; "
                    "workload footprint exceeds usable capacity"
                )
            internal_ops.extend(self._gc_block(victim, pool, now_us))

    def _gc_block(
        self, victim: Block, pool: PlanePool, now_us: float
    ) -> list[PhysOp]:
        """Reclaim one victim block (GREEDY wear-aware GC)."""
        ops: list[PhysOp] = []
        self.counters.gc_invocations += 1
        moves_before = self.counters.gc_page_moves
        for page in victim.valid_pages():
            ops.append(self._internal_read_op(victim, page))
            old_ppn = self.geometry.page_number(victim.index, page)
            dest = pool.active_block(now_us)
            dest_page = dest.program_next(now_us)
            new_ppn = self.geometry.page_number(dest.index, dest_page)
            self.table.state.relocate_oob(old_ppn, new_ppn)
            pool.retire_active()
            self.map.rebind_physical(old_ppn, new_ppn)
            victim.invalidate(page)
            ops.append(
                PhysOp(kind=OpKind.WRITE, block_index=dest.index, page=dest_page)
            )
            self.counters.gc_page_moves += 1
        in_plane = victim.index - pool.plane_index * self.geometry.blocks_per_plane
        victim.erase()
        pool.release(in_plane)
        ops.append(PhysOp(kind=OpKind.ERASE, block_index=victim.index))
        self.counters.block_erases += 1
        if self.tracer.enabled:
            self.tracer.emit(
                now_us,
                "gc",
                block=victim.index,
                plane=pool.plane_index,
                moved_pages=self.counters.gc_page_moves - moves_before,
            )
        return ops
