"""Sudden power-off recovery (SPOR): mount a device from its arrays alone.

The paper's IDA scheme hinges on a per-wordline coding-mode table that
must survive power loss — a post-crash read decoded with the wrong
thresholds returns garbage.  This module is the mount path: given only
the columnar :class:`~repro.flash.state.DeviceState` (the "flash
arrays" — no live FTL objects survive the cut), it rebuilds a complete,
consistent :class:`~repro.ftl.ftl.Ftl`:

* **Forward map** — a full-device OOB scan.  Every programmed page
  carries an on-flash ``(oob_lpn, oob_seq)`` record; the newest stamp of
  an LPN wins (last-write-wins), exactly the classic SPOR scan of
  page-mapping FTLs.  Page validity and per-block valid counts are
  *rebuilt* from the scan, never trusted: ``page_state``'s
  VALID/INVALID distinction is controller metadata that a real crash
  loses.
* **Block pools** — the mount rebuilds only what a pool keeps in RAM:
  the free list (every in-rotation block with ``next_page == 0``) and
  the open block (the at most one partially programmed block per
  plane).  In-use and retired membership need no rebuild: the live FTL
  and the mount read them from the same columns (programmed, not
  ``FLAG_RETIRED``, not open — see :class:`~repro.flash.plane.PlanePool`).
  The free list is rebuilt in ascending in-plane order — the pre-cut
  FIFO order is controller RAM and unrecoverable, so post-mount
  allocation is deterministic but not byte-identical to the uncut
  future (documented divergence; the crash-consistency harness verifies
  recovered *state*, not future allocation order).
* **Allocator cursor** — positioned one past the plane holding the
  globally newest OOB stamp (the closest on-flash approximation of the
  lost round-robin cursor).
* **Write sequence** — ``max(surviving oob_seq) + 1``.  This equals the
  pre-cut counter exactly: the globally newest stamp can never be
  erased, because erasing its block would require the page to be
  invalid, which would require an even newer stamp to exist.
* **IDA coding state** — for every wordline the journal columns name as
  suspect (``journal_bit != 0``: an ADJUST intent with no commit
  record), the mount rolls *forward* through
  ``Ftl.roll_forward_adjust``, the same routine an in-run interrupted
  adjust takes: kept pages still valid on the wordline are relocated,
  the wordline is resolved to the journaled coding and committed.
  Rolling forward is safe on both sides of the race: if the adjust
  pulse completed but the commit was cut, the wordline already sits in
  the intended coding and the roll-forward merely re-homes the kept
  pages; if the pulse itself was cut, the cells are indeterminate and
  the relocation is mandatory.

What is *not* recovered (controller RAM, documented lost): FTL event
counters, refresh reports, and read-retry pressure all restart from
zero.  Nothing else of the crash state lives in RAM: adjust intents are
the journal columns and grown-bad blocks are ``FLAG_RETIRED``.

The acknowledged-write-durability argument, the on-flash metadata
format and the harness that sweeps hundreds of cut points live in
``docs/faults.md`` ("Power-loss recovery").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.coding import GrayCoding
from ..flash.block import CONVENTIONAL_WL, PageState
from ..flash.geometry import Geometry
from ..flash.state import DeviceState
from ..obs.tracer import Tracer
from .blockstatus import BlockStatusTable
from .ftl import Ftl
from .gc import GcPolicy
from .ops import PhysOp
from .refresh import RefreshPolicy

__all__ = ["MountReport", "mount_device"]

_VALID = int(PageState.VALID)
_INVALID = int(PageState.INVALID)


@dataclass
class MountReport:
    """What one SPOR mount found and did.

    Attributes:
        mapped_lpns: Live logical pages recovered into the forward map.
        write_seq: The rebuilt global write-sequence counter.
        sealed_blocks: Full (summary-sealed) blocks placed in use.
        open_blocks: Partially programmed blocks reopened as a plane's
            active block.
        free_blocks: Erased blocks returned to free lists.
        retired_blocks: Grown-bad blocks kept out of rotation.
        torn_rolled_forward: Suspect wordlines rolled forward to their
            journaled coding.
        stale_journal_cleared: Journal rows dropped without action (the
            commit or an erase had already superseded the intent).
        relocated_lpns: LPNs whose kept pages the roll-forward moved —
            these carry fresh sequence stamps, which the
            crash-consistency harness must account for when comparing
            against the pre-cut oracle.
    """

    mapped_lpns: int = 0
    write_seq: int = 0
    sealed_blocks: int = 0
    open_blocks: int = 0
    free_blocks: int = 0
    retired_blocks: int = 0
    torn_rolled_forward: int = 0
    stale_journal_cleared: int = 0
    relocated_lpns: tuple[int, ...] = field(default_factory=tuple)


def _rebuild_map(
    ftl: Ftl, state: DeviceState, report: MountReport
) -> np.ndarray:
    """Full-device OOB scan: last-write-wins map + validity rebuild.

    Returns the programmed-page index array (for the cursor heuristic).
    """
    nb = state.num_blocks
    ppb = state.pages_per_block
    # Physically programmed pages: offset < the block's program pointer.
    prog_mask = (
        np.arange(ppb, dtype=np.int64)[None, :]
        < state.next_page_np[:, None]
    )
    prog_ppns = np.flatnonzero(prog_mask.ravel())
    new_states = np.zeros(state.num_pages, dtype=np.uint8)
    if len(prog_ppns) == 0:
        state.page_state_np[:] = new_states
        state.valid_count_np[:] = 0
        report.write_seq = 0
        state.write_seq = 0
        ftl.map.load_forward(b"")
        return prog_ppns
    lpns = state.oob_lpn_np[prog_ppns]
    seqs = state.oob_seq_np[prog_ppns]
    if (lpns < 0).any():
        bad = int(prog_ppns[np.flatnonzero(lpns < 0)[0]])
        raise ValueError(
            f"programmed page {bad} carries no OOB record; the device "
            "state predates SPOR metadata and cannot be mounted"
        )
    # Newest stamp per LPN wins; everything else programmed is stale.
    order = np.lexsort((seqs, lpns))
    sorted_lpns = lpns[order]
    group_last = np.empty(len(order), dtype=bool)
    group_last[-1] = True
    group_last[:-1] = sorted_lpns[1:] != sorted_lpns[:-1]
    winner_ppns = prog_ppns[order][group_last]
    winner_lpns = sorted_lpns[group_last]

    new_states[prog_ppns] = _INVALID
    new_states[winner_ppns] = _VALID
    state.page_state_np[:] = new_states
    state.valid_count_np[:] = np.bincount(
        winner_ppns // ppb, minlength=nb
    )

    forward = np.full(int(winner_lpns[-1]) + 1, -1, dtype=np.int64)
    forward[winner_lpns] = winner_ppns
    ftl.map.load_forward(forward.tobytes())

    state.write_seq = int(seqs.max()) + 1
    report.write_seq = state.write_seq
    report.mapped_lpns = len(winner_lpns)
    return prog_ppns


def _rebuild_pools(
    ftl: Ftl, state: DeviceState, report: MountReport
) -> None:
    """Rebuild each plane's free list and open block from the columns."""
    ppb = state.pages_per_block
    for pool in ftl.table.planes:
        pointers = pool.column("next_page")
        in_rotation = pool.in_rotation()
        pool.free.clear()
        pool.free.extend(
            np.flatnonzero(in_rotation & (pointers == 0)).tolist()
        )
        pool.active = None
        partials = np.flatnonzero(
            in_rotation & (pointers > 0) & (pointers < ppb)
        ).tolist()
        if partials:
            # At most one open block per plane exists at any event
            # boundary; if several survive (defensive), the newest OOB
            # stamp marks the one that was accepting programs.
            def newest_stamp(in_plane: int) -> int:
                base = pool.blocks[in_plane].slot * ppb
                count = int(pointers[in_plane])
                return int(state.oob_seq_np[base : base + count].max())

            pool.active = sorted(partials, key=newest_stamp)[-1]
        report.sealed_blocks += len(pool.in_use())
        report.open_blocks += int(pool.active is not None)
        report.free_blocks += len(pool.free)
        report.retired_blocks += int(np.count_nonzero(~in_rotation))


def _rebuild_allocator(
    ftl: Ftl, state: DeviceState, prog_ppns: np.ndarray
) -> None:
    """Drop dead planes from rotation; aim the cursor past the last write."""
    geometry = ftl.geometry
    dead = [
        pool.plane_index
        for pool in ftl.table.planes
        if not pool.in_rotation().any()
    ]
    if dead:
        ftl.allocator.remove_planes(dead)
    if len(prog_ppns) == 0:
        return
    seqs = state.oob_seq_np[prog_ppns]
    newest_ppn = int(prog_ppns[int(np.argmax(seqs))])
    plane = geometry.plane_of_block(newest_ppn // state.pages_per_block)
    order = ftl.allocator.order
    if plane in order:
        ftl.allocator._cursor = (order.index(plane) + 1) % len(order)


def _resolve_journal(
    ftl: Ftl, state: DeviceState, now_us: float, report: MountReport
) -> None:
    """Roll suspect wordlines forward from the on-flash ADJUST journal."""
    wpb = state.wordlines_per_block
    scratch: list[PhysOp] = []
    relocated: list[int] = []
    for gw in np.flatnonzero(state.journal_bit_np).tolist():
        slot, wordline = divmod(gw, wpb)
        block = ftl.table.blocks[slot]
        intended = int(state.journal_bit[gw])
        mode = block.wl_mode(wordline)
        committed = state.summary_wl_mode[gw] == intended
        if mode == CONVENTIONAL_WL or (committed and mode == intended):
            # Either the block was erased while the intent was in
            # flight (nothing left to tear) or the commit record landed
            # and only the journal clear was lost.  Drop the row.
            state.journal_bit[gw] = 0
            state.journal_kept[gw] = 0
            report.stale_journal_cleared += 1
            continue
        relocated.extend(ftl.roll_forward_adjust(block, wordline, now_us, scratch))
        report.torn_rolled_forward += 1
    report.relocated_lpns = tuple(relocated)


def mount_device(
    state: DeviceState,
    geometry: Geometry,
    coding: GrayCoding,
    refresh_policy: RefreshPolicy,
    gc_policy: GcPolicy | None = None,
    rng: np.random.Generator | None = None,
    allocation: str = "cwdp",
    tracer: Tracer | None = None,
    now_us: float = 0.0,
) -> tuple[Ftl, MountReport]:
    """Rebuild a live FTL from surviving device arrays after power loss.

    Args:
        state: The device columns as the cut left them.  Mutated in
            place: validity is rebuilt from the OOB scan and suspect
            wordlines are resolved.
        geometry / coding / refresh_policy / gc_policy / rng /
            allocation / tracer: The FTL configuration, exactly as the
            pre-cut simulator was built (a mounted drive runs the same
            firmware it crashed under).
        now_us: Sim time the mount happens at — stamps the roll-forward
            relocations.

    Returns:
        ``(ftl, report)`` — a fully consistent FTL over ``state`` plus
        the mount accounting.

    Raises:
        ValueError: if a programmed page carries no OOB record (the
            state predates SPOR metadata) or geometry disagrees with
            ``state``.
    """
    table = BlockStatusTable(geometry, coding, state=state)
    ftl = Ftl(
        geometry,
        coding,
        refresh_policy,
        gc_policy=gc_policy,
        rng=rng,
        allocation=allocation,
        tracer=tracer,
        table=table,
    )
    report = MountReport()
    prog_ppns = _rebuild_map(ftl, state, report)
    _rebuild_pools(ftl, state, report)
    _rebuild_allocator(ftl, state, prog_ppns)
    # Torn-wordline resolution needs the map, pools and allocator live
    # (kept-page relocations allocate like any other write).
    _resolve_journal(ftl, state, now_us, report)
    return ftl, report
