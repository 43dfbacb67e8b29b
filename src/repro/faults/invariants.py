"""Post-run coding and mapping invariants the fault paths must preserve.

The central one is the *torn-reprogram* invariant: an IDA voltage
adjustment interrupted mid-refresh must leave the wordline in either the
old or the new coding — never the in-between
:data:`~repro.flash.block.TORN_WL` state, whose cells straddle two
codings and cannot be sensed.  Recovery rolls *forward* (the on-flash
journal row names the target mode and the pages riding on the
wordline), so at rest no wordline is ever torn.  The checker also pins
the supporting invariants graceful degradation relies on: every valid
page is readable under its wordline's mode, the page map only points at
valid pages whose OOB record names the mapped LPN, retired (grown-bad)
blocks hold no live data, no journal row is left uncommitted — with
or without a fault plan, since every ADJUST writes its row — and the
pool state kept in RAM (free list, open block) agrees with the columns.
"""

from __future__ import annotations

import numpy as np

from ..flash.block import CONVENTIONAL_WL, TORN_WL, PageState
from ..flash.state import FLAG_RETIRED

__all__ = ["check_coding_invariants"]


def check_coding_invariants(ftl) -> list[str]:
    """Scan an FTL's device state; return human-readable violations.

    An empty list means every invariant holds.  Duck-typed against
    :class:`~repro.ftl.ftl.Ftl` (anything with ``table`` and ``map``
    works).

    The wordline/page sweeps run as array reductions over the columnar
    :class:`~repro.flash.state.DeviceState` — at the full 512 GB
    topology the per-object version would walk 22 M wordlines in Python.
    """
    violations: list[str] = []
    table = ftl.table
    state = table.state
    bits = state.bits_per_cell
    wpb = state.wordlines_per_block

    wl_modes = state.wl_mode_np
    torn = wl_modes == TORN_WL
    invalid_mode = (
        (wl_modes != CONVENTIONAL_WL) & ~torn & ((wl_modes < 1) | (wl_modes >= bits))
    )
    for wl in np.flatnonzero(torn | invalid_mode):
        block_index, wordline = divmod(int(wl), wpb)
        if torn[wl]:
            violations.append(
                f"block {block_index} wordline {wordline} left torn "
                "(interrupted IDA reprogram was not resolved)"
            )
        else:
            violations.append(
                f"block {block_index} wordline {wordline} has invalid "
                f"mode {int(wl_modes[wl]):#x}"
            )

    # Every valid page must be readable under its wordline's current
    # mode (LUT row 0 = unreadable, mirroring SenseTable.senses raising).
    lut = table.sense_table.lut()
    valid_ppns = np.flatnonzero(state.page_state_np == int(PageState.VALID))
    senses = lut[wl_modes[valid_ppns // bits], valid_ppns % bits]
    for ppn in valid_ppns[senses == 0]:
        block_index, page = divmod(int(ppn), state.pages_per_block)
        violations.append(
            f"block {block_index} page {page} is valid but "
            "unreadable under its wordline mode"
        )

    # The page map must only point at valid pages whose OOB record
    # holds the mapped LPN: that record is the map's reverse direction.
    lpns, ppns = ftl.map.mapped()
    page_states = state.page_state_np[ppns]
    not_valid = page_states != int(PageState.VALID)
    for lpn, ppn, page_state in zip(
        lpns[not_valid].tolist(),
        ppns[not_valid].tolist(),
        page_states[not_valid].tolist(),
    ):
        violations.append(
            f"LPN {lpn} maps to PPN {ppn} whose page state is "
            f"{PageState(page_state).name}, not VALID"
        )
    oob = state.oob_lpn_np[ppns]
    foreign = ~not_valid & (oob != lpns)
    for lpn, ppn, holder in zip(
        lpns[foreign].tolist(), ppns[foreign].tolist(), oob[foreign].tolist()
    ):
        violations.append(
            f"LPN {lpn} maps to PPN {ppn} whose OOB record holds "
            f"LPN {holder}"
        )

    # Retired (grown-bad / dead-die) blocks must have been evacuated.
    holders = ((state.flags_np & FLAG_RETIRED) != 0) & (state.valid_count_np > 0)
    for block_index in np.flatnonzero(holders):
        violations.append(
            f"retired block {int(block_index)} still holds "
            f"{int(state.valid_count_np[block_index])} valid pages"
        )

    # The pool state kept in RAM must agree with the columns: every
    # free-list entry is an erased, in-rotation block listed once and
    # not open; the open block is in rotation and not yet full.
    for pool in table.planes:
        listed = np.bincount(
            np.array(pool.free, dtype=np.int64), minlength=pool.total_blocks
        )
        free = listed > 0
        is_open = np.zeros(pool.total_blocks, dtype=bool)
        if pool.active is not None:
            is_open[pool.active] = True
        retired = ~pool.in_rotation()
        pointers = pool.column("next_page")
        problems = (
            ("free block {} is listed more than once", listed > 1),
            ("free block {} is not erased", free & (pointers != 0)),
            ("free block {} is retired", free & retired),
            ("open block {} is on the free list", is_open & free),
            ("open block {} is retired", is_open & retired),
            ("open block {} is full", is_open & (pointers >= state.pages_per_block)),
        )
        for template, mask in problems:
            for in_plane in np.flatnonzero(mask).tolist():
                violations.append(template.format(pool.block(in_plane).index))

    # Every journaled adjust intent must be committed or recovered.
    rows = (state.journal_bit_np != 0) | (state.journal_kept_np != 0)
    for wl in np.flatnonzero(rows):
        block_index, wordline = divmod(int(wl), wpb)
        violations.append(
            f"uncommitted adjust-journal intent for block {block_index} "
            f"wordline {wordline}"
        )
    return violations
