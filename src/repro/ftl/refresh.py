"""Data refresh: the baseline remapping refresh and the IDA-modified one.

Refresh (a.k.a. data scrub, Cai et al. [23]) periodically relocates aging
data before retention errors accumulate.  The baseline flow (Fig. 7a)
reads every valid page of a target block, ECC-corrects it, and writes it
into a new block; the target block is then empty of valid data and is
reclaimed by GC later.

The IDA-modified flow (Fig. 7b) instead classifies every wordline
(Table I, :func:`repro.core.cases.classify_validity`):

* wordlines whose MSB is valid keep their slow pages in place — any valid
  lower pages blocking the merge are moved out, the wordline is
  voltage-adjusted, and the kept pages are re-read and ECC-checked; the
  fraction ``error_rate`` of them come back disturbed and their error-free
  copies are written to the new block instead (the E-knob of Sec. V-B);
* all other wordlines are handled exactly like the baseline.

This module *plans* a refresh (pure function of the block state) and
defines the accounting record behind Table IV; the FTL executes plans.
A plan is columnar: the block's page states are read once as a
(wordlines x bits) validity matrix, each row's bitmask indexes the
Table I decisions tabulated by :func:`repro.core.cases.validity_table`,
and the result is page and wordline arrays rather than one record per
wordline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core.cases import validity_table
from ..flash.block import Block, PageState

__all__ = [
    "RefreshMode",
    "RefreshPolicy",
    "RefreshReport",
    "RefreshPlan",
    "plan_refresh",
]


_VALID = int(PageState.VALID)


class RefreshMode(Enum):
    """Which refresh flow the FTL runs."""

    BASELINE = "baseline"
    IDA = "ida"


@dataclass(frozen=True)
class RefreshPolicy:
    """Refresh configuration.

    Attributes:
        mode: Baseline or IDA-modified flow.
        period_us: Age at which a block becomes due for refresh.  The
            paper uses 3 days to 3 months depending on the workload; the
            experiment configs scale this to the trace duration.
        check_interval_us: How often the refresh daemon scans for due
            blocks.
        error_rate: Fraction of IDA-kept pages disturbed by the voltage
            adjustment (the IDA-E{x} knob; ignored by BASELINE).
    """

    mode: RefreshMode = RefreshMode.BASELINE
    period_us: float = 24 * 3600 * 1e6  # one simulated day
    check_interval_us: float = 0.0  # 0 -> period / 16
    error_rate: float = 0.2

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be within [0, 1]")

    @property
    def scan_interval_us(self) -> float:
        return self.check_interval_us if self.check_interval_us > 0 else self.period_us / 16


@dataclass
class RefreshReport:
    """Per-block refresh accounting — the raw material of Table IV.

    In the paper's notation: ``n_valid`` = N_valid, ``n_target`` =
    N_target (pages reprogrammed by IDA), ``n_error`` = N_error (pages
    corrupted by the adjustment and written back).  The baseline refresh
    performs N_valid reads and N_valid writes; the modified refresh adds
    N_target reads (the post-adjustment integrity check) and replaces the
    writes of kept pages, for a total of N_valid + N_error writes minus
    the N_target - N_error kept in place.
    """

    block_index: int
    n_valid: int = 0
    n_moved: int = 0
    n_target: int = 0
    n_error: int = 0
    n_adjusted_wordlines: int = 0

    @property
    def extra_reads(self) -> int:
        """Reads beyond the baseline refresh (= N_target)."""
        return self.n_target

    @property
    def extra_writes(self) -> int:
        """Writes beyond the pages that had to move anyway (= N_error)."""
        return self.n_error


@dataclass(frozen=True, eq=False)
class RefreshPlan:
    """Full plan for refreshing one block, as page and wordline arrays.

    Page arrays hold page-in-block indices and wordline arrays wordline
    indices, all ``int64`` and ascending.  Pages of one wordline are
    consecutive (``wordline * bits + bit``), so ascending page order is
    the wordline-by-wordline, LSB-first order the refresh works in.

    Attributes:
        block_index: The block being refreshed.
        mode: The refresh flow planned for.
        valid_pages: Every valid page (read and ECC-decoded first).
        moves: Pages written to the new block.
        kept: Pages kept in place through the voltage adjustment.
        adjusted_wordlines: Wordlines that will be voltage-adjusted —
            exactly those keeping pages.  A full-move plan (baseline
            mode, or reclaiming an old IDA block) adjusts none, even
            where the Table I case is 1-4.
        start_bits: Kept-suffix start bit of each adjusted wordline; it
            keeps bits ``start_bit..b-1``, all of them valid.
    """

    block_index: int
    mode: RefreshMode
    valid_pages: np.ndarray
    moves: np.ndarray
    kept: np.ndarray
    adjusted_wordlines: np.ndarray
    start_bits: np.ndarray


def plan_refresh(block: Block, mode: RefreshMode) -> RefreshPlan:
    """Plan the refresh of ``block`` without mutating anything.

    Baseline mode — and any block that was *already* IDA-reprogrammed
    (the paper forces IDA blocks to be fully reclaimed at their next
    refresh cycle, Sec. III-C) — moves every valid page.  IDA mode
    classifies each wordline per Table I: the block's page states are
    read once as a (wordlines x bits) validity matrix, each row is packed
    into a bitmask, and the bitmasks index :func:`validity_table`.
    """
    bits = block.bits_per_cell
    base = block.slot * block.pages_per_block
    pages = block.state.page_state_np[base : base + block.pages_per_block]
    valid = (pages == _VALID).reshape(-1, bits)
    valid_pages = np.flatnonzero(valid)
    if mode is RefreshMode.BASELINE or block.is_ida:
        nothing = valid_pages[:0]
        return RefreshPlan(
            block.index, mode, valid_pages, valid_pages, nothing, nothing, nothing
        )
    shifts = np.arange(bits)
    masks = valid @ (1 << shifts)
    table = validity_table(bits)
    move_rows = (table.move_mask[masks, None] >> shifts) & 1
    keep_rows = (table.keep_mask[masks, None] >> shifts) & 1
    adjusted = np.flatnonzero(table.keep_mask[masks])
    return RefreshPlan(
        block.index,
        mode,
        valid_pages,
        np.flatnonzero(move_rows),
        np.flatnonzero(keep_rows),
        adjusted,
        table.start_bit[masks[adjusted]].astype(np.int64),
    )
