"""Wordline case classification — Table I of the paper.

During the IDA-modified data refresh, each wordline of the target block is
classified by the validity of its pages.  For TLC the eight combinations of
(LSB, CSB, MSB) validity map onto eight cases:

====  =======  =======  =======  ==========================================
case  LSB      CSB      MSB      action
====  =======  =======  =======  ==========================================
1     valid    valid    valid    move LSB; adjust voltage for CSB/MSB
2     invalid  valid    valid    adjust voltage for CSB/MSB
3     valid    invalid  valid    move LSB; adjust voltage for MSB
4     invalid  invalid  valid    adjust voltage for MSB
5     valid    valid    invalid  move LSB and CSB
6     invalid  valid    invalid  move CSB
7     valid    invalid  invalid  move LSB
8     invalid  invalid  invalid  nothing to do
====  =======  =======  =======  ==========================================

The classifier below generalises the paper's policy to any cell density:
IDA is applied iff the top bit (MSB) is valid; the bits kept in place are
the maximal *contiguous* run of valid bits ending at the MSB and starting
above bit 0 (the paper always evicts the LSB — cases 1 and 3 are converted
into cases 2 and 4 by moving it); every other valid bit is moved to the
new block, as the original refresh would have done.

:func:`validity_table` is the same policy in lookup form: one entry per
validity bitmask of a ``b``-bit wordline, built from
:func:`classify_validity` so the refresh planner can classify a whole
block with one gather instead of one call per wordline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "WordlineAction",
    "WordlineDecision",
    "classify_validity",
    "classify_tlc_case",
    "TLC_CASE_TABLE",
    "ValidityTable",
    "validity_table",
]


class WordlineAction(Enum):
    """What the modified refresh does with a wordline."""

    ADJUST = "adjust"
    """Apply the IDA voltage adjustment (possibly after moving some pages)."""

    MOVE = "move"
    """Move all valid pages to the new block, as the baseline refresh does."""

    NOTHING = "nothing"
    """No valid pages — nothing to do (the block erase reclaims it later)."""


@dataclass(frozen=True)
class WordlineDecision:
    """Outcome of classifying one wordline.

    Attributes:
        action: The high-level action (adjust / move / nothing).
        pages_to_move: Bit positions whose valid pages are written to the
            new block (for ``ADJUST`` this is the evicted lower pages; for
            ``MOVE`` it is every valid page).
        adjust_bits: Bit positions that stay in the wordline and are read
            through the IDA coding afterwards (empty unless ``ADJUST``).
        case: The 1-based Table I case number for TLC wordlines, or
            ``None`` for other densities.
    """

    action: WordlineAction
    pages_to_move: tuple[int, ...]
    adjust_bits: tuple[int, ...]
    case: int | None = None

    @property
    def applies_ida(self) -> bool:
        """Whether this wordline is reprogrammed with the IDA coding."""
        return self.action is WordlineAction.ADJUST


def classify_validity(valid: Sequence[bool]) -> WordlineDecision:
    """Classify a wordline by its per-bit validity, LSB first.

    Args:
        valid: ``valid[k]`` is True iff the page stored in bit ``k`` of
            this wordline still holds live data.

    Returns:
        The refresh decision for this wordline (see class docstring for
        the policy).
    """
    flags = tuple(bool(v) for v in valid)
    if len(flags) < 2:
        raise ValueError("IDA classification needs a multi-bit cell")
    bits = len(flags)
    case = _tlc_case_number(flags) if bits == 3 else None

    if not any(flags):
        return WordlineDecision(WordlineAction.NOTHING, (), (), case)

    msb = bits - 1
    if not flags[msb]:
        moved = tuple(k for k in range(bits) if flags[k])
        return WordlineDecision(WordlineAction.MOVE, moved, (), case)

    # MSB valid: keep the maximal contiguous valid run ending at the MSB,
    # never including bit 0 (the paper always evicts the LSB).
    start = msb
    while start - 1 >= 1 and flags[start - 1]:
        start -= 1
    adjust = tuple(range(start, bits))
    moved = tuple(k for k in range(start) if flags[k])
    return WordlineDecision(WordlineAction.ADJUST, moved, adjust, case)


def _tlc_case_number(flags: tuple[bool, ...]) -> int:
    """Table I case number (1-8) for a TLC validity tuple (LSB, CSB, MSB)."""
    lsb, csb, msb = flags
    table = {
        (True, True, True): 1,
        (False, True, True): 2,
        (True, False, True): 3,
        (False, False, True): 4,
        (True, True, False): 5,
        (False, True, False): 6,
        (True, False, False): 7,
        (False, False, False): 8,
    }
    return table[(lsb, csb, msb)]


def classify_tlc_case(lsb_valid: bool, csb_valid: bool, msb_valid: bool) -> WordlineDecision:
    """Table I entry for an explicit TLC validity triple."""
    return classify_validity((lsb_valid, csb_valid, msb_valid))


#: All eight Table I rows, keyed by case number, for documentation and tests.
TLC_CASE_TABLE: dict[int, WordlineDecision] = {
    decision.case: decision
    for decision in (
        classify_tlc_case(lsb, csb, msb)
        for msb in (True, False)
        for csb in (True, False)
        for lsb in (True, False)
    )
}


class ValidityTable(NamedTuple):
    """:func:`classify_validity` for every wordline validity bitmask.

    Row ``m`` describes the wordline whose bit-``k`` page is valid iff
    bit ``k`` of ``m`` is set (LSB = bit 0).  All three columns are
    read-only ``uint8`` arrays of length ``2**bits``.

    Attributes:
        move_mask: Bits of the pages the refresh writes to the new block.
        keep_mask: Bits kept in place through the voltage adjustment
            (nonzero exactly when the wordline is adjusted).
        start_bit: Kept-suffix start bit of an adjusted wordline (its new
            wordline mode), 0 otherwise.
    """

    move_mask: np.ndarray
    keep_mask: np.ndarray
    start_bit: np.ndarray


@cache
def validity_table(bits: int) -> ValidityTable:
    """The Table I decisions of a ``bits``-bit cell, indexed by bitmask."""
    size = 1 << bits
    move = np.zeros(size, dtype=np.uint8)
    keep = np.zeros(size, dtype=np.uint8)
    start = np.zeros(size, dtype=np.uint8)
    for mask in range(size):
        decision = classify_validity([mask >> k & 1 for k in range(bits)])
        move[mask] = sum(1 << k for k in decision.pages_to_move)
        if decision.applies_ida:
            keep[mask] = sum(1 << k for k in decision.adjust_bits)
            start[mask] = decision.adjust_bits[0]
    for column in (move, keep, start):
        column.setflags(write=False)
    return ValidityTable(move, keep, start)
