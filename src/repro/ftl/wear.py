"""Wear and lifetime accounting (the paper's endurance discussion).

Sec. III-B/III-C argue IDA does **not** trade lifetime for performance:
erase counts do not rise (the adjustment reprograms without erasing) and
total refresh writes *drop* (kept pages are not rewritten).  This module
computes the quantities those claims are stated in:

* per-block erase-count statistics and wear evenness;
* write amplification factor (WAF): physical page writes per host write;
* a remaining-lifetime estimate from the erase-cycle budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockstatus import BlockStatusTable
from .ops import FtlCounters

__all__ = ["WearStats", "collect_wear", "write_amplification"]


@dataclass(frozen=True)
class WearStats:
    """Wear snapshot of a device.

    Attributes:
        total_erases: Sum of per-block erase counts.
        max_erases / min_erases: Extremes over all blocks.
        mean_erases: Average erase count.
        wear_spread: ``max - min`` (a 0 means perfectly even wear).
        rated_pe_cycles: The endurance budget compared against.
    """

    total_erases: int
    max_erases: int
    min_erases: int
    mean_erases: float
    rated_pe_cycles: int = 3000

    @property
    def wear_spread(self) -> int:
        return self.max_erases - self.min_erases

    @property
    def worst_block_life_used(self) -> float:
        """Fraction of the rated endurance the most-worn block has used."""
        return min(1.0, self.max_erases / self.rated_pe_cycles)

    def remaining_lifetime_fraction(self) -> float:
        """Remaining life under the current wear pattern (worst block)."""
        return 1.0 - self.worst_block_life_used


def collect_wear(
    table: BlockStatusTable, rated_pe_cycles: int = 3000
) -> WearStats:
    """Aggregate per-block erase counts into a :class:`WearStats`."""
    counts = table.state.erase_count_np
    if not len(counts):
        raise ValueError("device has no blocks")
    return WearStats(
        total_erases=int(counts.sum()),
        max_erases=int(counts.max()),
        min_erases=int(counts.min()),
        mean_erases=float(counts.sum() / len(counts)),
        rated_pe_cycles=rated_pe_cycles,
    )


def write_amplification(counters: FtlCounters) -> float:
    """Write amplification factor observed by the FTL.

    WAF = (host writes + GC moves + refresh moves + refresh write-backs)
    / host writes.  The IDA refresh lowers the refresh-move term (kept
    pages are voltage-adjusted in place, not rewritten), which is how the
    paper argues "the total write count decreases a little".

    Returns 1.0 when no host writes occurred (nothing to amplify).
    """
    if counters.host_writes == 0:
        return 1.0
    physical = (
        counters.host_writes
        + counters.gc_page_moves
        + counters.refresh_page_moves
        + counters.refresh_corrupted_pages
    )
    return physical / counters.host_writes
