"""GREEDY wear-aware garbage collection (Bux & Iliadis [27], Table II).

The victim is the reclaimable block with the fewest valid pages; ties are
broken toward the lowest erase count (wear-aware).  GC runs when a plane's
free-block count drops below a low watermark and keeps reclaiming until a
target is restored.  In the paper's read-dominant workloads GC is rare —
refresh is the dominant background task — but it must exist: refresh and
IDA both *consume* free blocks that only GC gives back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flash.block import Block
from ..flash.plane import PlanePool
from ..flash.state import FLAG_LOCKED

__all__ = ["GcPolicy", "select_victim"]


@dataclass(frozen=True)
class GcPolicy:
    """When GC runs and how far it goes.

    Attributes:
        low_watermark: Run GC when a plane's free blocks drop below this.
        target_free: Keep reclaiming until the plane has this many free.
    """

    low_watermark: int = 2
    target_free: int = 4

    def __post_init__(self) -> None:
        if self.low_watermark < 1:
            raise ValueError("low_watermark must be >= 1")
        if self.target_free < self.low_watermark:
            raise ValueError("target_free must be >= low_watermark")


def select_victim(pool: PlanePool) -> Block | None:
    """GREEDY wear-aware victim selection for one plane.

    Only *full*, unlocked in-use blocks are eligible (partially-programmed
    blocks are still being filled; locked blocks are mid-refresh; in use
    excludes retired blocks and the open one).  The victim minimises
    ``(valid_count, erase_count, index)``.  Returns None when the plane
    has no eligible block.
    """
    candidates = pool.in_use()
    full = pool.column("next_page")[candidates] >= pool.blocks[0].pages_per_block
    unlocked = (pool.column("flags")[candidates] & FLAG_LOCKED) == 0
    candidates = candidates[full & unlocked]
    if not len(candidates):
        return None
    # Narrow to the fewest valid pages, then the least wear; candidates
    # ascend, so the first survivor has the lowest index.
    for name in ("valid_count", "erase_count"):
        keys = pool.column(name)[candidates]
        candidates = candidates[keys == keys.min()]
    return pool.blocks[int(candidates[0])]
