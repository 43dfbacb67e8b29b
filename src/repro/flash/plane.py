"""Per-plane block pools.

Each plane owns its blocks: a free list, the currently-open ("active")
block that sequential programs land in, and the set of in-use blocks.  The
allocator and the GC both work at plane granularity, mirroring the
plane-level parallelism of real devices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .block import Block

__all__ = ["PlanePool"]


@dataclass
class PlanePool:
    """Free/active/used block management for one plane.

    Attributes:
        plane_index: Linear plane number.
        blocks: All blocks of this plane, by in-plane index.
        free: In-plane indices of erased blocks, FIFO.
        active: In-plane index of the block currently accepting programs,
            or ``None`` when a fresh one must be opened.
        used: In-plane indices of fully- or partially-programmed blocks
            that are not the active block.
        retired: In-plane indices of grown-bad blocks — permanently out
            of rotation (never free, never allocated, never a GC or
            refresh candidate).  Retirement shrinks the plane's usable
            capacity; only fault-injection paths populate this.
    """

    plane_index: int
    blocks: list[Block]
    free: deque[int] = field(init=False)
    active: int | None = field(default=None, init=False)
    used: set[int] = field(init=False)
    retired: set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.free = deque(range(len(self.blocks)))
        self.used = set()
        self.retired = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self.free)

    @property
    def total_blocks(self) -> int:
        return len(self.blocks)

    def block(self, in_plane_index: int) -> Block:
        return self.blocks[in_plane_index]

    def used_blocks(self) -> list[Block]:
        """All non-free blocks, including the active one."""
        result = [self.blocks[i] for i in sorted(self.used)]
        if self.active is not None:
            result.append(self.blocks[self.active])
        return result

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def active_block(self, now_us: float) -> Block:
        """The block the next program goes to, opening one if needed.

        Raises:
            RuntimeError: if the plane is out of free blocks (the FTL must
                run GC before this happens).
        """
        if self.active is not None and not self.blocks[self.active].is_full:
            return self.blocks[self.active]
        if self.active is not None:
            self.blocks[self.active].seal_summary()
            self.used.add(self.active)
            self.active = None
        if not self.free:
            raise RuntimeError(f"plane {self.plane_index} has no free blocks")
        self.active = self.free.popleft()
        return self.blocks[self.active]

    def retire_active(self) -> None:
        """Move a filled active block to the used set.

        Closing a block writes its summary page (close-time sequence
        stamp + wordline coding modes) — the SPOR mount's per-block
        anchor record.
        """
        if self.active is not None and self.blocks[self.active].is_full:
            self.blocks[self.active].seal_summary()
            self.used.add(self.active)
            self.active = None

    def release(self, in_plane_index: int) -> None:
        """Return an erased block to the free list."""
        if in_plane_index in self.retired:
            raise RuntimeError(
                f"block {in_plane_index} of plane {self.plane_index} is "
                "retired (grown bad) and cannot rejoin the free list"
            )
        block = self.blocks[in_plane_index]
        if block.next_page and block.valid_count:
            raise RuntimeError("cannot release a block holding valid data")
        self.used.discard(in_plane_index)
        if self.active == in_plane_index:
            self.active = None
        self.free.append(in_plane_index)

    def gc_candidates(self) -> list[Block]:
        """Blocks eligible as GC victims (used, not the active block)."""
        return [self.blocks[i] for i in self.used]

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    def retire(self, in_plane_index: int) -> None:
        """Take a grown-bad block out of rotation permanently.

        The block leaves whichever set currently holds it (free, used or
        active); it will never be allocated, GC'd or refreshed again.
        The caller is responsible for having migrated any valid data off
        the block first.
        """
        if in_plane_index in self.retired:
            return
        self.retired.add(in_plane_index)
        self.blocks[in_plane_index].retired = True
        self.used.discard(in_plane_index)
        if self.active == in_plane_index:
            self.active = None
        try:
            self.free.remove(in_plane_index)
        except ValueError:
            pass

    def is_retired(self, in_plane_index: int) -> bool:
        return in_plane_index in self.retired
