"""Per-plane block pools.

Each plane owns its blocks: a free list and the currently-open
("active") block that sequential programs land in.  The allocator and
the GC both work at plane granularity, mirroring the plane-level
parallelism of real devices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .block import Block
from .state import FLAG_RETIRED

__all__ = ["PlanePool"]


@dataclass
class PlanePool:
    """Free/active block management for one plane.

    The pool keeps only what flash cannot say: the free-list order and
    the open block.  In-use and retired membership are read from the
    plane's slice of the device columns, so the blocks must be
    consecutive slots of one :class:`~repro.flash.state.DeviceState`.

    Attributes:
        plane_index: Linear plane number.
        blocks: All blocks of this plane, by in-plane index.
        free: In-plane indices of erased blocks, FIFO.
        active: In-plane index of the block currently accepting programs,
            or ``None`` when a fresh one must be opened.
    """

    plane_index: int
    blocks: list[Block]
    free: deque[int] = field(init=False)
    active: int | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.free = deque(range(len(self.blocks)))
        first, last = self.blocks[0], self.blocks[-1]
        self._state = first.state
        self._rows = slice(first.slot, last.slot + 1)
        span = last.slot - first.slot + 1
        if last.state is not self._state or span != len(self.blocks):
            raise ValueError("a plane's blocks must be consecutive device slots")

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

    def column(self, name: str) -> np.ndarray:
        """This plane's rows of the block-extent device column ``name``."""
        return getattr(self._state, f"{name}_np")[self._rows]

    def in_rotation(self) -> np.ndarray:
        """Per-block mask: not retired (grown bad)."""
        return (self.column("flags") & FLAG_RETIRED) == 0

    def in_use(self) -> np.ndarray:
        """In-plane indices, ascending, of blocks holding programmed
        pages that are neither retired nor the open block."""
        mask = (self.column("next_page") > 0) & self.in_rotation()
        if self.active is not None:
            mask[self.active] = False
        return np.flatnonzero(mask)

    def used_blocks(self) -> list[Block]:
        """All in-use blocks, then the active one."""
        result = [self.blocks[i] for i in self.in_use().tolist()]
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
            self.active = None
        if not self.free:
            raise RuntimeError(f"plane {self.plane_index} has no free blocks")
        self.active = self.free.popleft()
        return self.blocks[self.active]

    def retire_active(self) -> None:
        """Close a filled active block: it is in use from now on.

        Closing a block writes its summary page (close-time sequence
        stamp + wordline coding modes) — the SPOR mount's per-block
        anchor record.
        """
        if self.active is not None and self.blocks[self.active].is_full:
            self.blocks[self.active].seal_summary()
            self.active = None

    def release(self, in_plane_index: int) -> None:
        """Return an erased block to the free list."""
        block = self.blocks[in_plane_index]
        if block.retired:
            raise RuntimeError(
                f"block {in_plane_index} of plane {self.plane_index} is "
                "retired (grown bad) and cannot rejoin the free list"
            )
        if block.next_page and block.valid_count:
            raise RuntimeError("cannot release a block holding valid data")
        if self.active == in_plane_index:
            self.active = None
        self.free.append(in_plane_index)

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    def retire(self, in_plane_index: int) -> None:
        """Take a grown-bad block out of rotation permanently.

        Sets ``FLAG_RETIRED`` and drops the block from the free list and
        the open slot; it will never be allocated, GC'd or refreshed
        again.  The caller is responsible for having migrated any valid
        data off the block first.
        """
        block = self.blocks[in_plane_index]
        if block.retired:
            return
        block.retired = True
        if self.active == in_plane_index:
            self.active = None
        try:
            self.free.remove(in_plane_index)
        except ValueError:
            pass
