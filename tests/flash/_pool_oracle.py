"""Test helpers for per-plane pools: a column-backed builder and the
explicit-set oracle the column-derived membership is checked against.

``PoolOracle`` is the bookkeeping ``PlanePool`` used to keep in RAM: a
``used`` set (closed blocks holding programmed pages) and a ``retired``
set, updated on every transition.  ``greedy_min`` is the Python
``min`` GC victim selection used to run over that ``used`` set.
"""

from __future__ import annotations

from repro.flash.block import Block
from repro.flash.plane import PlanePool
from repro.flash.state import DeviceState


def plane_pool(
    num_blocks: int = 4, pages: int = 6, planes: int = 1, plane: int = 0
) -> PlanePool:
    """Pool ``plane`` of ``planes`` over one shared :class:`DeviceState`.

    Built the way ``BlockStatusTable`` builds its pools: one state for
    the device, block views over it, and consecutive slots per plane.
    """
    state = DeviceState(num_blocks * planes, pages, 3)
    first = plane * num_blocks
    blocks = [
        Block(index=slot, pages_per_block=pages, bits_per_cell=3, state=state)
        for slot in range(first, first + num_blocks)
    ]
    return PlanePool(plane_index=plane, blocks=blocks)


def greedy_min(pool: PlanePool, used) -> Block | None:
    """GREEDY wear-aware victim over an explicit ``used`` set."""
    candidates = [
        pool.blocks[i]
        for i in used
        if pool.blocks[i].is_full and not pool.blocks[i].locked
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda b: (b.valid_count, b.erase_count, b.index))


class PoolOracle:
    """Explicit ``used`` / ``retired`` sets driven alongside a pool."""

    def __init__(self, pool: PlanePool) -> None:
        self.pool = pool
        self.used: set[int] = set()
        self.retired: set[int] = set()

    def _closed(self, before: int | None) -> None:
        if before is not None and self.pool.active != before:
            self.used.add(before)

    def open(self, now_us: float = 0.0) -> None:
        before = self.pool.active
        self.pool.active_block(now_us)
        self._closed(before)

    def program(self, now_us: float = 0.0) -> None:
        before = self.pool.active
        self.pool.active_block(now_us).program_next(now_us)
        self._closed(before)
        before = self.pool.active
        self.pool.retire_active()
        self._closed(before)

    def release(self, in_plane: int) -> None:
        self.pool.release(in_plane)
        self.used.discard(in_plane)

    def retire(self, in_plane: int) -> None:
        self.pool.retire(in_plane)
        self.retired.add(in_plane)
        self.used.discard(in_plane)
