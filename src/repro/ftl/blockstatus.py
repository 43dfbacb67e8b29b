"""The device-wide block status table (Sec. III-C).

The paper stresses that IDA needs *no new* validity tracking — it reuses
the FTL's existing block status table, extended by one bit per block
(conventional vs IDA) and one mode bit per wordline.  Since the columnar
refactor the table *owns* one :class:`~repro.flash.state.DeviceState`
(flat columns over every page/wordline/block of the device) and hands
out :class:`~repro.flash.block.Block` views plus the per-plane pools.
It answers the queries the rest of the FTL makes: page validity,
wordline validity and sense counts.  Block-level aggregates are single
array reductions on the state itself (``table.state.ida_blocks()``).
"""

from __future__ import annotations

from ..core.coding import GrayCoding
from ..flash.block import Block, SenseTable
from ..flash.geometry import Geometry
from ..flash.plane import PlanePool
from ..flash.state import DeviceState

__all__ = ["BlockStatusTable"]


class BlockStatusTable:
    """All block state of the device, indexed linearly and per plane."""

    def __init__(
        self,
        geometry: Geometry,
        coding: GrayCoding,
        state: DeviceState | None = None,
    ) -> None:
        """Args:
            state: An existing columnar state to adopt instead of
                allocating a fresh (all-erased) one.  The SPOR mount
                path builds views over the surviving device arrays this
                way; the geometry must match.
        """
        if coding.bits != geometry.bits_per_cell:
            raise ValueError(
                f"coding has {coding.bits} bits/cell but geometry expects "
                f"{geometry.bits_per_cell}"
            )
        self.geometry = geometry
        self.coding = coding
        self.sense_table = SenseTable(coding)
        if state is not None:
            mine = (
                geometry.total_blocks,
                geometry.pages_per_block,
                geometry.bits_per_cell,
            )
            theirs = (
                state.num_blocks,
                state.pages_per_block,
                state.bits_per_cell,
            )
            if mine != theirs:
                raise ValueError(
                    f"adopted device state geometry {theirs} does not "
                    f"match table geometry {mine}"
                )
        self.state = state if state is not None else DeviceState(
            num_blocks=geometry.total_blocks,
            pages_per_block=geometry.pages_per_block,
            bits_per_cell=geometry.bits_per_cell,
        )
        self.blocks: list[Block] = [
            Block(
                index=index,
                pages_per_block=geometry.pages_per_block,
                bits_per_cell=geometry.bits_per_cell,
                state=self.state,
                slot=index,
            )
            for index in range(geometry.total_blocks)
        ]
        self.planes: list[PlanePool] = []
        for plane_index in range(geometry.total_planes):
            start = plane_index * geometry.blocks_per_plane
            end = start + geometry.blocks_per_plane
            self.planes.append(PlanePool(plane_index, self.blocks[start:end]))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def block(self, block_index: int) -> Block:
        return self.blocks[block_index]

    def block_of_ppn(self, ppn: int) -> tuple[Block, int]:
        """(block, page-in-block) of a physical page number."""
        block_index, page = self.geometry.decompose_page(ppn)
        return self.blocks[block_index], page

    def plane_of_block(self, block_index: int) -> PlanePool:
        return self.planes[self.geometry.plane_of_block(block_index)]

    def free_blocks(self) -> int:
        return sum(pool.free_count for pool in self.planes)
