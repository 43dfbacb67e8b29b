"""Physical topology of the simulated SSD (Table II / Fig. 1).

The paper's baseline device: 4 channels x 4 chips/channel, 2 dies/chip,
2 planes/die, 5472 blocks/plane, 192 pages/block (64 TLC wordlines), 8 KiB
pages.  The geometry object owns all address arithmetic: linear die /
plane / block / page numbering and the derived counts the experiment
configs use.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Geometry"]


@dataclass(frozen=True)
class Geometry:
    """Immutable SSD topology with derived counts and address math.

    Pages within a block are programmed in order; page ``p`` lives on
    wordline ``p // bits_per_cell`` as bit ``p % bits_per_cell``, so a
    192-page TLC block has 64 wordlines each carrying an LSB, CSB and MSB
    page — the layout the paper's Table I reasons about.
    """

    channels: int = 4
    chips_per_channel: int = 4
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 5472
    pages_per_block: int = 192
    page_size_kib: int = 8
    bits_per_cell: int = 3

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size_kib",
            "bits_per_cell",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.pages_per_block % self.bits_per_cell:
            raise ValueError(
                "pages_per_block must be a multiple of bits_per_cell "
                f"({self.pages_per_block} % {self.bits_per_cell} != 0)"
            )

    # ------------------------------------------------------------------
    # Derived counts
    # ------------------------------------------------------------------
    @property
    def wordlines_per_block(self) -> int:
        return self.pages_per_block // self.bits_per_cell

    @property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def total_dies(self) -> int:
        return self.total_chips * self.dies_per_chip

    @property
    def total_planes(self) -> int:
        return self.total_dies * self.planes_per_die

    @property
    def total_blocks(self) -> int:
        return self.total_planes * self.blocks_per_plane

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def page_size_bytes(self) -> int:
        return self.page_size_kib * 1024

    # ------------------------------------------------------------------
    # Address math
    # ------------------------------------------------------------------
    def plane_index(self, channel: int, chip: int, die: int, plane: int) -> int:
        """Linear plane number of (channel, chip, die, plane)."""
        return (
            (
                (channel * self.chips_per_channel + chip) * self.dies_per_chip
                + die
            )
            * self.planes_per_die
            + plane
        )

    def die_index(self, channel: int, chip: int, die: int) -> int:
        """Linear die number of (channel, chip, die)."""
        return (channel * self.chips_per_channel + chip) * self.dies_per_chip + die

    def die_of_plane(self, plane_index: int) -> int:
        """Linear die number owning a linear plane number."""
        return plane_index // self.planes_per_die

    def channel_of_plane(self, plane_index: int) -> int:
        """Channel number owning a linear plane number."""
        per_channel = (
            self.chips_per_channel * self.dies_per_chip * self.planes_per_die
        )
        return plane_index // per_channel

    def block_index(self, plane_index: int, block: int) -> int:
        """Linear block number of block ``block`` in ``plane_index``."""
        return plane_index * self.blocks_per_plane + block

    def plane_of_block(self, block_index: int) -> int:
        return block_index // self.blocks_per_plane

    def page_number(self, block_index: int, page: int) -> int:
        """Linear physical page number (PPN)."""
        return block_index * self.pages_per_block + page

    def decompose_page(self, ppn: int) -> tuple[int, int]:
        """(linear block number, page-in-block) of a PPN."""
        return divmod(ppn, self.pages_per_block)
