"""Voltage-state-level wordline model, kept as a test oracle.

This is the exact, cell-resolution layer: every cell of a wordline holds an
explicit threshold-voltage state, programs and reads go through the coding
tables, and the IDA adjustment literally moves states rightward.  The
simulator never touches this layer (it consumes derived sense counts, just
as the paper's DiskSim model did); ``test_data_integrity.py`` executes the
coding mechanics on it to check the bit-exactness claims of Sec. III.
Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.coding import GrayCoding
from repro.core.ida import IdaTransform

__all__ = ["WordlineCells", "ERASED_STATE"]

#: Index of the erased (lowest) voltage state in every coding.
ERASED_STATE = 0


@dataclass
class WordlineCells:
    """The cells of one wordline, as explicit voltage states.

    Attributes:
        coding: The conventional coding the wordline was programmed with.
        size: Number of cells (bits per page).
        states: Current threshold-voltage state of each cell.
        transform: The IDA transform applied to this wordline, or ``None``
            while it is conventionally coded.
    """

    coding: GrayCoding
    size: int
    states: np.ndarray = field(init=False)
    transform: IdaTransform | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("a wordline needs at least one cell")
        self.states = np.full(self.size, ERASED_STATE, dtype=np.int8)

    # ------------------------------------------------------------------
    # Conventional program / read
    # ------------------------------------------------------------------
    def program(self, pages: Sequence[np.ndarray]) -> None:
        """Program all pages of the wordline at once.

        Args:
            pages: One bit array per page, LSB page first, each of length
                ``size``.  Programming requires an erased wordline — real
                NAND cannot lower a cell's voltage without a block erase.

        Raises:
            RuntimeError: if any cell is not erased, or the wordline was
                IDA-reprogrammed (it must be erased first).
        """
        if self.transform is not None:
            raise RuntimeError("cannot reprogram an IDA wordline without erase")
        if (self.states != ERASED_STATE).any():
            raise RuntimeError("cannot program a non-erased wordline")
        if len(pages) != self.coding.bits:
            raise ValueError(
                f"need {self.coding.bits} pages, got {len(pages)}"
            )
        bits = np.vstack([np.asarray(p, dtype=np.int8) for p in pages])
        if bits.shape != (self.coding.bits, self.size):
            raise ValueError("page length mismatch")
        lookup = {state: index for index, state in enumerate(self.coding.states)}
        for cell in range(self.size):
            self.states[cell] = lookup[tuple(int(b) for b in bits[:, cell])]

    def read_page(self, bit: int) -> np.ndarray:
        """Read one page by boundary sensing.

        Uses the conventional boundaries when the wordline is conventional
        and the merged boundaries after an IDA adjustment.  The sensing
        procedure is the parity-of-crossed-boundaries rule of
        :meth:`repro.core.coding.GrayCoding.read_bit_by_sensing`.
        """
        boundaries = self._boundaries(bit)
        anchor = self._anchor(bit)
        crossed = np.zeros(self.size, dtype=np.int64)
        for boundary in boundaries:
            crossed += self.states >= boundary
        even = (crossed % 2) == 0
        return np.where(even, anchor, 1 - anchor).astype(np.int8)

    def senses(self, bit: int) -> int:
        """Number of senses a read of ``bit`` currently needs."""
        return len(self._boundaries(bit))

    # ------------------------------------------------------------------
    # IDA adjustment
    # ------------------------------------------------------------------
    def apply_ida(self, valid_bits: Sequence[int]) -> IdaTransform:
        """Voltage-adjust the wordline for the given surviving bits.

        Every cell moves (rightward only — checked) to its merged state.
        Returns the applied transform; subsequent :meth:`read_page` calls
        for valid bits use the merged boundaries.
        """
        transform = IdaTransform(self.coding, tuple(valid_bits))
        move = np.asarray(transform.move_map, dtype=np.int8)
        targets = move[self.states]
        if (targets < self.states).any():
            raise RuntimeError("ISPP cannot move a cell to a lower state")
        self.states = targets
        self.transform = transform
        return transform

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _boundaries(self, bit: int) -> tuple[int, ...]:
        if self.transform is not None:
            return self.transform.boundaries(bit)
        return self.coding.boundaries(bit)

    def _anchor(self, bit: int) -> int:
        """Bit value below the first kept boundary (sensing anchor)."""
        if self.transform is not None:
            lowest = self.transform.merged_states[0]
            return self.coding.states[lowest][bit]
        return self.coding.states[0][bit]
