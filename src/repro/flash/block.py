"""Block-level bookkeeping used by the FTL and simulator.

A :class:`Block` tracks exactly the state the paper's FTL needs (Sec.
III-C, "Hardware/Software Overheads"): per-page validity (the existing
block status table), one flag telling conventional blocks from IDA blocks,
and one per-wordline mode recording which reprogrammed code the wordline
uses (CSB+MSB kept, or MSB only — generalised here to "kept-bit suffix
start").  Sense counts for every (wordline mode, page type) pair are
precomputed once per coding in :class:`SenseTable`.

Since the columnar refactor a ``Block`` no longer *owns* its metadata:
it is a view over one slot of a shared
:class:`~repro.flash.state.DeviceState` (see that module for the column
schema).  A ``Block`` built standalone — ``Block(index=3,
pages_per_block=192, bits_per_cell=3)``, as unit tests do — allocates a
private single-slot state, so the classic object-per-block style keeps
working unchanged.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import product

import numpy as np

from ..core.coding import GrayCoding
from ..core.ida import IdaTransform
from .state import (
    CONVENTIONAL_WL,
    FLAG_IS_IDA,
    FLAG_LOCKED,
    FLAG_RETIRED,
    TORN_WL,
    DeviceState,
)

__all__ = ["PageState", "SenseTable", "Block", "CONVENTIONAL_WL", "TORN_WL"]


class PageState(IntEnum):
    """Lifecycle of one physical page."""

    FREE = 0
    VALID = 1
    INVALID = 2


_VALID = int(PageState.VALID)
_INVALID = int(PageState.INVALID)


class SenseTable:
    """Precomputed sense counts for a coding and all its IDA modes.

    For a ``b``-bit coding there are ``b - 1`` possible reprogrammed modes,
    identified by the *start bit* of the kept suffix (TLC: start 1 keeps
    CSB+MSB, start 2 keeps MSB only).  The table resolves
    ``(wordline mode, page type) -> senses`` in O(1), which is the hot path
    of the simulator.
    """

    def __init__(self, coding: GrayCoding) -> None:
        self.coding = coding
        self.conventional: tuple[int, ...] = coding.sense_counts()
        self._ida: dict[int, dict[int, int]] = {}
        for start in range(1, coding.bits):
            transform = IdaTransform(coding, tuple(range(start, coding.bits)))
            self._ida[start] = transform.sense_counts()
        self._lut: np.ndarray | None = None
        #: Wordline validity (the Table I input) keyed by the wordline's
        #: page-state bytes, for every combination of page states.
        self.validity: dict[bytes, tuple[bool, ...]] = {
            bytes(states): tuple(state == _VALID for state in states)
            for states in product(range(len(PageState)), repeat=coding.bits)
        }

    def senses(self, wl_mode: int, bit: int) -> int:
        """Senses to read page type ``bit`` under wordline mode ``wl_mode``.

        Args:
            wl_mode: :data:`CONVENTIONAL_WL` or the kept-suffix start bit.
            bit: Page type (0 = LSB).

        Raises:
            KeyError: if the bit was evicted by the mode (reading an
                invalidated page of an IDA wordline is a logic error).
        """
        if wl_mode == CONVENTIONAL_WL:
            return self.conventional[bit]
        if wl_mode == TORN_WL:
            raise KeyError(
                "wordline is torn (interrupted IDA reprogram); "
                "recovery must resolve its coding before reads"
            )
        return self._ida[wl_mode][bit]

    def lut(self) -> np.ndarray:
        """The table as a dense ``(256, bits)`` array for batched lookup.

        Row = wordline mode byte, column = page type; 0 marks unreadable
        combinations (evicted bit, torn wordline, undefined mode) so
        vector consumers (the coding-invariant checks) can detect the
        same logic errors the scalar :meth:`senses` raises on.
        """
        if self._lut is None:
            lut = np.zeros((256, self.coding.bits), dtype=np.int64)
            lut[CONVENTIONAL_WL, :] = self.conventional
            for start, counts in self._ida.items():
                for bit, senses in counts.items():
                    lut[start, bit] = senses
            self._lut = lut
        return self._lut


class Block:
    """View of one physical block's slot in a :class:`DeviceState`.

    The attribute surface is unchanged from the pre-columnar dataclass —
    ``next_page``, ``valid_count``, ``erase_count``, ``programmed_at_us``
    (None until first program), ``is_ida``, ``locked`` all read and write
    through to the shared columns.

    Attributes:
        state: The columnar store holding this block's metadata.
        slot: This block's row in ``state`` (device-linear).
        index: Linear block number within the device (equals ``slot`` for
            device-built blocks; standalone test blocks may report any
            index while occupying slot 0 of a private state).
        pages_per_block: Page count (Table II: 192).
        bits_per_cell: Cell density (TLC: 3).
    """

    __slots__ = (
        "state",
        "slot",
        "index",
        "pages_per_block",
        "bits_per_cell",
        "_ps",
        "_wl",
        "_p0",
        "_w0",
    )

    def __init__(
        self,
        index: int,
        pages_per_block: int,
        bits_per_cell: int,
        state: DeviceState | None = None,
        slot: int | None = None,
    ) -> None:
        if state is None:
            state = DeviceState(1, pages_per_block, bits_per_cell)
            slot = 0
        elif slot is None:
            slot = index
        if (
            pages_per_block != state.pages_per_block
            or bits_per_cell != state.bits_per_cell
        ):
            raise ValueError("block geometry disagrees with its device state")
        self.state = state
        self.slot = slot
        self.index = index
        self.pages_per_block = pages_per_block
        self.bits_per_cell = bits_per_cell
        # Cached buffer references + base offsets: the scalar hot path
        # must cost one index, not three attribute hops.
        self._ps = state.page_state
        self._wl = state.wl_mode
        self._p0 = slot * pages_per_block
        self._w0 = slot * state.wordlines_per_block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(index={self.index}, next_page={self.next_page}, "
            f"valid={self.valid_count}, erases={self.erase_count}, "
            f"ida={self.is_ida}, locked={self.locked})"
        )

    # ------------------------------------------------------------------
    # Column-backed attributes
    # ------------------------------------------------------------------
    @property
    def next_page(self) -> int:
        return self.state.next_page[self.slot]

    @next_page.setter
    def next_page(self, value: int) -> None:
        self.state.next_page[self.slot] = value

    @property
    def valid_count(self) -> int:
        return self.state.valid_count[self.slot]

    @valid_count.setter
    def valid_count(self, value: int) -> None:
        self.state.valid_count[self.slot] = value

    @property
    def erase_count(self) -> int:
        return self.state.erase_count[self.slot]

    @erase_count.setter
    def erase_count(self, value: int) -> None:
        self.state.erase_count[self.slot] = value

    @property
    def programmed_at_us(self) -> float | None:
        value = self.state.programmed_at_us[self.slot]
        return None if value != value else value  # NaN encodes None

    @programmed_at_us.setter
    def programmed_at_us(self, value: float | None) -> None:
        self.state.programmed_at_us[self.slot] = (
            float("nan") if value is None else value
        )

    @property
    def is_ida(self) -> bool:
        return bool(self.state.flags[self.slot] & FLAG_IS_IDA)

    @is_ida.setter
    def is_ida(self, value: bool) -> None:
        if value:
            self.state.flags[self.slot] |= FLAG_IS_IDA
        else:
            self.state.flags[self.slot] &= ~FLAG_IS_IDA & 0xFF

    @property
    def locked(self) -> bool:
        return bool(self.state.flags[self.slot] & FLAG_LOCKED)

    @locked.setter
    def locked(self, value: bool) -> None:
        if value:
            self.state.flags[self.slot] |= FLAG_LOCKED
        else:
            self.state.flags[self.slot] &= ~FLAG_LOCKED & 0xFF

    @property
    def retired(self) -> bool:
        return bool(self.state.flags[self.slot] & FLAG_RETIRED)

    @retired.setter
    def retired(self, value: bool) -> None:
        if value:
            self.state.flags[self.slot] |= FLAG_RETIRED
        else:
            self.state.flags[self.slot] &= ~FLAG_RETIRED & 0xFF

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def wordlines(self) -> int:
        return self.pages_per_block // self.bits_per_cell

    @property
    def is_full(self) -> bool:
        return self.state.next_page[self.slot] >= self.pages_per_block

    def state_of(self, page: int) -> PageState:
        return PageState(self._ps[self._p0 + page])

    def wordline_of(self, page: int) -> int:
        return page // self.bits_per_cell

    def bit_of(self, page: int) -> int:
        return page % self.bits_per_cell

    def wordline_validity(self, wordline: int) -> tuple[bool, ...]:
        """Per-bit validity of a wordline (the Table I input)."""
        base = self._p0 + wordline * self.bits_per_cell
        states = self._ps
        return tuple(
            states[base + offset] == _VALID for offset in range(self.bits_per_cell)
        )

    def valid_pages(self) -> list[int]:
        """Page-in-block indices of all valid pages, ascending."""
        base = self._p0
        column = self.state.page_state_np[base : base + self.pages_per_block]
        return np.flatnonzero(column == _VALID).tolist()

    def wl_mode(self, wordline: int) -> int:
        return self._wl[self._w0 + wordline]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def program_next(self, now_us: float) -> int:
        """Program the next sequential page; returns its page index.

        Raises:
            RuntimeError: if the block is full or was IDA-reprogrammed
                (IDA blocks accept no new programs until erased).
        """
        state = self.state
        slot = self.slot
        page = state.next_page[slot]
        if page >= self.pages_per_block:
            raise RuntimeError(f"block {self.index} is full")
        if state.flags[slot] & FLAG_IS_IDA:
            raise RuntimeError(f"block {self.index} is IDA-coded; erase first")
        state.next_page[slot] = page + 1
        self._ps[self._p0 + page] = _VALID
        state.valid_count[slot] += 1
        stamp = state.programmed_at_us[slot]
        if stamp != stamp:  # NaN: first program since erase
            state.programmed_at_us[slot] = now_us
        return page

    def invalidate(self, page: int) -> None:
        """Mark a valid page invalid (its logical data moved elsewhere)."""
        offset = self._p0 + page
        if self._ps[offset] != _VALID:
            raise RuntimeError(
                f"block {self.index} page {page} is not valid "
                f"({PageState(self._ps[offset]).name})"
            )
        self._ps[offset] = _INVALID
        self.state.valid_count[self.slot] -= 1

    def set_wordline_ida(self, wordline: int, start_bit: int) -> None:
        """Record a voltage adjustment keeping bits ``start_bit..b-1``."""
        if not 1 <= start_bit < self.bits_per_cell:
            raise ValueError(f"invalid kept-suffix start bit {start_bit}")
        self._wl[self._w0 + wordline] = start_bit
        self.state.flags[self.slot] |= FLAG_IS_IDA

    def mark_wordline_torn(self, wordline: int) -> None:
        """An adjustment of this wordline was interrupted mid-reprogram."""
        self._wl[self._w0 + wordline] = TORN_WL

    def resolve_wordline(self, wordline: int, mode: int) -> None:
        """Land a torn wordline in a definite coding (fault recovery).

        Args:
            mode: :data:`CONVENTIONAL_WL` or a kept-suffix start bit —
                never :data:`TORN_WL`; recovery must *resolve*, not
                re-tear.
        """
        if mode != CONVENTIONAL_WL and not 1 <= mode < self.bits_per_cell:
            raise ValueError(f"cannot resolve wordline to mode {mode:#x}")
        self._wl[self._w0 + wordline] = mode

    def erase(self) -> None:
        """Erase the block: all pages free, wear counter bumped.

        Every row of the block resets to its erased value
        (:meth:`DeviceState.erase_rows`), the on-flash SPOR metadata
        included; the wear counter and the LOCKED / RETIRED flags
        survive.
        """
        state = self.state
        slot = self.slot
        if state.valid_count[slot]:
            raise RuntimeError(
                f"erasing block {self.index} with "
                f"{state.valid_count[slot]} valid pages"
            )
        state.erase_rows(slot)
        state.erase_count[slot] += 1
        state.flags[slot] &= ~FLAG_IS_IDA & 0xFF

    def seal_summary(self) -> None:
        """Write the block summary page (called when the block fills).

        Real controllers append a summary page as the last program of a
        block: here it durably stamps a close-time sequence number (one
        past the newest OOB record in the block — derived from the
        block's own pages so the scalar and batch write paths seal
        identically) and a copy of every wordline's coding mode.  Later
        ADJUST commits update the ``summary_wl_mode`` row in place
        (modelling the summary rewrite that accompanies an IDA
        reprogram).
        """
        state = self.state
        base = self._p0
        seqs = state.oob_seq_np[base : base + self.pages_per_block]
        state.summary_seq[self.slot] = int(seqs.max()) + 1
        w_end = self._w0 + self.wordlines
        state.summary_wl_mode[self._w0 : w_end] = state.wl_mode[
            self._w0 : w_end
        ]

    def journal_adjust(
        self, wordline: int, start_bit: int, kept_pages: tuple[int, ...]
    ) -> None:
        """Persist an ADJUST intent in the on-flash journal columns.

        Written *before* the adjust pulse is issued, like a real
        controller's write-ahead journal: a power cut between this record
        and :meth:`commit_wordline_summary` leaves enough on flash for
        the mount path to roll the wordline forward to the intended
        coding.  ``kept_pages`` are page-in-block indices riding the
        wordline; they pack into a bitmask of in-wordline offsets (at
        most ``bits_per_cell`` <= 8 pages per wordline).
        """
        state = self.state
        gw = self._w0 + wordline
        state.journal_bit[gw] = start_bit
        base = wordline * self.bits_per_cell
        mask = 0
        for page in kept_pages:
            mask |= 1 << (page - base)
        state.journal_kept[gw] = mask

    def journaled_adjust(self, wordline: int) -> tuple[int, list[int]]:
        """The ADJUST intent :meth:`journal_adjust` recorded for ``wordline``.

        Returns ``(start_bit, kept_pages)``: ``start_bit`` is 0 when the
        row holds no intent (never written, committed, or erased).
        """
        state = self.state
        gw = self._w0 + wordline
        mask = state.journal_kept[gw]
        base = wordline * self.bits_per_cell
        kept = [base + off for off in range(self.bits_per_cell) if (mask >> off) & 1]
        return state.journal_bit[gw], kept

    def adjust_wordlines(self, wordlines: np.ndarray, start_bits: np.ndarray) -> None:
        """Bulk :meth:`set_wordline_ida` plus :meth:`journal_adjust`.

        Records the voltage adjustment of each of ``wordlines`` to keep
        bits ``start_bits[i]..b-1`` — every one of them a valid page the
        wordline keeps — together with its on-flash intent record.

        Raises:
            ValueError: on a start bit outside ``1..b-1``.
        """
        if ((start_bits < 1) | (start_bits >= self.bits_per_cell)).any():
            raise ValueError(f"invalid kept-suffix start bits {start_bits}")
        state = self.state
        rows = self._w0 + wordlines
        state.wl_mode_np[rows] = start_bits
        state.journal_bit_np[rows] = start_bits
        state.journal_kept_np[rows] = (1 << self.bits_per_cell) - (1 << start_bits)
        state.flags[self.slot] |= FLAG_IS_IDA

    def commit_wordline_summary(self, wordline: int) -> None:
        """Durably record ``wordline``'s current mode and clear its journal.

        The on-flash commit record of a completed IDA ADJUST: after this,
        a power cut no longer rolls the wordline forward at mount.
        """
        state = self.state
        gw = self._w0 + wordline
        state.summary_wl_mode[gw] = state.wl_mode[gw]
        state.journal_bit[gw] = 0
        state.journal_kept[gw] = 0

    def read_view(
        self, table: SenseTable, page: int
    ) -> tuple[int, int, tuple[bool, ...], bool]:
        """What a host read of ``page`` needs, from one look at its wordline.

        Returns ``(senses, bit, wordline validity, from_ida)``: equal to
        :meth:`senses_for`, :meth:`bit_of`, :meth:`wordline_validity` and
        ``wl_mode != CONVENTIONAL_WL``, composed.

        Raises:
            KeyError: as :meth:`SenseTable.senses` does, for a torn
                wordline or a bit its IDA mode evicted.
        """
        bits = self.bits_per_cell
        wordline, bit = divmod(page, bits)
        mode = self._wl[self._w0 + wordline]
        base = self._p0 + wordline * bits
        validity = table.validity[bytes(self._ps[base : base + bits])]
        if mode == CONVENTIONAL_WL:
            return table.conventional[bit], bit, validity, False
        return table.senses(mode, bit), bit, validity, True

    def senses_for(self, table: SenseTable, page: int) -> int:
        """Senses a read of ``page`` needs given the wordline's mode."""
        return table.senses(
            self._wl[self._w0 + page // self.bits_per_cell],
            page % self.bits_per_cell,
        )
