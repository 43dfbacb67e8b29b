"""Columnar (structure-of-arrays) device state.

All mutable metadata of the simulated device lives here, one flat column
per field instead of one object per block.  :class:`~repro.flash.block.Block`
and :class:`~repro.flash.plane.PlanePool` are thin *views* over this
state; nothing else owns page/block/wordline metadata.

Why columns
-----------

* **Scale** — the paper's full 512 GB topology is 350,208 blocks /
  67 M pages.  Per-object dicts cannot hold that (memory) or update it
  (speed); one ``uint8`` column over all pages is 67 MB and a block-level
  column is 2.8 MB.
* **Vector math** — columnar untimed writes
  (:meth:`repro.ftl.ftl.Ftl.apply_untimed_batch`), device aggregates and
  the coding-invariant checks run as array operations over these
  columns; wordline-granular policies (STRAW-style stress-aware reclaim,
  per-page coding schemes) get their counters for free.
* **Scalar speed** — the timed event path still touches one page at a
  time.  Columns are therefore stored as
  ``bytearray`` / ``array`` buffers (C-speed scalar indexing, ~3-5x
  faster than numpy scalar access) with **zero-copy live numpy views**
  on top: mutating through either side is visible to the other
  instantly, so the scalar and vector paths can never disagree.

Column schema
-------------

=====================  =========  ============  =============================
column                 per        dtype         meaning
=====================  =========  ============  =============================
``page_state``         page       uint8         :class:`PageState` lifecycle
``wl_mode``            wordline   uint8         coding id: CONVENTIONAL_WL,
                                                TORN_WL or kept-suffix start
``wl_read_count``      wordline   int64         host-read senses landed here
                                                (stress input for STRAW-style
                                                reclaim)
``next_page``          block      int64         sequential program pointer
``valid_count``        block      int64         VALID pages (GC victim key)
``erase_count``        block      int64         P/E wear (RBER input)
``programmed_at_us``   block      float64       age of first program since
                                                erase (RBER retention input;
                                                NaN = never programmed)
``flags``              block      uint8         IS_IDA | LOCKED | RETIRED
``oob_lpn``            page       int64         on-flash OOB record: owning
                                                LPN (-1 = never programmed)
``oob_seq``            page       int64         on-flash OOB record: global
                                                write sequence number
``summary_seq``        block      int64         block summary page: one past
                                                the newest OOB sequence at
                                                block close (-1 = not
                                                sealed)
``summary_wl_mode``    wordline   uint8         block summary page: durable
                                                copy of the wordline coding
                                                mode, updated at ADJUST
                                                commit
``journal_bit``        wordline   uint8         on-flash ADJUST journal:
                                                intended kept-suffix start
                                                bit (0 = no intent pending)
``journal_kept``       wordline   uint8         on-flash ADJUST journal:
                                                bitmask of kept in-wordline
                                                page offsets
=====================  =========  ============  =============================

The last six columns are the sudden-power-off-recovery (SPOR) metadata a
real controller keeps on-flash: per-page OOB spare-area records written
with every program, a per-block summary page sealed when a block fills,
and a two-column reprogram journal persisted before each IDA ADJUST.
``repro.ftl.recovery`` mounts a device from these columns alone (see
``docs/faults.md``).  The monotonically increasing ``write_seq`` scalar
feeds ``oob_seq``; every program — host write or relocation — stamps a
fresh sequence number, so the newest stamp of an LPN always marks its
live physical copy.

View-ownership rules (enforced by convention, pinned by the parity
tests): only :class:`~repro.flash.block.Block` views and the vectorized
batch helpers in this module mutate columns; everything above the flash
layer reads through the view API or the numpy views, never by caching
column slices across mutations.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = [
    "DeviceState",
    "DeviceStateSnapshot",
    "FLAG_IS_IDA",
    "FLAG_LOCKED",
    "FLAG_RETIRED",
    "NO_LPN",
    "NO_SUMMARY",
]

#: ``flags`` column bits.
FLAG_IS_IDA = 0x01
FLAG_LOCKED = 0x02
FLAG_RETIRED = 0x04

# Local copies of the wordline-mode sentinels (block.py re-exports them;
# duplicated here to avoid a circular import).
_CONVENTIONAL_WL = 0xFF

#: ``oob_lpn`` value of a never-programmed page.
NO_LPN = -1

#: ``summary_seq`` value of a block whose summary page was never sealed.
NO_SUMMARY = -1

#: Column name -> bytes-per-element, fixing the snapshot wire layout.
#: ``write_seq`` is a scalar riding the snapshot as an 8-byte
#: pseudo-column so old snapshots (missing it) are rejected cleanly.
_COLUMN_WIDTHS = {
    "page_state": 1,
    "wl_mode": 1,
    "wl_read_count": 8,
    "next_page": 8,
    "valid_count": 8,
    "erase_count": 8,
    "programmed_at_us": 8,
    "flags": 1,
    "oob_lpn": 8,
    "oob_seq": 8,
    "summary_seq": 8,
    "summary_wl_mode": 1,
    "journal_bit": 1,
    "journal_kept": 1,
    "write_seq": 8,
}


class DeviceStateSnapshot:
    """Frozen byte-level copy of every :class:`DeviceState` column.

    Geometry plus one immutable ``bytes`` blob per column — nothing else.
    Snapshots are picklable by construction (the warm-state cache's
    spill files, which pooled sweeps read too, rely on that) and carry
    no live views, so holding one costs exactly :meth:`nbytes` and can
    never alias a running device.
    """

    __slots__ = ("num_blocks", "pages_per_block", "bits_per_cell", "columns")

    def __init__(
        self,
        num_blocks: int,
        pages_per_block: int,
        bits_per_cell: int,
        columns: dict[str, bytes],
    ) -> None:
        self.num_blocks = num_blocks
        self.pages_per_block = pages_per_block
        self.bits_per_cell = bits_per_cell
        self.columns = columns

    def nbytes(self) -> int:
        """Total payload size (the snapshot-cache accounting input)."""
        return sum(len(blob) for blob in self.columns.values())

    # __slots__ classes need explicit state plumbing for pickle.
    def __getstate__(self):
        return (
            self.num_blocks,
            self.pages_per_block,
            self.bits_per_cell,
            self.columns,
        )

    def __setstate__(self, state) -> None:
        (
            self.num_blocks,
            self.pages_per_block,
            self.bits_per_cell,
            self.columns,
        ) = state


class DeviceState:
    """All mutable metadata of one device, column per field.

    Args:
        num_blocks: Total (device-linear) block count.
        pages_per_block: Pages per block (Table II: 192).
        bits_per_cell: Cell density (TLC: 3).
    """

    __slots__ = (
        "num_blocks",
        "pages_per_block",
        "bits_per_cell",
        "wordlines_per_block",
        "num_pages",
        "num_wordlines",
        # scalar-fast buffers
        "page_state",
        "wl_mode",
        "wl_read_count",
        "next_page",
        "valid_count",
        "erase_count",
        "programmed_at_us",
        "flags",
        "oob_lpn",
        "oob_seq",
        "summary_seq",
        "summary_wl_mode",
        "journal_bit",
        "journal_kept",
        # global write sequence counter feeding ``oob_seq``
        "write_seq",
        # zero-copy numpy views over the buffers above
        "page_state_np",
        "wl_mode_np",
        "wl_read_count_np",
        "next_page_np",
        "valid_count_np",
        "erase_count_np",
        "programmed_at_us_np",
        "flags_np",
        "oob_lpn_np",
        "oob_seq_np",
        "summary_seq_np",
        "summary_wl_mode_np",
        "journal_bit_np",
        "journal_kept_np",
        # cached erase fill patterns
        "_zero_pages",
        "_conv_wordlines",
        "_fresh_oob_lpn",
        "_fresh_oob_seq",
    )

    def __init__(
        self, num_blocks: int, pages_per_block: int, bits_per_cell: int
    ) -> None:
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if pages_per_block % bits_per_cell:
            raise ValueError("pages_per_block must divide evenly into wordlines")
        self.num_blocks = num_blocks
        self.pages_per_block = pages_per_block
        self.bits_per_cell = bits_per_cell
        self.wordlines_per_block = pages_per_block // bits_per_cell
        self.num_pages = num_blocks * pages_per_block
        self.num_wordlines = num_blocks * self.wordlines_per_block

        self.page_state = bytearray(self.num_pages)
        self.wl_mode = bytearray([_CONVENTIONAL_WL]) * self.num_wordlines
        self.wl_read_count = array("q", bytes(8 * self.num_wordlines))
        self.next_page = array("q", bytes(8 * num_blocks))
        self.valid_count = array("q", bytes(8 * num_blocks))
        self.erase_count = array("q", bytes(8 * num_blocks))
        self.programmed_at_us = array("d", bytes(8 * num_blocks))
        self.flags = bytearray(num_blocks)
        self.oob_lpn = array("q", bytes(8 * self.num_pages))
        self.oob_seq = array("q", bytes(8 * self.num_pages))
        self.summary_seq = array("q", bytes(8 * num_blocks))
        self.summary_wl_mode = (
            bytearray([_CONVENTIONAL_WL]) * self.num_wordlines
        )
        self.journal_bit = bytearray(self.num_wordlines)
        self.journal_kept = bytearray(self.num_wordlines)
        self.write_seq = 0

        nan = float("nan")
        for i in range(num_blocks):
            self.programmed_at_us[i] = nan
            self.summary_seq[i] = NO_SUMMARY

        # Live views: same memory, so scalar and vector mutations stay
        # coherent by construction (the buffers are never resized).
        self.page_state_np = np.frombuffer(self.page_state, dtype=np.uint8)
        self.wl_mode_np = np.frombuffer(self.wl_mode, dtype=np.uint8)
        self.wl_read_count_np = np.frombuffer(self.wl_read_count, dtype=np.int64)
        self.next_page_np = np.frombuffer(self.next_page, dtype=np.int64)
        self.valid_count_np = np.frombuffer(self.valid_count, dtype=np.int64)
        self.erase_count_np = np.frombuffer(self.erase_count, dtype=np.int64)
        self.programmed_at_us_np = np.frombuffer(
            self.programmed_at_us, dtype=np.float64
        )
        self.flags_np = np.frombuffer(self.flags, dtype=np.uint8)
        self.oob_lpn_np = np.frombuffer(self.oob_lpn, dtype=np.int64)
        self.oob_seq_np = np.frombuffer(self.oob_seq, dtype=np.int64)
        self.summary_seq_np = np.frombuffer(self.summary_seq, dtype=np.int64)
        self.summary_wl_mode_np = np.frombuffer(
            self.summary_wl_mode, dtype=np.uint8
        )
        self.journal_bit_np = np.frombuffer(self.journal_bit, dtype=np.uint8)
        self.journal_kept_np = np.frombuffer(self.journal_kept, dtype=np.uint8)
        # The per-page OOB columns are too large for a scalar fill loop at
        # full-device scale; the numpy views make the -1 fill a memset.
        self.oob_lpn_np[:] = NO_LPN

        self._zero_pages = bytes(pages_per_block)
        self._conv_wordlines = bytes([_CONVENTIONAL_WL]) * self.wordlines_per_block
        self._fresh_oob_lpn = (NO_LPN).to_bytes(
            8, "little", signed=True
        ) * pages_per_block
        self._fresh_oob_seq = bytes(8 * pages_per_block)

    # ------------------------------------------------------------------
    # Snapshot / restore (the warm-state cache's device half)
    # ------------------------------------------------------------------
    def _column_length(self, name: str) -> int:
        """Expected byte length of one snapshot column for this geometry."""
        per = {
            "page_state": self.num_pages,
            "wl_mode": self.num_wordlines,
            "wl_read_count": self.num_wordlines,
            "next_page": self.num_blocks,
            "valid_count": self.num_blocks,
            "erase_count": self.num_blocks,
            "programmed_at_us": self.num_blocks,
            "flags": self.num_blocks,
            "oob_lpn": self.num_pages,
            "oob_seq": self.num_pages,
            "summary_seq": self.num_blocks,
            "summary_wl_mode": self.num_wordlines,
            "journal_bit": self.num_wordlines,
            "journal_kept": self.num_wordlines,
            "write_seq": 1,
        }[name]
        return per * _COLUMN_WIDTHS[name]

    def snapshot(self) -> DeviceStateSnapshot:
        """Copy every column into an immutable :class:`DeviceStateSnapshot`.

        One flat memcpy per column — no per-block object traversal — so a
        snapshot costs ~:meth:`memory_bytes` of copying regardless of how
        much metadata churn produced the state.
        """
        columns = {
            "page_state": bytes(self.page_state),
            "wl_mode": bytes(self.wl_mode),
            "wl_read_count": self.wl_read_count.tobytes(),
            "next_page": self.next_page.tobytes(),
            "valid_count": self.valid_count.tobytes(),
            "erase_count": self.erase_count.tobytes(),
            "programmed_at_us": self.programmed_at_us.tobytes(),
            "flags": bytes(self.flags),
            "oob_lpn": self.oob_lpn.tobytes(),
            "oob_seq": self.oob_seq.tobytes(),
            "summary_seq": self.summary_seq.tobytes(),
            "summary_wl_mode": bytes(self.summary_wl_mode),
            "journal_bit": bytes(self.journal_bit),
            "journal_kept": bytes(self.journal_kept),
            "write_seq": self.write_seq.to_bytes(8, "little", signed=True),
        }
        return DeviceStateSnapshot(
            self.num_blocks, self.pages_per_block, self.bits_per_cell, columns
        )

    def restore(self, snapshot: DeviceStateSnapshot) -> None:
        """Overwrite every column in place from ``snapshot``.

        The existing buffers are reused (their length never changes), so
        :class:`~repro.flash.block.Block` views cached against them stay
        coherent; the ``*_np`` numpy views are then rebound so vector
        consumers holding ``state.page_state_np`` etc. via the attribute
        also see the restored bytes.  Everything is validated *before*
        the first byte is written — a malformed snapshot leaves the state
        untouched (the cold-preload fallback depends on that).

        Raises:
            ValueError: on geometry mismatch, a missing column, or a
                column whose byte length disagrees with this geometry.
        """
        mine = (self.num_blocks, self.pages_per_block, self.bits_per_cell)
        theirs = (
            snapshot.num_blocks,
            snapshot.pages_per_block,
            snapshot.bits_per_cell,
        )
        if mine != theirs:
            raise ValueError(
                f"snapshot geometry {theirs} does not match device {mine}"
            )
        for name in _COLUMN_WIDTHS:
            blob = snapshot.columns.get(name)
            if blob is None:
                raise ValueError(f"snapshot is missing column {name!r}")
            expected = self._column_length(name)
            if len(blob) != expected:
                raise ValueError(
                    f"snapshot column {name!r} holds {len(blob)} bytes, "
                    f"expected {expected} (truncated or stale layout)"
                )
        columns = snapshot.columns
        self.page_state[:] = columns["page_state"]
        self.wl_mode[:] = columns["wl_mode"]
        memoryview(self.wl_read_count).cast("B")[:] = columns["wl_read_count"]
        memoryview(self.next_page).cast("B")[:] = columns["next_page"]
        memoryview(self.valid_count).cast("B")[:] = columns["valid_count"]
        memoryview(self.erase_count).cast("B")[:] = columns["erase_count"]
        memoryview(self.programmed_at_us).cast("B")[:] = columns[
            "programmed_at_us"
        ]
        self.flags[:] = columns["flags"]
        memoryview(self.oob_lpn).cast("B")[:] = columns["oob_lpn"]
        memoryview(self.oob_seq).cast("B")[:] = columns["oob_seq"]
        memoryview(self.summary_seq).cast("B")[:] = columns["summary_seq"]
        self.summary_wl_mode[:] = columns["summary_wl_mode"]
        self.journal_bit[:] = columns["journal_bit"]
        self.journal_kept[:] = columns["journal_kept"]
        self.write_seq = int.from_bytes(
            columns["write_seq"], "little", signed=True
        )
        # Rebind the zero-copy views.  They still target the same buffers,
        # so this is belt-and-braces for the view-ownership contract: any
        # consumer reading through ``state.<col>_np`` is guaranteed a view
        # of the restored memory.
        self.page_state_np = np.frombuffer(self.page_state, dtype=np.uint8)
        self.wl_mode_np = np.frombuffer(self.wl_mode, dtype=np.uint8)
        self.wl_read_count_np = np.frombuffer(self.wl_read_count, dtype=np.int64)
        self.next_page_np = np.frombuffer(self.next_page, dtype=np.int64)
        self.valid_count_np = np.frombuffer(self.valid_count, dtype=np.int64)
        self.erase_count_np = np.frombuffer(self.erase_count, dtype=np.int64)
        self.programmed_at_us_np = np.frombuffer(
            self.programmed_at_us, dtype=np.float64
        )
        self.flags_np = np.frombuffer(self.flags, dtype=np.uint8)
        self.oob_lpn_np = np.frombuffer(self.oob_lpn, dtype=np.int64)
        self.oob_seq_np = np.frombuffer(self.oob_seq, dtype=np.int64)
        self.summary_seq_np = np.frombuffer(self.summary_seq, dtype=np.int64)
        self.summary_wl_mode_np = np.frombuffer(
            self.summary_wl_mode, dtype=np.uint8
        )
        self.journal_bit_np = np.frombuffer(self.journal_bit, dtype=np.uint8)
        self.journal_kept_np = np.frombuffer(self.journal_kept, dtype=np.uint8)

    # ------------------------------------------------------------------
    # On-flash OOB records (the SPOR metadata write path)
    # ------------------------------------------------------------------
    def stamp_oob(self, ppn: int, lpn: int) -> int:
        """Record ``lpn`` and the next write sequence number at ``ppn``.

        Models the OOB spare-area bytes a real controller writes with
        every page program.  Returns the sequence number used.
        """
        seq = self.write_seq
        self.oob_lpn[ppn] = lpn
        self.oob_seq[ppn] = seq
        self.write_seq = seq + 1
        return seq

    def relocate_oob(self, old_ppn: int, new_ppn: int) -> int:
        """Stamp a relocation's destination (GC / refresh / fault move).

        The LPN travels with the data but the destination gets a *fresh*
        sequence number, exactly as a real controller stamps GC writes:
        the stale source copy keeps its old (smaller) stamp, so the
        mount's last-write-wins scan always prefers the destination.
        Returns the sequence number used.
        """
        return self.stamp_oob(new_ppn, self.oob_lpn[old_ppn])

    # ------------------------------------------------------------------
    # Vectorized aggregates (telemetry / census fast paths)
    # ------------------------------------------------------------------
    def in_use_blocks(self) -> int:
        """Blocks holding any programmed pages."""
        return int(np.count_nonzero(self.next_page_np))

    def ida_blocks(self) -> int:
        """Blocks currently carrying IDA-reprogrammed wordlines."""
        return int(np.count_nonzero(self.flags_np & FLAG_IS_IDA))

    def retired_blocks(self) -> int:
        """Blocks grown bad and permanently out of rotation."""
        return int(np.count_nonzero(self.flags_np & FLAG_RETIRED))

    def total_valid_pages(self) -> int:
        return int(self.valid_count_np.sum())

    def total_erases(self) -> int:
        return int(self.erase_count_np.sum())

    def memory_bytes(self) -> int:
        """Resident size of all columns (the bounded-memory guarantee).

        Includes the 8 bytes of the ``write_seq`` scalar so the identity
        ``snapshot().nbytes() == memory_bytes()`` holds.
        """
        return (
            8  # write_seq
            + len(self.page_state)
            + len(self.wl_mode)
            + 8 * len(self.wl_read_count)
            + 8 * len(self.next_page)
            + 8 * len(self.valid_count)
            + 8 * len(self.erase_count)
            + 8 * len(self.programmed_at_us)
            + len(self.flags)
            + 8 * len(self.oob_lpn)
            + 8 * len(self.oob_seq)
            + 8 * len(self.summary_seq)
            + len(self.summary_wl_mode)
            + len(self.journal_bit)
            + len(self.journal_kept)
        )
