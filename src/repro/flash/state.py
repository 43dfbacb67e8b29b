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
  columns.
* **Scalar speed** — the timed event path still touches one page at a
  time.  Columns are therefore stored as
  ``bytearray`` / ``array`` buffers (C-speed scalar indexing, ~3-5x
  faster than numpy scalar access) with **zero-copy live numpy views**
  on top: mutating through either side is visible to the other
  instantly, so the scalar and vector paths can never disagree.

Column schema
-------------

:data:`_COLUMNS` declares every column once — its extent (one row per
page, wordline or block), its buffer typecode and its erased value —
and drives allocation, :meth:`DeviceState.erase_rows`, snapshot,
restore and :meth:`DeviceState.memory_bytes`.  Adding a column is one
``_COLUMNS`` row plus a ``SNAPSHOT_SCHEMA`` bump in
:mod:`repro.sim.snapshot`.

The ``oob_*``, ``summary_*`` and ``journal_*`` columns are the
sudden-power-off-recovery (SPOR) metadata a real controller keeps
on-flash: per-page OOB spare-area records written with every program, a
per-block summary page sealed when a block fills, and a two-column
reprogram journal persisted before each IDA ADJUST.
``repro.ftl.recovery`` mounts a device from these columns alone (see
``docs/faults.md``).  The monotonically increasing ``write_seq`` scalar
feeds ``oob_seq``; every program — host write or relocation — stamps a
fresh sequence number, so the newest stamp of an LPN always marks its
live physical copy.

View-ownership rules (enforced by convention, pinned by the parity
tests): columns are mutated only by :class:`~repro.flash.block.Block`
views, the helpers in this module, the FTL's columnar paths
(``Ftl._program_run``, ``Ftl._apply_untimed_segment``,
``Ftl._relocate_segment``, ``Ftl.commit_adjusts``) and the mount path
(``recovery._rebuild_map``, ``recovery._resolve_journal``).  Everything
else reads through the view API or the numpy views, and no code caches
column slices across mutations.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = [
    "CONVENTIONAL_WL",
    "DeviceState",
    "DeviceStateSnapshot",
    "FLAG_IS_IDA",
    "FLAG_LOCKED",
    "FLAG_RETIRED",
    "NO_LPN",
    "NO_SUMMARY",
    "TORN_WL",
]

#: ``flags`` column bits.
FLAG_IS_IDA = 0x01
FLAG_LOCKED = 0x02
FLAG_RETIRED = 0x04

#: Sentinel wordline mode: programmed with the conventional coding.
CONVENTIONAL_WL = 0xFF

#: Sentinel wordline mode: an IDA reprogram was interrupted mid-adjust and
#: the cells sit between the old and new coding.  A torn wordline is
#: *unreadable* (``SenseTable.senses`` raises) — fault recovery must
#: resolve it to one coding or the other before anything reads it, which
#: is exactly what :func:`repro.faults.check_coding_invariants` pins.
TORN_WL = 0xFE

#: ``oob_lpn`` value of a never-programmed page.
NO_LPN = -1

#: ``summary_seq`` value of a block whose summary page was never sealed.
NO_SUMMARY = -1

#: The device-state schema, in snapshot wire order: column name ->
#: (extent, typecode, erased value).  The extent gives one row per
#: ``page``, ``wordline`` or ``block``; typecode ``"B"`` is a
#: ``bytearray`` (uint8), ``"q"`` / ``"d"`` an ``array`` (int64 /
#: float64).  A fresh device holds every column at its erased value.
_COLUMNS = {
    # PageState lifecycle: FREE / VALID / INVALID
    "page_state": ("page", "B", 0),
    # coding id: CONVENTIONAL_WL, TORN_WL or kept-suffix start bit
    "wl_mode": ("wordline", "B", CONVENTIONAL_WL),
    # sequential program pointer
    "next_page": ("block", "q", 0),
    # VALID pages (the GC victim key)
    "valid_count": ("block", "q", 0),
    # P/E wear (RBER input); survives erase
    "erase_count": ("block", "q", 0),
    # first program since erase (RBER retention input; NaN = never)
    "programmed_at_us": ("block", "d", float("nan")),
    # IS_IDA | LOCKED | RETIRED; survives erase but for IS_IDA
    "flags": ("block", "B", 0),
    # on-flash OOB record: owning LPN
    "oob_lpn": ("page", "q", NO_LPN),
    # on-flash OOB record: global write sequence number
    "oob_seq": ("page", "q", 0),
    # block summary page: one past the newest OOB sequence at close
    "summary_seq": ("block", "q", NO_SUMMARY),
    # block summary page: durable wordline coding mode, updated at
    # ADJUST commit
    "summary_wl_mode": ("wordline", "B", CONVENTIONAL_WL),
    # on-flash ADJUST journal: intended kept-suffix start bit (0 = none)
    "journal_bit": ("wordline", "B", 0),
    # on-flash ADJUST journal: bitmask of kept in-wordline page offsets
    "journal_kept": ("wordline", "B", 0),
}

#: Buffer typecode -> dtype of its numpy view.
_DTYPES = {"B": np.uint8, "q": np.int64, "d": np.float64}

#: Columns an erase leaves alone (``Block.erase`` bumps the wear count
#: and clears ``FLAG_IS_IDA`` itself).
_KEPT_ON_ERASE = frozenset({"erase_count", "flags"})


class DeviceStateSnapshot:
    """Frozen byte-level copy of every :class:`DeviceState` column.

    Geometry plus one immutable ``bytes`` blob per column — nothing else.
    ``write_seq`` rides last as an 8-byte pseudo-column.  Snapshots are
    picklable by construction (the warm-state cache's spill files,
    which pooled sweeps read too, rely on that) and carry no live views,
    so holding one costs exactly :meth:`nbytes` and can never alias a
    running device.
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

    Each :data:`_COLUMNS` row is a buffer attribute of its own name plus
    a zero-copy numpy view ``<name>_np`` over the same memory.

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
        # global write sequence counter feeding ``oob_seq``
        "write_seq",
        *_COLUMNS,
        *(f"{name}_np" for name in _COLUMNS),
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
        self.write_seq = 0
        # Live views: same memory, so scalar and vector mutations stay
        # coherent by construction (the buffers are never resized).
        for name, (extent, code, fill) in _COLUMNS.items():
            rows = num_blocks * self._rows_per_block(extent)
            if code == "B":
                buf = bytearray([fill]) * rows
            else:
                buf = array(code, [fill]) * rows
            setattr(self, name, buf)
            setattr(self, f"{name}_np", np.frombuffer(buf, dtype=_DTYPES[code]))

    def _rows_per_block(self, extent: str) -> int:
        if extent == "page":
            return self.pages_per_block
        if extent == "wordline":
            return self.wordlines_per_block
        return 1

    def erase_rows(self, slot: int) -> None:
        """Reset block ``slot``'s rows to their erased values.

        Every column but ``erase_count`` and ``flags``: the erase pulse
        wipes the on-flash SPOR metadata (OOB records, summary page,
        stale reprogram-journal rows) with the data.
        """
        for name, (extent, _code, fill) in _COLUMNS.items():
            if name not in _KEPT_ON_ERASE:
                rows = self._rows_per_block(extent)
                getattr(self, f"{name}_np")[slot * rows : (slot + 1) * rows] = fill

    # ------------------------------------------------------------------
    # Snapshot / restore (the warm-state cache's device half)
    # ------------------------------------------------------------------
    def snapshot(self) -> DeviceStateSnapshot:
        """Copy every column into an immutable :class:`DeviceStateSnapshot`.

        One flat memcpy per column — no per-block object traversal — so a
        snapshot costs ~:meth:`memory_bytes` of copying regardless of how
        much metadata churn produced the state.
        """
        columns = {
            name: memoryview(getattr(self, name)).tobytes() for name in _COLUMNS
        }
        columns["write_seq"] = self.write_seq.to_bytes(8, "little", signed=True)
        return DeviceStateSnapshot(
            self.num_blocks, self.pages_per_block, self.bits_per_cell, columns
        )

    def restore(self, snapshot: DeviceStateSnapshot) -> None:
        """Overwrite every column in place from ``snapshot``.

        The existing buffers are reused (their length never changes), so
        :class:`~repro.flash.block.Block` views and the ``*_np`` numpy
        views cached against them see the restored bytes.  Everything is
        validated *before* the first byte is written — a malformed
        snapshot leaves the state untouched (the cold-preload fallback
        depends on that).

        Raises:
            ValueError: on geometry mismatch, a missing or unknown
                column, or a column whose byte length disagrees with
                this geometry.
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
        columns = snapshot.columns
        expected = {
            name: memoryview(getattr(self, name)).nbytes for name in _COLUMNS
        }
        expected["write_seq"] = 8
        for name, nbytes in expected.items():
            if name not in columns:
                raise ValueError(f"snapshot is missing column {name!r}")
            if len(columns[name]) != nbytes:
                raise ValueError(
                    f"snapshot column {name!r} holds {len(columns[name])} "
                    f"bytes, expected {nbytes} (truncated or stale layout)"
                )
        unknown = sorted(columns.keys() - expected.keys())
        if unknown:
            raise ValueError(f"snapshot carries unknown column(s) {unknown}")
        for name in _COLUMNS:
            memoryview(getattr(self, name)).cast("B")[:] = columns[name]
        self.write_seq = int.from_bytes(
            columns["write_seq"], "little", signed=True
        )

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

    def memory_bytes(self) -> int:
        """Resident size of all columns (the bounded-memory guarantee).

        Includes the 8 bytes of the ``write_seq`` scalar so the identity
        ``snapshot().nbytes() == memory_bytes()`` holds.
        """
        return 8 + sum(memoryview(getattr(self, name)).nbytes for name in _COLUMNS)
