"""The FTL <-> simulator contract: op descriptors and the FTL protocol.

This module is the *entire* surface the simulator sees of the flash
translation layer.  The FTL applies *logical* state transitions (mapping
updates, validity flips, wordline-mode changes) immediately, and hands
the simulator the physical work those transitions imply: a host op as
one :class:`PhysOp` record, a GC / refresh pass as an :class:`OpTable`
of int columns (a refresh tick hands over the arrays it planned with,
not one tuple per op).  The simulator routes each op through the
contended die / channel resources, which is where all queueing behaviour
comes from.

Keeping the contract this narrow is what lets scheduling policies and
pipeline staging evolve independently of FTL internals: any object
satisfying :class:`FlashTranslation` (the baseline page-mapping FTL, a
future stress-aware reclaim variant, a test stub) plugs into
:class:`~repro.sim.ssd.SsdSimulator` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "OpKind",
    "PhysOp",
    "OpTable",
    "WriteResult",
    "FtlCounters",
    "FlashTranslation",
]


class OpKind(Enum):
    """Physical flash operations."""

    READ = "read"
    WRITE = "write"
    ADJUST = "adjust"
    ERASE = "erase"


class PhysOp(NamedTuple):
    """One physical operation to be timed by the simulator.

    A ``NamedTuple``: immutable, compared by value, and several times
    cheaper to build than a frozen dataclass — the FTL builds one per
    timed physical op.

    Attributes:
        kind: Operation type.
        block_index: Linear block number the op targets.
        page: Page-in-block for READ/WRITE; ``None`` for ADJUST/ERASE.
        senses: Memory senses a READ needs (drives its latency).
        bit: Page type of a READ (0 = LSB), for read-mix accounting.
        wl_validity: Wordline validity snapshot at dispatch, for Fig. 4
            accounting (READ only).
        from_ida: Whether a READ is served from an IDA-reprogrammed
            wordline.
        wordline: Wordline an ADJUST targets — fault recovery needs it to
            resolve a torn reprogram; ``None`` for other kinds.
    """

    kind: OpKind
    block_index: int
    page: int | None = None
    senses: int = 0
    bit: int | None = None
    wl_validity: tuple[bool, ...] | None = None
    from_ida: bool = False
    wordline: int | None = None


#: ``OpKind`` members by their :class:`OpTable` kind code.
OP_KINDS = (OpKind.READ, OpKind.WRITE, OpKind.ADJUST, OpKind.ERASE)
READ_CODE, WRITE_CODE, ADJUST_CODE, ERASE_CODE = range(len(OP_KINDS))


def _row_of(op: PhysOp) -> tuple[int, int, int, int, int, int]:
    """One :class:`OpTable` row for an internal ``op``."""
    if op.wl_validity is not None or op.from_ida:
        raise ValueError(f"{op} is a host read; an op table holds internal ops")
    return (
        # ``tuple.index`` compares by identity first: no ``Enum.__hash__``.
        OP_KINDS.index(op.kind),
        op.block_index,
        -1 if op.page is None else op.page,
        op.senses,
        -1 if op.bit is None else op.bit,
        -1 if op.wordline is None else op.wordline,
    )


class OpTable:
    """A GC / refresh pass as int columns, one row per internal op.

    The columns are ``kind`` (an index into :data:`OP_KINDS`),
    ``block``, ``page``, ``senses``, ``bit`` and ``wordline``; a field
    the op's :class:`PhysOp` leaves ``None`` is ``-1``.  Internal ops
    carry no wordline snapshot and are never ``from_ida``, so
    :meth:`op` rebuilds each op exactly.

    A table is built in op order: the refresh flow appends the arrays it
    planned with (:meth:`add_reads`, :meth:`reserve_writes`,
    :meth:`add_adjusts`), and the scalar paths (a page move at a segment
    boundary, the GC pass it triggers) append single rows
    (:meth:`append`, :meth:`extend`), so their ops interleave where they
    were issued.  :meth:`of` converts a list of internal ops (GC and
    fault-recovery work).
    """

    __slots__ = ("_parts", "_rows")

    def __init__(self) -> None:
        #: Finished ``(n, 6)`` int32 parts of the rows, in op order.
        self._parts: list[np.ndarray] = []
        #: Single rows appended since the last part.
        self._rows: list[tuple[int, ...]] = []

    @classmethod
    def of(cls, ops: Iterable[PhysOp]) -> "OpTable":
        """The table of a list of internal ops.

        Raises:
            ValueError: for a host read (a wordline snapshot or
                ``from_ida``), which a table cannot carry.
        """
        table = cls()
        table.extend(ops)
        return table

    def append(self, op: PhysOp) -> None:
        """Append one internal op as a row."""
        self._rows.append(_row_of(op))

    def extend(self, ops: Iterable[PhysOp]) -> None:
        """Append internal ops as rows, in order."""
        self._rows.extend(map(_row_of, ops))

    def add_reads(
        self, block: int, pages: np.ndarray, senses: np.ndarray, bits: np.ndarray
    ) -> None:
        """READs of ``pages`` of one block, needing ``senses``, of page type ``bits``."""
        part = self._new_part(READ_CODE, len(pages))
        part[:, 1] = block
        part[:, 2] = pages
        part[:, 3] = senses
        part[:, 4] = bits

    def reserve_writes(self, length: int) -> np.ndarray:
        """``length`` WRITE rows whose destinations are filled in later.

        Returns the rows' ``(length, 2)`` block / page view.  The caller
        fills it before the table is read: :meth:`rows` may copy it.
        """
        return self._new_part(WRITE_CODE, length)[:, 1:3]

    def add_adjusts(self, block: int, wordlines: np.ndarray) -> None:
        """ADJUSTs of ``wordlines`` of one block."""
        part = self._new_part(ADJUST_CODE, len(wordlines))
        part[:, 1] = block
        part[:, 5] = wordlines

    def _new_part(self, kind: int, length: int) -> np.ndarray:
        """``length`` new rows of ``kind`` after the pending single rows;
        their fields default to a non-READ op's."""
        self._flush()
        part = np.full((length, 6), -1, dtype=np.int32)
        part[:, 0] = kind
        part[:, 3] = 0
        if length:
            self._parts.append(part)
        return part

    def _flush(self) -> None:
        if self._rows:
            self._parts.append(np.array(self._rows, dtype=np.int32))
            self._rows = []

    def rows(self) -> np.ndarray:
        """All rows as one ``(n, 6)`` int32 array (column order as above)."""
        parts = self._parts
        if self._rows or len(parts) != 1:
            self._flush()
            parts[:] = [
                np.concatenate(parts) if parts else np.empty((0, 6), dtype=np.int32)
            ]
        return parts[0]

    @property
    def kind(self) -> np.ndarray:
        return self.rows()[:, 0]

    @property
    def block(self) -> np.ndarray:
        return self.rows()[:, 1]

    @property
    def page(self) -> np.ndarray:
        return self.rows()[:, 2]

    @property
    def senses(self) -> np.ndarray:
        return self.rows()[:, 3]

    @property
    def bit(self) -> np.ndarray:
        return self.rows()[:, 4]

    @property
    def wordline(self) -> np.ndarray:
        return self.rows()[:, 5]

    def op(self, index: int) -> PhysOp:
        """The :class:`PhysOp` of row ``index``, built on demand."""
        return _op_of(self.rows()[index].tolist())

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts) + len(self._rows)

    def __iter__(self) -> Iterator[PhysOp]:
        return map(_op_of, self.rows().tolist())


def _op_of(row: list[int]) -> PhysOp:
    kind, block, page, senses, bit, wordline = row
    return PhysOp(
        OP_KINDS[kind],
        block,
        None if page < 0 else page,
        senses,
        None if bit < 0 else bit,
        None,
        False,
        None if wordline < 0 else wordline,
    )


@dataclass
class WriteResult:
    """Physical work implied by one host page write.

    Attributes:
        host_ops: The page program itself.
        internal_ops: Any GC work the allocation triggered.
    """

    host_ops: list[PhysOp] = field(default_factory=list)
    internal_ops: list[PhysOp] = field(default_factory=list)


@dataclass
class FtlCounters:
    """FTL-internal event counters, merged into the run metrics."""

    gc_invocations: int = 0
    gc_page_moves: int = 0
    block_erases: int = 0
    refresh_invocations: int = 0
    refresh_page_moves: int = 0
    refresh_adjusted_wordlines: int = 0
    refresh_reprogrammed_pages: int = 0
    refresh_corrupted_pages: int = 0
    host_writes: int = 0
    host_reads: int = 0
    unmapped_reads: int = 0
    # Fault handling (all zero unless a FaultPlan is active).
    program_failures: int = 0
    erase_failures: int = 0
    grown_bad_blocks: int = 0
    uncorrectable_reads: int = 0
    read_reclaims: int = 0
    torn_adjust_recoveries: int = 0
    die_failures: int = 0
    fault_page_moves: int = 0


@runtime_checkable
class FlashTranslation(Protocol):
    """What the simulator requires of a flash translation layer.

    Everything is expressed in terms of :class:`PhysOp` sequences (an
    :class:`OpTable` for a refresh tick) — the FTL never touches
    simulator resources, queues, or the event engine,
    and the simulator never reaches past these six members into FTL
    internals.  Host writes may trigger GC; the implied relocation work
    comes back in :attr:`WriteResult.internal_ops` rather than being
    self-scheduled.
    """

    #: Event counters the simulator folds into the run metrics.
    counters: FtlCounters

    @property
    def scan_interval_us(self) -> float:
        """Cadence at which the simulator should call :meth:`check_refresh`."""
        ...

    def host_read(self, lpn: int, now_us: float) -> PhysOp:
        """Resolve one host page read to a physical read op."""
        ...

    def host_write(self, lpn: int, now_us: float) -> WriteResult:
        """Apply one host page write; returns the implied physical work."""
        ...

    def write_untimed(self, lpn: int, pseudo_now_us: float) -> None:
        """Preconditioning write: full logical effect, no timed ops."""
        ...

    def apply_untimed_batch(self, lpns, times) -> None:
        """Bulk :meth:`write_untimed` (preload, aging, background batches).

        ``times`` is a scalar or one time per write; the final state
        must equal a :meth:`write_untimed` loop over the same writes.
        """
        ...

    def check_refresh(self, now_us: float) -> OpTable:
        """Scan for refresh-due blocks; returns the implied physical work."""
        ...
