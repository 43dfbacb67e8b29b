"""The FTL <-> simulator contract: op descriptors and the FTL protocol.

This module is the *entire* surface the simulator sees of the flash
translation layer.  The FTL applies *logical* state transitions (mapping
updates, validity flips, wordline-mode changes) immediately, and hands
the simulator lists of :class:`PhysOp` records describing the physical
work those transitions imply.  The simulator routes each op through the
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
from itertools import repeat
from typing import NamedTuple, Protocol, runtime_checkable

__all__ = [
    "OpKind",
    "PhysOp",
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

    @classmethod
    def reads(
        cls, block_index: int, pages: list[int], senses: list[int], bits: list[int]
    ) -> list[PhysOp]:
        """Internal READ ops of one block, one per page, built in bulk.

        Equal to ``PhysOp(OpKind.READ, block_index, page, sense, bit)``
        for each position — no wordline snapshot, not ``from_ida`` — at
        about half the per-op cost of the keyword-default constructor.
        """
        return list(
            map(
                tuple.__new__,
                repeat(cls),
                zip(
                    repeat(OpKind.READ),
                    repeat(block_index),
                    pages,
                    senses,
                    bits,
                    repeat(None),
                    repeat(False),
                    repeat(None),
                ),
            )
        )

    @classmethod
    def writes(cls, block_indices: list[int], pages: list[int]) -> list[PhysOp]:
        """WRITE ops, one per ``(block_index, page)`` pair, built in bulk.

        Equal to ``PhysOp(OpKind.WRITE, block_index, page)`` for each
        pair (see :meth:`reads`).
        """
        return list(
            map(
                tuple.__new__,
                repeat(cls),
                zip(
                    repeat(OpKind.WRITE),
                    block_indices,
                    pages,
                    repeat(0),
                    repeat(None),
                    repeat(None),
                    repeat(False),
                    repeat(None),
                ),
            )
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

    Everything is expressed in terms of :class:`PhysOp` sequences — the
    FTL never touches simulator resources, queues, or the event engine,
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

    def check_refresh(self, now_us: float) -> list[PhysOp]:
        """Scan for refresh-due blocks; returns the implied physical work."""
        ...
