"""Warm-state snapshots: capture, cache, and transport of warmed devices.

Every experiment run spends its first act on the same ritual — sequential
footprint fill plus aging updates (``warm_device`` in
:mod:`repro.experiments.runner`) — and sweeps whose units differ only in
a swept parameter (DTR threshold, refresh mode, policy, fault plan)
repeat that ritual once per unit over an *identical* warmed state.  This
module makes the warm state a first-class value:

* :func:`capture_warm_state` / :func:`restore_warm_state` — what the
  warm-up changes and a fresh simulator of the same warm key does not
  already hold, captured as one picklable :class:`WarmState`: the
  columnar :class:`~repro.flash.state.DeviceStateSnapshot`, the
  page-map forward column (reverse rebuilt on load), the allocator
  cursor (its strategy rides along as a check), each plane's free list
  (an order-sensitive FIFO) and open block, and the FTL counters.
  In-use and retired blocks, adjust intents and grown-bad blocks are
  all read from the device columns; the FTL keeps no RAM copy of them.
  A restored run is byte-identical to a cold run — pinned by
  ``tests/experiments/test_snapshot_parity.py``.
* :class:`SnapshotStore` — a content-addressed cache (in-process LRU of
  :data:`STORE_CAPACITY` states, optional on-disk spill) keyed by the
  warm-relevant slice of a run's configuration (see ``warm_cache_key``
  in the experiments layer).  Corrupted, truncated or stale-schema spill
  files *never* crash a run: they fall back to a cold preload, bump
  ``stats.fallbacks``, and log a warning.
* :class:`WarmHandle` — one run's connection to a store: it fetches the
  run's warm state by key and offers a cold warm-up's capture back.

The spill file is also the only transport between processes.  A pooled
sweep warms each shared state once in the parent, spills it, and hands
every worker the spill directory and key; the worker reads the file
through its own :class:`SnapshotStore`, so a pooled unit restores
exactly as an inline or ``--snapshot-dir`` run does, under the same
magic, digest, type and schema checks.

Restore-equivalence argument (why a fresh simulator plus a restored warm
state equals a cold warmed simulator): the warm-up runs entirely through
the untimed FTL path — it never touches the :class:`SimEngine` queue or
clock, never samples the host-retry or disturb RNG streams, never runs a
refresh tick or a fault handler, never drops a plane from the allocator
rotation, and never emits trace events unless a tracer is attached
(which is why traced runs always warm up cold).  Both RNG states, the
refresh reports, the read-retry pressure and the allocator's plane
order therefore leave the warm-up exactly as a fresh simulator of the
same warm key builds them, and the snapshot does not carry them
(``tests/experiments/test_snapshot_parity.py`` pins that premise).  The
bindings a simulator makes at construction time (tracer, collector,
profiler, fault injector, health monitor) are disjoint from the state
the warm-up mutates, and swapping that state underneath a freshly
constructed simulator reproduces the cold path exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
import pickle
import tempfile
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..flash.state import DeviceStateSnapshot
from ..ftl.ops import FtlCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ssd import SsdSimulator

__all__ = [
    "SNAPSHOT_SCHEMA",
    "STORE_CAPACITY",
    "PlaneSnapshot",
    "WarmState",
    "capture_warm_state",
    "restore_warm_state",
    "WarmHandle",
    "SnapshotStats",
    "SnapshotStore",
]

_log = logging.getLogger(__name__)

#: Wire-format version of :class:`WarmState`.  Bump whenever a captured
#: field changes meaning or layout; stores treat any other value as
#: stale and fall back to a cold preload.  2: the device snapshot
#: gained the on-flash SPOR metadata columns (OOB records, block
#: summaries, reprogram journal, write-sequence counter).  3: the RAM
#: ``grown_bad`` and ``journal`` fields are gone (the device columns
#: carry both).  4: the never-written ``wl_read_count`` column is gone.
#: 5: the pools' ``used`` / ``retired`` sets are gone (the columns hold
#: both), and so are the fields the warm-up never changes: refresh
#: reports, read-retry pressure, both RNG states and the allocator's
#: plane order.
SNAPSHOT_SCHEMA = 5

#: Spill-file magic: identifies the container before anything is parsed.
_SPILL_MAGIC = b"IDASNAP1"
_DIGEST_LEN = 32  # sha256

#: Resident warm states a :class:`SnapshotStore` keeps.  Artifact sweeps
#: iterate workload-major, so a small window covers the reuse pattern
#: without pinning every distinct state of a long sweep in RAM.
STORE_CAPACITY = 8


@dataclass(frozen=True)
class PlaneSnapshot:
    """What one :class:`~repro.flash.plane.PlanePool` keeps in RAM.

    ``free`` keeps its deque order — the pool is a FIFO, and allocation
    determinism depends on which erased block opens next.
    """

    free: tuple[int, ...]
    active: int | None


@dataclass(frozen=True)
class WarmState:
    """What the warm-up changes, as one picklable value.

    Tuples and ``bytes`` throughout: a stored warm state is shared by
    every run that restores from it, so nothing a restored simulator
    mutates may alias the snapshot (restore copies into fresh mutable
    containers).
    """

    schema: int
    device: DeviceStateSnapshot
    map_forward: bytes
    alloc_strategy: str
    alloc_cursor: int
    planes: tuple[PlaneSnapshot, ...]
    counters: FtlCounters

    def nbytes(self) -> int:
        """Approximate payload size (dominated by the device columns)."""
        return self.device.nbytes() + len(self.map_forward)


def capture_warm_state(sim: "SsdSimulator") -> WarmState:
    """Capture a warmed simulator's restorable state.

    Call at the warm-state boundary — after ``preload`` + ``age``, before
    any timed event — on a simulator whose engine clock is untouched.
    """
    ftl = sim.ftl
    return WarmState(
        schema=SNAPSHOT_SCHEMA,
        device=ftl.table.state.snapshot(),
        map_forward=ftl.map.export_forward(),
        alloc_strategy=ftl.allocator.strategy,
        alloc_cursor=ftl.allocator._cursor,
        planes=tuple(
            PlaneSnapshot(free=tuple(pool.free), active=pool.active)
            for pool in ftl.table.planes
        ),
        counters=dataclasses.replace(ftl.counters),
    )


def restore_warm_state(sim: "SsdSimulator", warm: WarmState) -> None:
    """Load a captured warm state into a freshly constructed simulator.

    Every mutable container is rebuilt from the snapshot's immutable
    form, so a shared :class:`WarmState` can seed any number of runs.
    The target's construction-time bindings (tracer, fault injector,
    health, telemetry) are left untouched; in particular the FTL's
    read-reclaim threshold, which a bound fault plan arms, is never
    restored.  Neither are the RNG states, the refresh reports, the
    read-retry pressure or the allocator's plane order: the warm-up
    never changes them, so the target must be freshly built.

    Raises:
        ValueError: on a stale schema or geometry/column mismatch (the
            device state is validated before anything is written).
    """
    if warm.schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"warm-state schema {warm.schema} is not the supported "
            f"schema {SNAPSHOT_SCHEMA}"
        )
    ftl = sim.ftl
    allocator = ftl.allocator
    if allocator.strategy != warm.alloc_strategy:
        raise ValueError(
            f"warm state was captured under allocation "
            f"{warm.alloc_strategy!r}, simulator uses {allocator.strategy!r}"
        )
    if len(warm.planes) != len(ftl.table.planes):
        raise ValueError(
            f"warm state covers {len(warm.planes)} planes, "
            f"device has {len(ftl.table.planes)}"
        )
    # Device columns first: restore() validates everything before the
    # first byte lands, so a bad snapshot leaves the simulator cold-able.
    ftl.table.state.restore(warm.device)
    ftl.map.load_forward(warm.map_forward)
    allocator._cursor = warm.alloc_cursor
    for pool, snap in zip(ftl.table.planes, warm.planes, strict=True):
        pool.free = deque(snap.free)
        pool.active = snap.active
    ftl.counters = dataclasses.replace(warm.counters)


class WarmHandle:
    """One run's connection to a :class:`SnapshotStore`.

    The handle fetches the run's warm state from ``store`` under ``key``
    and publishes a cold warm-up's capture back.  ``outcome`` records
    what the run actually did (``"hit"`` / ``"miss"``) for executor
    accounting; it stays ``None`` when the run never fetched (a traced
    run warms up cold).
    """

    __slots__ = ("store", "key", "outcome")

    def __init__(
        self, store: "SnapshotStore | None" = None, key: str | None = None
    ) -> None:
        self.store = store
        self.key = key
        self.outcome: str | None = None

    def fetch(self) -> WarmState | None:
        """The warm state this run should restore from, if any."""
        if self.store is not None and self.key is not None:
            warm = self.store.get(self.key)
            if warm is not None:
                self.outcome = "hit"
                return warm
        self.outcome = "miss"
        return None

    def publish(self, warm: WarmState) -> None:
        """Offer a freshly captured warm state back to the cache."""
        if self.store is not None and self.key is not None:
            self.store.put(self.key, warm)


@dataclass
class SnapshotStats:
    """Cache accounting: ``hits``/``misses`` are per :meth:`~SnapshotStore.get`,
    and ``fallbacks`` counts spill files rejected as corrupt or stale."""

    hits: int = 0
    misses: int = 0
    fallbacks: int = 0


class SnapshotStore:
    """Content-addressed warm-state cache: in-process LRU + disk spill.

    Keys are opaque strings (the experiments layer hashes the
    warm-relevant configuration slice into them).  The LRU keeps at most
    :data:`STORE_CAPACITY` states resident; the optional ``spill_dir``
    makes snapshots survive the process and be shareable across pool
    workers and invocations.

    Spill format: ``IDASNAP1`` magic, a sha256 digest of the payload,
    then the pickled :class:`WarmState`.  Loads verify magic, digest and
    schema before trusting a byte; any mismatch — truncation, bit rot,
    a stale schema, an unpicklable payload — is a *fallback*, never an
    exception: :meth:`get` returns ``None``, the caller preloads cold,
    and ``stats.fallbacks`` records the event.
    """

    def __init__(self, spill_dir: str | Path | None = None) -> None:
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.stats = SnapshotStats()
        self._entries: OrderedDict[str, WarmState] = OrderedDict()

    def _spill_path(self, key: str) -> Path:
        assert self.spill_dir is not None
        return self.spill_dir / f"{key}.snap"

    def _note_fallback(self, key: str, reason: str) -> None:
        self.stats.fallbacks += 1
        _log.warning(
            "snapshot %s unusable (%s); falling back to cold preload",
            key,
            reason,
        )

    def get(self, key: str) -> WarmState | None:
        """The cached warm state for ``key``, or ``None`` (cold preload)."""
        warm = self._entries.get(key)
        if warm is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return warm
        if self.spill_dir is not None:
            warm = self._load_spilled(key)
            if warm is not None:
                self._insert(key, warm)
                self.stats.hits += 1
                return warm
        self.stats.misses += 1
        return None

    def put(self, key: str, warm: WarmState) -> None:
        """Cache ``warm`` under ``key`` (and spill it, when configured).

        Spill failures (full disk, permissions) are logged and swallowed:
        the cache is an accelerator, never a correctness dependency.
        """
        self._insert(key, warm)
        if self.spill_dir is None:
            return
        payload = pickle.dumps(warm, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _SPILL_MAGIC + hashlib.sha256(payload).digest() + payload
        try:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            # Write-then-rename: concurrent writers (pool workers, parallel
            # invocations) can never leave a half-written spill behind.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.spill_dir, prefix=".snap-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, self._spill_path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            _log.warning("could not spill snapshot %s: %s", key, exc)

    def _insert(self, key: str, warm: WarmState) -> None:
        self._entries[key] = warm
        self._entries.move_to_end(key)
        while len(self._entries) > STORE_CAPACITY:
            self._entries.popitem(last=False)

    def _load_spilled(self, key: str) -> WarmState | None:
        path = self._spill_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._note_fallback(key, f"unreadable spill file: {exc}")
            return None
        header = len(_SPILL_MAGIC) + _DIGEST_LEN
        if len(blob) < header or not blob.startswith(_SPILL_MAGIC):
            self._note_fallback(key, "bad magic or truncated header")
            return None
        digest = blob[len(_SPILL_MAGIC) : header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != digest:
            self._note_fallback(key, "payload checksum mismatch")
            return None
        try:
            warm = pickle.loads(payload)
        except Exception as exc:
            self._note_fallback(key, f"unpicklable payload: {exc}")
            return None
        if not isinstance(warm, WarmState):
            self._note_fallback(key, "payload is not a WarmState")
            return None
        if warm.schema != SNAPSHOT_SCHEMA:
            self._note_fallback(
                key,
                f"stale schema {warm.schema} (supported: {SNAPSHOT_SCHEMA})",
            )
            return None
        return warm
