"""Warm-state snapshots: capture, cache, and transport of warmed devices.

Every experiment run spends its first act on the same ritual — sequential
footprint fill plus aging updates (``warm_device`` in
:mod:`repro.experiments.runner`) — and sweeps whose units differ only in
a swept parameter (DTR threshold, refresh mode, policy, fault plan)
repeat that ritual once per unit over an *identical* warmed state.  This
module makes the warm state a first-class value:

* :func:`capture_warm_state` / :func:`restore_warm_state` — everything
  the warm-up mutates, captured as one picklable :class:`WarmState`:
  the columnar :class:`~repro.flash.state.DeviceStateSnapshot`, the
  page-map forward column (reverse rebuilt on load), allocator rotation
  and cursor, per-plane pool membership (the free list is an
  order-sensitive FIFO), FTL counters, refresh reports, grown-bad and
  retry-pressure records, journal contents, and both RNG bit-generator
  states.  A restored run is byte-identical to a cold run — pinned by
  ``tests/experiments/test_snapshot_parity.py``.
* :class:`SnapshotStore` — a content-addressed cache (in-process LRU of
  :data:`STORE_CAPACITY` states, optional on-disk spill) keyed by the
  warm-relevant slice of a run's configuration (see ``warm_cache_key``
  in the experiments layer).  Corrupted, truncated or stale-schema spill
  files *never* crash a run: they fall back to a cold preload, bump
  ``stats.fallbacks``, and log a warning.
* :func:`publish_warm_state` / :func:`attach_warm_state` — one
  ``multiprocessing.shared_memory`` segment per distinct warm state, so
  pool workers map the bytes the parent serialized once instead of
  receiving hundreds of MB through the pickle pipe per unit.  The parent
  owns the segment (created before the fan-out, closed and unlinked in a
  ``finally``); workers attach read-only, copy out, and detach.  On
  Python < 3.13 the attach helper keeps the segment out of the worker's
  ``resource_tracker`` entirely (see :func:`_attach_untracked`) — the
  tracker would otherwise unlink a parent-owned segment prematurely.

Restore-equivalence argument (why a fresh simulator plus a restored warm
state equals a cold warmed simulator): the warm-up runs entirely through
the untimed FTL path — it never touches the :class:`SimEngine` queue or
clock, never samples the host-retry or disturb RNG streams, and never
emits trace events unless a tracer is attached (which is why traced runs
always warm up cold).  The bindings a simulator makes at construction
time (tracer, collector, profiler, fault injector, health monitor) are
therefore disjoint from the state the warm-up mutates, and swapping that
state underneath a freshly constructed simulator reproduces the cold
path exactly.
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
    "SharedSnapshotRef",
    "publish_warm_state",
    "attach_warm_state",
]

_log = logging.getLogger(__name__)

#: Wire-format version of :class:`WarmState`.  Bump whenever a captured
#: field changes meaning or layout; stores treat any other value as
#: stale and fall back to a cold preload.  2: the device snapshot
#: gained the on-flash SPOR metadata columns (OOB records, block
#: summaries, reprogram journal, write-sequence counter).
SNAPSHOT_SCHEMA = 2

#: Spill-file magic: identifies the container before anything is parsed.
_SPILL_MAGIC = b"IDASNAP1"
_DIGEST_LEN = 32  # sha256

#: Resident warm states a :class:`SnapshotStore` keeps.  Artifact sweeps
#: iterate workload-major, so a small window covers the reuse pattern
#: without pinning every distinct state of a long sweep in RAM.
STORE_CAPACITY = 8


@dataclass(frozen=True)
class PlaneSnapshot:
    """One :class:`~repro.flash.plane.PlanePool`'s membership sets.

    ``free`` keeps its deque order — the pool is a FIFO, and allocation
    determinism depends on which erased block opens next.
    """

    free: tuple[int, ...]
    active: int | None
    used: tuple[int, ...]
    retired: tuple[int, ...]


@dataclass(frozen=True)
class WarmState:
    """Everything the warm-up mutates, as one picklable value.

    Tuples and ``bytes`` throughout: a stored warm state is shared by
    every run that restores from it, so nothing a restored simulator
    mutates may alias the snapshot (restore copies into fresh mutable
    containers).
    """

    schema: int
    device: DeviceStateSnapshot
    map_forward: bytes
    alloc_strategy: str
    alloc_order: tuple[int, ...]
    alloc_cursor: int
    planes: tuple[PlaneSnapshot, ...]
    counters: FtlCounters
    refresh_reports: tuple
    grown_bad: tuple[int, ...]
    retry_pressure: tuple[tuple[int, int], ...]
    journal: tuple
    ftl_rng_state: dict
    host_retry_rng_state: dict

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
        alloc_order=tuple(ftl.allocator.order),
        alloc_cursor=ftl.allocator._cursor,
        planes=tuple(
            PlaneSnapshot(
                free=tuple(pool.free),
                active=pool.active,
                used=tuple(sorted(pool.used)),
                retired=tuple(sorted(pool.retired)),
            )
            for pool in ftl.table.planes
        ),
        counters=dataclasses.replace(ftl.counters),
        refresh_reports=tuple(
            dataclasses.replace(report) for report in ftl.refresh_reports
        ),
        grown_bad=tuple(ftl.grown_bad),
        retry_pressure=tuple(sorted(ftl._retry_pressure.items())),
        journal=(
            tuple(sorted(ftl._journal.items()))
            if ftl._journal is not None
            else ()
        ),
        ftl_rng_state=ftl.rng.bit_generator.state,
        host_retry_rng_state=sim._host_retry_rng.bit_generator.state,
    )


def restore_warm_state(sim: "SsdSimulator", warm: WarmState) -> None:
    """Load a captured warm state into a freshly constructed simulator.

    Every mutable container is rebuilt from the snapshot's immutable
    form, so a shared :class:`WarmState` can seed any number of runs.
    The target's construction-time bindings (tracer, fault injector,
    health, telemetry) are left untouched; in particular the FTL journal
    — which doubles as the fault-recovery arming flag — only has its
    *contents* restored, never its armed/disarmed status.

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
    allocator.order = list(warm.alloc_order)
    allocator._cursor = warm.alloc_cursor
    for pool, snap in zip(ftl.table.planes, warm.planes, strict=True):
        pool.free = deque(snap.free)
        pool.active = snap.active
        pool.used = set(snap.used)
        pool.retired = set(snap.retired)
    ftl.counters = dataclasses.replace(warm.counters)
    ftl.refresh_reports = [
        dataclasses.replace(report) for report in warm.refresh_reports
    ]
    ftl.grown_bad = list(warm.grown_bad)
    ftl._retry_pressure = dict(warm.retry_pressure)
    if ftl._journal is not None:
        ftl._journal = dict(warm.journal)
    ftl.rng.bit_generator.state = warm.ftl_rng_state
    sim._host_retry_rng.bit_generator.state = warm.host_retry_rng_state


class WarmHandle:
    """One run's connection to the snapshot layer.

    Two flavours: a *cache* handle (``store`` + ``key``) fetches from /
    publishes to a :class:`SnapshotStore`, while a *resolved* handle
    (``state``) carries a warm state that was transported some other way
    — the shared-memory fan-out path.  ``outcome`` records what the run
    actually did (``"hit"`` / ``"miss"``) for executor accounting.
    """

    __slots__ = ("store", "key", "state", "outcome")

    def __init__(
        self,
        store: "SnapshotStore | None" = None,
        key: str | None = None,
        state: WarmState | None = None,
    ) -> None:
        self.store = store
        self.key = key
        self.state = state
        self.outcome: str | None = None

    def fetch(self) -> WarmState | None:
        """The warm state this run should restore from, if any."""
        if self.state is not None:
            self.outcome = "hit"
            return self.state
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
    ``fallbacks`` counts spill files rejected as corrupt or stale, and
    ``stores`` counts :meth:`~SnapshotStore.put` calls."""

    hits: int = 0
    misses: int = 0
    fallbacks: int = 0
    stores: int = 0


class SnapshotStore:
    """Content-addressed warm-state cache: in-process LRU + disk spill.

    Keys are opaque strings (the experiments layer hashes the
    warm-relevant configuration slice into them).  The LRU keeps at most
    :data:`STORE_CAPACITY` states resident; the optional ``spill_dir``
    makes snapshots survive the process and be shareable across
    invocations.

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
        self.stats.stores += 1
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


# ----------------------------------------------------------------------
# Shared-memory transport (pool fan-out)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedSnapshotRef:
    """Picklable pointer to a parent-owned shared-memory warm state."""

    name: str
    size: int
    digest: bytes


def publish_warm_state(warm: WarmState):
    """Serialize ``warm`` into a fresh shared-memory segment.

    Returns ``(ref, shm)``: ship ``ref`` to workers; keep ``shm`` and
    ``close()`` + ``unlink()`` it when the fan-out is done (the caller
    owns the segment's lifetime — do it in a ``finally`` so a crashed
    sweep does not leak ``/dev/shm`` space).
    """
    from multiprocessing import shared_memory

    payload = pickle.dumps(warm, protocol=pickle.HIGHEST_PROTOCOL)
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    shm.buf[: len(payload)] = payload
    ref = SharedSnapshotRef(
        name=shm.name,
        size=len(payload),
        digest=hashlib.sha256(payload).digest(),
    )
    return ref, shm


def _attach_untracked(name: str):
    """Attach a ``SharedMemory`` segment without tracker registration.

    Python < 3.13 registers *every* ``SharedMemory`` — including plain
    attaches — with a resource tracker that unlinks the segment when its
    owner exits.  A pool worker merely mapping a parent-owned segment
    must not involve the tracker at all: under ``spawn`` the worker's
    own tracker would tear the segment down when the worker exits, and
    under ``fork`` (a shared tracker) an unregister from one worker
    clobbers the parent's registration.  Python 3.13+ has ``track=``
    for exactly this; on older versions the registration hook is
    no-oped around the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _register_skip_shm(rname, rtype):
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _register_skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_warm_state(ref: SharedSnapshotRef) -> WarmState:
    """Materialise a :class:`WarmState` from a shared-memory reference.

    Copies the payload out and detaches immediately — the worker holds
    no mapping afterwards, so segment lifetime stays entirely with the
    publishing parent.

    Raises:
        ValueError: checksum mismatch or stale schema (callers treat any
            exception as "run cold").
    """
    shm = _attach_untracked(ref.name)
    try:
        payload = bytes(shm.buf[: ref.size])
    finally:
        shm.close()
    if hashlib.sha256(payload).digest() != ref.digest:
        raise ValueError("shared-memory snapshot failed its checksum")
    warm = pickle.loads(payload)
    if not isinstance(warm, WarmState) or warm.schema != SNAPSHOT_SCHEMA:
        raise ValueError("shared-memory snapshot carries a stale schema")
    return warm
