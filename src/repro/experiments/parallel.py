"""Parallel sweep execution: process-pool fan-out over independent runs.

Every reproduced figure and table is a sweep of fully independent
``(system, workload, scale, seed)`` simulations — ``run_fig8`` alone is
11 workloads x 7 systems.  This module turns such a sweep into a list of
declarative :class:`RunUnit` descriptions and executes them on a process
pool, with results returned **in submission order**.

The determinism contract
------------------------

Each unit carries its own seed (and, optionally, its own
:class:`~repro.faults.FaultPlan`) and each worker constructs its own
simulator from scratch, so a unit's result is a pure function of the
unit description.  Parallel execution therefore produces *exactly* the
same numbers as sequential execution — pinned by
``tests/experiments/test_parallel_parity.py`` against the sequential
golden file — and ``jobs`` is a pure wall-clock knob that is safe to
flip on any experiment.

Only compact :class:`~repro.experiments.runner.RunResultPayload` objects
(or :class:`~repro.experiments.runner.CapacityCensus` for capacity-mode
units) cross the process boundary; raw metrics with per-sample lists
never do.  Instrumentation crosses as a declarative
:class:`~repro.obs.instruments.Instruments` spec on the unit: each worker
builds its own tracer, collector, profiler and health monitor, and only
the plain ``telemetry`` dict rides back.  A traced unit writes its own
JSONL file worker-side, so tracing works at any job count; the executor
rejects two units naming the same ``trace_path``, since concurrent
writers would interleave one file.

Hardening
---------

Long sweeps on shared machines die in three ways the original
``Pool.imap`` loop turned into a lost afternoon: a worker segfaults (OOM
killer, native-extension crash), a unit hangs, or one unit raises and
takes the other 69 results down with it.  :class:`SweepExecutor` now
takes ``timeout_s`` (per-unit wall-clock budget), ``max_retries`` with
exponential ``backoff_s`` (crashed/hung workers are retried on a fresh
pool — unit determinism makes retries safe), and ``keep_going``
(failures become :class:`SweepError` records *in* the result list
instead of exceptions, so an artifact keeps every healthy workload).
Deterministic unit exceptions are never retried — the same unit would
fail the same way again.
"""

from __future__ import annotations

import concurrent.futures
import logging
import multiprocessing
from concurrent.futures.process import BrokenProcessPool
import pickle
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from ..faults.plan import FaultKind, FaultPlan
from ..obs.instruments import Instruments
from ..obs.metrics import MetricsRegistry
from ..sim.snapshot import (
    SharedSnapshotRef,
    SnapshotStore,
    WarmHandle,
    attach_warm_state,
    publish_warm_state,
)
from ..workloads.msr import workload as _catalog_workload
from ..workloads.synthetic import WorkloadSpec
from .config import RunScale
from .runner import (
    CapacityCensus,
    RunResultPayload,
    prepare_warm_state,
    run_capacity_phase_pair,
    run_workload,
    run_workload_closed_loop,
    warm_cache_key,
)
from .systems import SystemSpec

__all__ = [
    "RunUnit",
    "SweepError",
    "SweepExecutor",
    "execute_unit",
    "failed_workloads",
    "prune_failed",
    "warm_key_for_unit",
]

_log = logging.getLogger(__name__)

#: Resident warm states the executor's in-process store keeps.  Artifact
#: sweeps iterate workload-major, so a small window covers the reuse
#: pattern without pinning every distinct state of a long sweep in RAM.
_SNAPSHOT_LRU_CAPACITY = 8

#: Log-style progress callback: called once per completed unit.
ProgressFn = Callable[[str], None]

_MODES = ("open", "closed", "capacity", "recover")


@dataclass(frozen=True)
class RunUnit:
    """One independent simulation of a sweep, picklable by construction.

    Attributes:
        system: The system spec to simulate.
        workload: A catalog workload name (resolved worker-side) or an
            explicit :class:`WorkloadSpec` for non-catalog workloads.
        scale: Run scale (scaling of the spec happens in the worker).
        seed: The unit's own RNG seed — determinism is per-unit.
        mode: ``"open"`` (trace replay), ``"closed"`` (fixed queue
            depth, Fig. 10), ``"capacity"`` (read-then-write phase
            pair, Sec. III-C) or ``"recover"`` (run to a power cut,
            remount from on-flash metadata, verify and resume — see
            :mod:`repro.experiments.recovery_artifact`).
        queue_depth: Outstanding requests for ``"closed"`` units.
        faults: Optional :class:`~repro.faults.FaultPlan` to bind to the
            run's simulator.  Plans are frozen and picklable, so faulted
            units fan out exactly like healthy ones; the fault summary
            rides back on the payload's ``faults`` field.
        instruments: Optional :class:`~repro.obs.instruments.Instruments`
            spec for ``"open"`` and ``"closed"`` units.  The worker builds
            the live instruments and only their plain ``telemetry`` dict
            crosses the process boundary, so instrumented sweeps run at
            any job count with identical payloads and traces.
    """

    system: SystemSpec
    workload: str | WorkloadSpec
    scale: RunScale
    seed: int = 11
    mode: str = "open"
    queue_depth: int = 32
    faults: FaultPlan | None = None
    instruments: Instruments | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; choose one of {_MODES}"
            )
        if self.instruments is not None and self.mode not in ("open", "closed"):
            raise ValueError(
                f"{self.mode}-mode units take no instruments"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.mode == "recover" and (
            self.faults is None
            or not any(
                e.kind is FaultKind.POWER_CUT for e in self.faults.events
            )
        ):
            raise ValueError(
                "recover-mode units need a fault plan with a power_cut event"
            )

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name

    def resolve_workload(self) -> WorkloadSpec:
        if isinstance(self.workload, str):
            return _catalog_workload(self.workload)
        return self.workload

    def scaled_workload(self) -> WorkloadSpec:
        """The workload spec as the run replays it, scaled to the unit."""
        return self.resolve_workload().scaled(
            self.scale.num_requests, self.scale.footprint_pages
        )

    @property
    def trace_path(self) -> str | None:
        return None if self.instruments is None else self.instruments.trace_path

    def describe(self) -> str:
        return f"{self.system.name}/{self.workload_name}"


class SweepError(RuntimeError):
    """A sweep unit failed; ``unit`` identifies which one.

    For deterministic unit exceptions the worker's original exception is
    chained as ``__cause__`` and its formatted worker-side traceback is
    kept in ``details``; for crashes and timeouts ``details`` carries
    what the executor observed.  In ``keep_going`` mode these objects
    occupy the failed unit's slot in the result list — check with
    ``isinstance(outcome, SweepError)`` (or via :func:`prune_failed`).
    """

    def __init__(self, unit: RunUnit, message: str, details: str = ""):
        super().__init__(
            f"sweep unit {unit.describe()} "
            f"(mode={unit.mode}, seed={unit.seed}) failed: {message}"
        )
        self.unit = unit
        self.details = details


def warm_key_for_unit(unit: RunUnit) -> str:
    """The unit's warm-state cache key (see :func:`~.runner.warm_cache_key`).

    Units that differ only in swept parameters the warm-up cannot observe
    (refresh mode, error rate, DTR, retry model, policy, queue depth,
    mode, fault plan, observability) map to the same key and share one
    snapshot — the grouping :class:`SweepExecutor` fans shared-memory
    segments out by.
    """
    return warm_cache_key(
        unit.system, unit.scaled_workload(), unit.scale, unit.seed
    )


def execute_unit(
    unit: RunUnit, warm: WarmHandle | None = None
) -> RunResultPayload | CapacityCensus | dict:
    """Run one unit in the current process (worker body and inline path)."""
    if unit.mode == "recover":
        # Local import: recovery_artifact imports this module at top level.
        from .recovery_artifact import run_recovery_unit

        return run_recovery_unit(unit, warm=warm)
    spec = unit.resolve_workload()
    if unit.mode == "capacity":
        return run_capacity_phase_pair(
            unit.system, spec, unit.scale, seed=unit.seed, faults=unit.faults,
            warm=warm,
        )
    # Live instruments are built here, in the process that runs the
    # simulation; only their plain payload rides back.
    telemetry = (
        unit.instruments.build(unit.scaled_workload().duration_us)
        if unit.instruments is not None
        else None
    )
    common = dict(seed=unit.seed, faults=unit.faults, telemetry=telemetry, warm=warm)
    try:
        if unit.mode == "open":
            result = run_workload(unit.system, spec, unit.scale, **common)
        else:
            result = run_workload_closed_loop(
                unit.system, spec, unit.scale, queue_depth=unit.queue_depth,
                **common,
            )
    finally:
        if telemetry is not None:
            telemetry.close()
    return result.to_payload()


class _WorkerFailure:
    """Picklable envelope for an exception raised inside a pool worker."""

    def __init__(self, exception: BaseException, details: str):
        self.exception = exception
        self.details = details


class _WarmOutcome:
    """A pool result plus what the worker did with its warm state.

    ``status`` is a ``snapshot_stats`` key: ``"hits"`` (restored from
    shared memory), or ``"fallbacks"`` (the segment was unusable and the
    unit preloaded cold — degraded wall-clock, identical results).
    """

    def __init__(self, payload, status: str):
        self.payload = payload
        self.status = status


def _pool_worker(unit: RunUnit, shm_ref: SharedSnapshotRef | None = None):
    try:
        warm = None
        status = None
        if shm_ref is not None:
            # Any attach problem (parent died and the segment is gone, a
            # checksum or schema mismatch) degrades to a cold preload —
            # a snapshot must never turn into a failed unit.
            try:
                warm = WarmHandle(state=attach_warm_state(shm_ref))
                status = "hits"
            except Exception as exc:
                status = "fallbacks"
                _log.warning(
                    "unit %s could not attach warm state %s (%s); "
                    "preloading cold",
                    unit.describe(),
                    shm_ref.name,
                    exc,
                )
        result = execute_unit(unit, warm=warm)
        if status is not None:
            return _WarmOutcome(result, status)
        return result
    except Exception as exc:
        details = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"unpicklable worker exception: {exc!r}")
        return _WorkerFailure(exc, details)


def _release_segments(segments) -> None:
    """Close and unlink parent-owned shared-memory segments (idempotent)."""
    for shm in segments:
        try:
            shm.close()
        except OSError:
            pass
        try:
            shm.unlink()
        except (OSError, FileNotFoundError):
            pass


class SweepExecutor:
    """Executes :class:`RunUnit` lists, inline or on a process pool.

    ``jobs=1`` (the default) runs every unit in-process; ``jobs>1`` fans
    units out to a process pool.  Either way :meth:`map` returns the same
    results, in submission order.

    Args:
        jobs: Worker count (1 = inline).
        progress: Per-completed-unit log callback.
        mp_context: Multiprocessing context (tests inject one).
        timeout_s: Per-unit wall-clock budget, measured from when the
            executor turns to that unit's result (units run concurrently,
            so time spent waiting on earlier units also covers later
            ones — the budget bounds the *extra* wait per unit).  A
            timeout kills the whole pool and re-runs the other in-flight
            units on a fresh one; determinism makes that free.  Pool
            mode only — an inline unit cannot be interrupted.
        max_retries: How many times a unit whose worker *crashed or hung*
            is retried (fresh pool, exponential backoff).  Deterministic
            unit exceptions are never retried.
        backoff_s: Base backoff.  Retry ``n`` sleeps a *full-jitter*
            delay: uniform in ``[0, min(backoff_cap_s,
            backoff_s * 2**(n-1)))``.  Jitter desynchronises the retry
            stampede when several sweeps share a machine that just
            OOM-killed their workers; the cap keeps deep retry budgets
            from sleeping for minutes.  ``0`` disables sleeping.
        backoff_cap_s: Ceiling on any single backoff delay.
        registry: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, total slept backoff rides the
            ``sweep_retry_backoff_seconds_total`` counter.
        keep_going: Instead of raising on the first failure, leave a
            :class:`SweepError` in the failed unit's result slot and
            finish the rest of the sweep.
        snapshots: Reuse warmed device state across units that share a
            warm key (see :func:`warm_key_for_unit`).  Inline, units
            draw from one in-process :class:`SnapshotStore`; pooled, the
            executor groups units by key, warms each group's state once
            in the parent, and fans it out through shared memory.  A
            pure wall-clock knob: results are byte-identical either way
            (pinned by ``tests/experiments/test_snapshot_parity.py``).
        snapshot_dir: Spill directory for warm states (implies
            ``snapshots``); snapshots then survive the process and are
            shared across invocations.

    After :meth:`map` returns, ``snapshot_stats`` holds the sweep's
    cache accounting: ``hits`` (units restored from a snapshot),
    ``misses`` (cold preloads, including the one per pooled group the
    parent performs) and ``fallbacks`` (corrupt/stale snapshots that
    degraded to a cold preload).
    """

    def __init__(
        self,
        jobs: int = 1,
        progress: ProgressFn | None = None,
        mp_context=None,
        timeout_s: float | None = None,
        max_retries: int = 0,
        backoff_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        keep_going: bool = False,
        snapshots: bool = False,
        snapshot_dir: str | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if backoff_cap_s <= 0:
            raise ValueError("backoff_cap_s must be positive")
        self.jobs = jobs
        self.progress = progress
        self._mp_context = mp_context
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        # Fixed-seed jitter: retry *timing* may vary run to run without
        # harm, but a seeded stream keeps tests and reruns repeatable.
        self._backoff_rng = random.Random(0x5EE9)
        self._backoff_total = (
            registry.counter(
                "sweep_retry_backoff_seconds_total",
                "seconds slept backing off before sweep-unit retries",
            ).unlabeled
            if registry is not None
            else None
        )
        self.keep_going = keep_going
        self.snapshot_dir = snapshot_dir
        self.snapshots = bool(snapshots or snapshot_dir)
        self.snapshot_stats = {"hits": 0, "misses": 0, "fallbacks": 0}

    def map(
        self, units: Sequence[RunUnit]
    ) -> list[RunResultPayload | CapacityCensus | SweepError]:
        units = list(units)
        traces: set[str] = set()
        for unit in units:
            if not isinstance(unit, RunUnit):
                raise TypeError(f"expected RunUnit, got {type(unit).__name__}")
            if unit.trace_path is not None:
                if unit.trace_path in traces:
                    raise ValueError(
                        f"two units write trace_path {unit.trace_path!r}; "
                        "give each traced unit its own file"
                    )
                traces.add(unit.trace_path)
        if not units:
            return []
        self.snapshot_stats = {"hits": 0, "misses": 0, "fallbacks": 0}
        if self.jobs == 1:
            return self._map_inline(units)
        return self._map_pool(units)

    def _emit(
        self, done: int, total: int, unit: RunUnit, elapsed_s: float | None = None
    ) -> None:
        if self.progress is None:
            return
        timing = f" ({elapsed_s:.1f}s)" if elapsed_s is not None else ""
        self.progress(f"[{done}/{total}] {unit.describe()}{timing}")

    def _map_inline(self, units):
        store = None
        if self.snapshots:
            store = SnapshotStore(
                capacity=_SNAPSHOT_LRU_CAPACITY, spill_dir=self.snapshot_dir
            )
        results = []
        total = len(units)
        for index, unit in enumerate(units):
            warm = None
            if store is not None:
                warm = WarmHandle(store=store, key=warm_key_for_unit(unit))
            started = time.perf_counter()
            try:
                results.append(execute_unit(unit, warm=warm))
            except Exception as exc:
                error = SweepError(unit, str(exc), traceback.format_exc())
                if not self.keep_going:
                    raise error from exc
                error.__cause__ = exc
                results.append(error)
            else:
                if warm is not None:
                    # A traced unit never fetches (``warm_device``): it
                    # preloads cold, a miss.
                    key = "hits" if warm.outcome == "hit" else "misses"
                    self.snapshot_stats[key] += 1
            self._emit(index + 1, total, unit, time.perf_counter() - started)
        if store is not None:
            self.snapshot_stats["fallbacks"] += store.stats.fallbacks
        return results

    def _publish_group_snapshots(self, units):
        """Warm one state per shared key and publish it to shared memory.

        Units are grouped by warm key; every group of two or more (and,
        when a spill directory is configured, singletons too — their
        state may already be on disk, or will pay off next invocation)
        gets one parent-side warm state: pulled from the store when
        cached, otherwise preloaded cold exactly once.  Each state is
        serialized into a single ``multiprocessing.shared_memory``
        segment that every worker of the group attaches.

        Returns:
            ``(refs, segments)`` — per-unit-index
            :class:`SharedSnapshotRef` pointers, and the parent-owned
            segments the caller must close + unlink when the fan-out
            (including retry rounds) is over.
        """
        groups: dict[str, list[int]] = {}
        for index, unit in enumerate(units):
            if unit.trace_path is None:  # traced units always warm up cold
                groups.setdefault(warm_key_for_unit(unit), []).append(index)
        store = SnapshotStore(
            capacity=_SNAPSHOT_LRU_CAPACITY, spill_dir=self.snapshot_dir
        )
        refs: dict[int, SharedSnapshotRef] = {}
        segments = []
        try:
            for key, members in groups.items():
                if len(members) < 2 and self.snapshot_dir is None:
                    continue  # nothing shares it; the worker preloads cold
                unit = units[members[0]]
                warm = store.get(key)
                if warm is None:
                    warm = prepare_warm_state(
                        unit.system,
                        unit.resolve_workload(),
                        unit.scale,
                        seed=unit.seed,
                    )
                    store.put(key, warm)
                    self.snapshot_stats["misses"] += 1
                ref, shm = publish_warm_state(warm)
                segments.append(shm)
                for index in members:
                    refs[index] = ref
        except BaseException:
            _release_segments(segments)
            raise
        self.snapshot_stats["fallbacks"] += store.stats.fallbacks
        return refs, segments

    def _map_pool(self, units):
        """Round-based pool execution with crash/timeout containment.

        Each round submits every unresolved unit to a fresh
        ``ProcessPoolExecutor`` and waits on futures in submission order.
        A worker crash or unit timeout breaks the pool: the culprit's
        retry budget is charged, already-finished results are salvaged,
        the pool is killed, and the next round re-runs the remainder.
        Unit determinism (each worker rebuilds its simulator from the
        unit description alone) is what makes re-running units safe.

        With snapshots enabled, units sharing a warm key restore from
        one parent-published shared-memory segment instead of each
        repeating the preload (see :meth:`_publish_group_snapshots`).
        Segments outlive retry rounds — a re-run unit re-attaches the
        same state — and are released in a ``finally``.
        """
        context = self._mp_context or multiprocessing.get_context()
        total = len(units)
        results: list = [None] * total
        done = [False] * total
        attempts = [0] * total
        completed = 0
        refs: dict[int, SharedSnapshotRef] = {}
        segments: list = []
        if self.snapshots:
            refs, segments = self._publish_group_snapshots(units)

        def settle(index: int, outcome) -> None:
            nonlocal completed
            if isinstance(outcome, _WarmOutcome):
                self.snapshot_stats[outcome.status] += 1
                outcome = outcome.payload
            elif self.snapshots and not isinstance(outcome, _WorkerFailure):
                # No segment was fanned out for this unit: cold preload.
                self.snapshot_stats["misses"] += 1
            if isinstance(outcome, _WorkerFailure):
                # Deterministic unit exception: never retried.
                error = SweepError(
                    units[index], str(outcome.exception), outcome.details
                )
                if not self.keep_going:
                    raise error from outcome.exception
                error.__cause__ = outcome.exception
                results[index] = error
            else:
                results[index] = outcome
            done[index] = True
            completed += 1
            self._emit(completed, total, units[index])

        try:
            while completed < total:
                pending = [i for i in range(total) if not done[i]]
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(pending)), mp_context=context
                )
                crashed: tuple[int, str] | None = None
                try:
                    futures = {
                        i: executor.submit(_pool_worker, units[i], refs.get(i))
                        for i in pending
                    }
                    for i in pending:
                        try:
                            outcome = futures[i].result(timeout=self.timeout_s)
                        except concurrent.futures.TimeoutError:
                            crashed = (
                                i, f"timed out after {self.timeout_s:g}s"
                            )
                            break
                        except BrokenProcessPool:
                            crashed = (i, "worker process crashed (pool broken)")
                            break
                        settle(i, outcome)
                    if crashed is not None:
                        # Salvage units that finished before the break: their
                        # futures already hold results and cost nothing.
                        for j in pending:
                            if done[j] or j == crashed[0]:
                                continue
                            future = futures[j]
                            if not future.done() or future.cancelled():
                                continue
                            try:
                                outcome = future.result(timeout=0)
                            except Exception:
                                continue
                            if isinstance(outcome, _WorkerFailure):
                                continue  # deterministic; re-settles next round
                            settle(j, outcome)
                finally:
                    if crashed is not None:
                        # A hung or crashed worker would make a graceful
                        # shutdown block; cancel what is queued and terminate
                        # whatever processes remain.
                        executor.shutdown(wait=False, cancel_futures=True)
                        procs = getattr(executor, "_processes", None) or {}
                        for proc in list(procs.values()):
                            proc.terminate()
                    else:
                        executor.shutdown(wait=True, cancel_futures=True)
                if crashed is None:
                    continue
                index, reason = crashed
                attempts[index] += 1
                if attempts[index] > self.max_retries:
                    error = SweepError(
                        units[index],
                        reason,
                        f"gave up after {attempts[index]} attempt(s)",
                    )
                    if not self.keep_going:
                        raise error
                    results[index] = error
                    done[index] = True
                    completed += 1
                    self._emit(completed, total, units[index])
                elif self.backoff_s > 0:
                    delay = self._retry_delay(attempts[index])
                    if delay > 0:
                        time.sleep(delay)
        finally:
            _release_segments(segments)
        return results

    def _retry_delay(self, attempt: int) -> float:
        """Full-jitter delay for retry ``attempt`` (1-based), metered.

        Uniform in ``[0, min(backoff_cap_s, backoff_s * 2**(attempt-1)))``
        — the AWS "full jitter" scheme: the *ceiling* grows
        exponentially, the draw spreads concurrent retriers out over it.
        """
        ceiling = min(
            self.backoff_cap_s, self.backoff_s * (2 ** (attempt - 1))
        )
        delay = ceiling * self._backoff_rng.random()
        if self._backoff_total is not None:
            self._backoff_total.inc(delay)
        return delay


def failed_workloads(
    outcomes: Sequence, progress: ProgressFn | None = None
) -> set[str]:
    """Workload names with at least one :class:`SweepError` outcome.

    Each dropped workload is reported once through ``progress``.
    """
    failed = {
        outcome.unit.workload_name
        for outcome in outcomes
        if isinstance(outcome, SweepError)
    }
    if progress is not None:
        for name in sorted(failed):
            progress(f"keep-going: dropping workload {name!r} (unit failed)")
    return failed


def prune_failed(
    names: Sequence[str],
    units: Sequence[RunUnit],
    outcomes: Sequence,
    progress: ProgressFn | None = None,
):
    """Drop every workload group touched by a failed unit (keep-going).

    Artifact runners build their unit lists grouped per workload, and
    their post-processing consumes fixed-size groups (baseline/variant
    pairs, error-rate fans).  When one unit of a group failed the whole
    group is unusable, so pruning happens at workload granularity: the
    surviving ``(names, units, outcomes)`` triple keeps its grouping
    intact and downstream slicing logic works unchanged.

    Returns:
        ``(kept_names, kept_units, kept_outcomes, errors)``.
    """
    errors = [o for o in outcomes if isinstance(o, SweepError)]
    if not errors:
        return list(names), list(units), list(outcomes), []
    failed = failed_workloads(errors, progress)
    kept_names = [name for name in names if name not in failed]
    kept_units = [u for u in units if u.workload_name not in failed]
    kept_outcomes = [
        o for u, o in zip(units, outcomes) if u.workload_name not in failed
    ]
    return kept_names, kept_units, kept_outcomes, errors
