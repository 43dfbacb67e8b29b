"""Parallel sweep execution: process-pool fan-out over independent runs.

Every reproduced figure and table is a sweep of fully independent
``(system, workload, scale, seed)`` simulations — Fig. 8 alone is
11 workloads x 7 systems.  Each artifact plans its sweep as a list of
declarative :class:`RunUnit` descriptions (see
:mod:`repro.experiments.artifacts`) and this module executes them, inline
or on a process pool, with results returned **in submission order**.

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

Long sweeps on shared machines die in two ways the original
``Pool.imap`` loop turned into a lost afternoon: a worker segfaults (OOM
killer, native-extension crash), or one unit raises and takes the other
69 results down with it.  :class:`SweepExecutor` contains both.  A
crashed worker breaks the pool; the unit being waited on is charged with
a :class:`SweepError`, results that already finished are salvaged, and
the remaining units re-run on a fresh pool (unit determinism makes the
re-run safe).  With ``keep_going``, failures become :class:`SweepError`
records *in* the result list instead of exceptions, so an artifact run
can drop the failed workloads and keep every healthy one.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
from concurrent.futures.process import BrokenProcessPool
import pickle
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Sequence

from ..faults.plan import FaultKind, FaultPlan
from ..ftl.refresh import RefreshMode
from ..obs.instruments import Instruments
from ..sim.snapshot import SnapshotStore, WarmHandle
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
from .systems import SystemSpec, baseline

__all__ = [
    "RunUnit",
    "SweepError",
    "SweepExecutor",
    "execute_unit",
    "ida_pairs",
    "warm_key_for_unit",
]

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
    kept in ``details``; for a worker crash ``details`` carries what the
    executor observed.  In ``keep_going`` mode these objects
    occupy the failed unit's slot in the result list — check with
    ``isinstance(outcome, SweepError)``.
    """

    def __init__(self, unit: RunUnit, message: str, details: str = ""):
        super().__init__(
            f"sweep unit {unit.describe()} "
            f"(mode={unit.mode}, seed={unit.seed}) failed: {message}"
        )
        self.unit = unit
        self.details = details


def ida_pairs(results: dict[RunUnit, Any]) -> Iterator[tuple[RunUnit, Any, Any]]:
    """``(unit, payload, baseline payload)`` for each IDA unit, in order.

    A variant's baseline is the same unit (workload, scale, seed, mode,
    fault plan, instruments) on the same device, dtR, lifetime phase,
    allocation and policy, with the conventional refresh flow and the
    default adjustment charge; it must be a key of ``results`` too.
    """
    for unit, payload in results.items():
        system = unit.system
        if system.refresh_mode is RefreshMode.IDA:
            twin = replace(
                baseline(system.device),
                dtr_us=system.dtr_us,
                retry_fail_prob=system.retry_fail_prob,
                allocation=system.allocation,
                policy=system.policy,
            )
            yield unit, payload, results[replace(unit, system=twin)]


def warm_key_for_unit(unit: RunUnit) -> str:
    """The unit's warm-state cache key (see :func:`~.runner.warm_cache_key`).

    Units that differ only in swept parameters the warm-up cannot observe
    (refresh mode, error rate, DTR, retry model, policy, queue depth,
    mode, fault plan, observability) map to the same key and share one
    snapshot — the grouping :class:`SweepExecutor` warms pooled units by.
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


def _pool_worker(unit: RunUnit, spill: tuple[str, str] | None = None):
    """Run one unit in a pool worker.

    ``spill`` is ``(spill_dir, key)`` when the parent warmed the unit's
    state into a spill file.  The unit then restores through its own
    :class:`SnapshotStore`, exactly as an inline unit does: a rejected
    file is a cold preload, never a failed unit.

    Returns:
        ``(payload, outcome, fallbacks)`` — the unit's payload, its
        :attr:`WarmHandle.outcome` (``None`` without a spill) and the
        spill files its store rejected — or a :class:`_WorkerFailure`.
    """
    try:
        warm = None
        if spill is not None:
            warm = WarmHandle(SnapshotStore(spill[0]), spill[1])
        payload = execute_unit(unit, warm=warm)
        if warm is None:
            return payload, None, 0
        return payload, warm.outcome, warm.store.stats.fallbacks
    except Exception as exc:
        details = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"unpicklable worker exception: {exc!r}")
        return _WorkerFailure(exc, details)


class SweepExecutor:
    """Executes :class:`RunUnit` lists, inline or on a process pool.

    ``jobs=1`` (the default) runs every unit in-process; ``jobs>1`` fans
    units out to a process pool.  Either way :meth:`map` returns the same
    results, in submission order.

    Args:
        jobs: Worker count (1 = inline).
        progress: Per-completed-unit log callback.
        keep_going: Instead of raising on the first failure, leave a
            :class:`SweepError` in the failed unit's result slot and
            finish the rest of the sweep.  A unit whose worker crashed
            fails once; it is not retried.
        snapshots: Reuse warmed device state across units that share a
            warm key (see :func:`warm_key_for_unit`).  Inline, units
            draw from one in-process :class:`SnapshotStore`; pooled, the
            executor groups units by key, warms each group's state once
            in the parent into a spill file, and every worker of the
            group restores from that file.  A pure wall-clock knob:
            results are byte-identical either way (pinned by
            ``tests/experiments/test_snapshot_parity.py``).
        snapshot_dir: Spill directory for warm states (implies
            ``snapshots``); snapshots then survive the process and are
            shared across invocations.  Without it, a pooled sweep
            spills into a temporary directory that lives for the sweep.

    After :meth:`map` returns, ``snapshot_stats`` holds the sweep's
    cache accounting: ``hits`` (units restored from a snapshot),
    ``misses`` (cold preloads, including the one per pooled group the
    parent performs) and ``fallbacks`` (spill files rejected as corrupt
    or stale, each of which degraded to a cold preload).
    """

    def __init__(
        self,
        jobs: int = 1,
        progress: ProgressFn | None = None,
        keep_going: bool = False,
        snapshots: bool = False,
        snapshot_dir: str | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.progress = progress
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
            store = SnapshotStore(spill_dir=self.snapshot_dir)
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
                    self._tally(warm.outcome)
            self._emit(index + 1, total, unit, time.perf_counter() - started)
        if store is not None:
            self.snapshot_stats["fallbacks"] += store.stats.fallbacks
        return results

    def _tally(self, outcome: str | None, fallbacks: int = 0) -> None:
        """Count one finished unit: a hit when it restored, else a miss.

        A traced unit never fetches (``warm_device``): it preloads
        cold, a miss.
        """
        self.snapshot_stats["hits" if outcome == "hit" else "misses"] += 1
        self.snapshot_stats["fallbacks"] += fallbacks

    def _spill_groups(self, units, spill_dir: str) -> dict[int, tuple[str, str]]:
        """Warm one state per shared key into ``spill_dir``.

        Units are grouped by warm key; every group of two or more (and,
        when a spill directory is configured, singletons too — their
        state may already be on disk, or will pay off next invocation)
        gets one parent-side warm state: found in the spill directory,
        otherwise preloaded cold exactly once and spilled.

        Returns:
            Per-unit-index ``(spill_dir, key)`` pairs for
            :func:`_pool_worker`; units without one preload cold.
        """
        groups: dict[str, list[int]] = {}
        for index, unit in enumerate(units):
            if unit.trace_path is None:  # traced units always warm up cold
                groups.setdefault(warm_key_for_unit(unit), []).append(index)
        store = SnapshotStore(spill_dir)
        spills: dict[int, tuple[str, str]] = {}
        for key, members in groups.items():
            if len(members) < 2 and self.snapshot_dir is None:
                continue  # nothing shares it; the worker preloads cold
            if store.get(key) is None:
                unit = units[members[0]]
                warm = prepare_warm_state(
                    unit.system, unit.resolve_workload(), unit.scale, seed=unit.seed
                )
                store.put(key, warm)
                self.snapshot_stats["misses"] += 1
            for index in members:
                spills[index] = (spill_dir, key)
        self.snapshot_stats["fallbacks"] += store.stats.fallbacks
        return spills

    def _map_pool(self, units):
        """Round-based pool execution with crash containment.

        Each round submits every unresolved unit to a fresh
        ``ProcessPoolExecutor`` and waits on futures in submission order.
        A worker crash breaks the pool: the unit being waited on fails
        with a :class:`SweepError`, already-finished results are
        salvaged, the pool's processes are terminated, and the next round
        re-runs the remainder.  Unit determinism (each worker rebuilds
        its simulator from the unit description alone) is what makes
        re-running units safe.

        With snapshots enabled, units sharing a warm key restore from
        one parent-written spill file instead of each repeating the
        preload (see :meth:`_spill_groups`).  Without ``snapshot_dir``
        the files live in a temporary directory that outlives the re-run
        rounds and is removed when the sweep ends, raised or not.
        """
        total = len(units)
        results: list = [None] * total
        done = [False] * total
        completed = 0

        def settle(index: int, outcome) -> None:
            nonlocal completed
            if isinstance(outcome, _WorkerFailure):
                error = SweepError(
                    units[index], str(outcome.exception), outcome.details
                )
                error.__cause__ = outcome.exception
                outcome = error
            elif not isinstance(outcome, SweepError):
                outcome, warm_outcome, fallbacks = outcome
                if self.snapshots:
                    self._tally(warm_outcome, fallbacks)
            if isinstance(outcome, SweepError) and not self.keep_going:
                raise outcome
            results[index] = outcome
            done[index] = True
            completed += 1
            self._emit(completed, total, units[index])

        scope = (
            tempfile.TemporaryDirectory(prefix="repro-warm-")
            if self.snapshots and self.snapshot_dir is None
            else contextlib.nullcontext(self.snapshot_dir)
        )
        with scope as spill_dir:
            spills = self._spill_groups(units, spill_dir) if self.snapshots else {}
            while completed < total:
                pending = [i for i in range(total) if not done[i]]
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(pending))
                )
                crashed: int | None = None
                try:
                    futures = {}
                    try:
                        for i in pending:
                            futures[i] = executor.submit(
                                _pool_worker, units[i], spills.get(i)
                            )
                    except BrokenProcessPool:
                        # A worker died before every unit was submitted:
                        # the crash surfaces on a submitted unit's future
                        # below, and the rest wait for the next round.
                        pass
                    for i in futures:
                        try:
                            outcome = futures[i].result()
                        except BrokenProcessPool:
                            crashed = i
                            break
                        settle(i, outcome)
                    if crashed is not None:
                        # Salvage units that finished before the break: their
                        # futures already hold results and cost nothing.
                        for j in futures:
                            if done[j] or j == crashed:
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
                        # A broken pool would make a graceful shutdown
                        # block; cancel what is queued and terminate
                        # whatever processes remain.
                        executor.shutdown(wait=False, cancel_futures=True)
                        procs = getattr(executor, "_processes", None) or {}
                        for proc in list(procs.values()):
                            proc.terminate()
                    else:
                        executor.shutdown(wait=True, cancel_futures=True)
                if crashed is not None:
                    settle(
                        crashed,
                        SweepError(
                            units[crashed],
                            "worker process crashed (pool broken)",
                            "the worker died before returning a result",
                        ),
                    )
        return results
