"""SSD simulator orchestration: requests in, staged op pipelines out.

The simulator is a thin conductor over the layered architecture (see
``docs/architecture.md``):

* **workload drivers** — :mod:`repro.sim.drivers` feed timed request
  streams (open- or closed-loop) and tick the refresh daemon;
* **scheduling policy** — :mod:`repro.sim.policy` decides which resource
  queue each dispatch class waits in (read-first by default, Table II);
* **op pipeline** — :mod:`repro.sim.pipeline` runs each physical op
  through a plan compiled from its declarative stages (sense/transfer/ECC
  for reads, transfer/program for writes, adjust/erase for internal ops).
  Each host page op goes through ``SsdSimulator._issue`` into a fresh
  pipeline, except that the pages of an unobserved read request with one
  retry count run no pipeline: each is submitted to its die and channel
  directly, and the request completes with one ECC event (see
  ``SsdSimulator._launch_request``); a GC / refresh pass is one ``_InternalChain`` over the FTL's
  :class:`~repro.ftl.ops.OpTable`, a pipeline re-armed for each of its
  ops, which also commits clean adjusts and routes faulted ops to
  recovery as they end.  Where nothing else is due before its ops would
  end, a chain serves them as one *quiet run*, computed on the table's
  plan columns as arrays, and one event resumes the chain (see
  :class:`_InternalChain`);
* **resources** — contended dies and channels, where all queueing
  behaviour comes from;
* **FTL** — reached only through the :class:`FlashTranslation` protocol
  (:mod:`repro.ftl.ops`): logical state transitions are applied eagerly
  at dispatch and come back as :class:`PhysOp` sequences (a refresh
  tick's as one :class:`~repro.ftl.ops.OpTable`).

Approximation note (shared with DiskSim-class simulators): because FTL
metadata transitions are applied eagerly at dispatch, a page relocated
by refresh is readable at its new location while the physical moves are
still queued; the *load* of those moves is fully accounted on the
resources either way.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.coding import GrayCoding
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..flash.errors import ReadRetryModel
from ..flash.geometry import Geometry
from ..flash.timing import TimingSpec
from ..ftl.ftl import Ftl
from ..ftl.gc import GcPolicy
from ..ftl.ops import (
    ADJUST_CODE,
    OP_KINDS,
    READ_CODE,
    FlashTranslation,
    OpKind,
    OpTable,
    PhysOp,
)
from ..ftl.refresh import RefreshPolicy
from ..obs.instruments import Telemetry
from .drivers import check_lpns, run_closed_loop, run_open_loop
from .engine import SimEngine
from .metrics import SimMetrics
from .pipeline import (
    OpPipeline,
    OpPlan,
    OpRecord,
    RequestRecord,
    adjust_stages,
    erase_stages,
    read_stages,
    write_stages,
)
from .policy import queue_classes
from .resources import (
    IoPriority,
    Resource,
    aggregate_queue_waits,
    mean_utilisation,
)
from .scheduler import HostRequest, RequestCompletion, TransferHandoff

__all__ = ["SsdSimulator"]

# Enum members bound once: ``OpKind.READ`` is a class-attribute lookup
# through the enum metaclass on every access, ``_READ`` a global.
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_ADJUST = OpKind.ADJUST
_HOST_READ = IoPriority.HOST_READ
_HOST_WRITE = IoPriority.HOST_WRITE
_INTERNAL = IoPriority.INTERNAL


def run_instants(start_us: float, increments: np.ndarray) -> np.ndarray:
    """The instants of back-to-back ops, from their time increments.

    Row ``i`` of ``increments`` (an ``(n, 3)`` float array, overwritten
    and returned) is op ``i``'s first-stage, second-stage and
    latency-stage durations (``0.0`` for an absent stage).  Row ``i`` of
    the result holds its first-stage end, last resource-stage end and
    end, which is also the next op's issue instant, with op ``0`` issued
    at ``start_us``.  One ``np.cumsum``: it accumulates left to right,
    and adding a ``0.0`` filler is exact, so every instant is the float
    the per-op loop computes.
    """
    flat = increments.reshape(-1)
    flat[0] += start_us
    np.cumsum(flat, out=flat)
    return increments


def ordered_sums(seeds: list[float], slots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``seeds[slot] += value`` for each ``(slot, value)`` pair, in order.

    ``np.add.at`` applies the additions one at a time in index order, so
    each slot's sum is the float a left-to-right loop of ``+=`` gives.
    """
    sums = np.array(seeds, dtype=np.float64)
    np.add.at(sums, slots, values)
    return sums


class _InternalChain(OpPipeline):
    """One GC / refresh pass: an op pipeline re-armed for each of its ops.

    The pass arrives as an :class:`~repro.ftl.ops.OpTable`, and the chain
    derives its plan columns once: each row's compiled plan and kind as
    Python lists (what the per-op path reads), and each row's plan id
    into per-plan arrays of first and second resource and ``(first_us,
    second_us, latency_us)`` increments (what a quiet run reads).

    A chain has exactly one op in flight, so it is itself the pipeline
    its ops run through: :meth:`issue_next` sets the inherited ``plan``
    and ``obs`` slots for the next op and calls :meth:`OpPipeline.start`,
    and the op's stages advance through the same boundary methods a host
    op's do.  A :class:`~repro.ftl.ops.PhysOp` is built only for an
    injector or profiler.  When an op ends, :meth:`_complete` runs its
    fault recovery or commits a clean adjust, and the chain goes on at
    once.

    **Quiet runs.**  At a *safe point* — see :meth:`_op_done` — the chain
    may serve its next ops at once instead (:meth:`_serve_run`): while an
    op's die and channel are idle with nothing queued and the op would
    end strictly before :meth:`SimEngine.horizon`, no other event can
    fire before it ends, so its every stage is a resource's idle fast
    start and its times are known now.  Nothing else happens until the
    run ends, so each resource stays idle or busy for the whole run, and
    the run is a function of the columns:

    * the instants are one :func:`run_instants` per window of ops;
    * the run stops at a ``searchsorted`` of the ends against the
      horizon, or at the first op that meets a resource busy at the
      run's start;
    * each resource's ``busy_us`` and ``busy_us_by_class`` come from
      :func:`ordered_sums`, its ops served from a ``bincount``, and its
      last service window from its last stage;
    * the run's adjusts are committed in one batch
      (:meth:`_complete_run`), and a profiled run feeds each op's
      :class:`OpRecord` from the same instants.

    One event at the last op's end resumes the chain.  A chain's first op
    is always issued per op: the caller of
    :meth:`SsdSimulator.issue_internal_sequence` may still schedule work
    at this instant.  A bound fault plan keeps runs from starting, since
    the injector counts, fails or cuts power at each op's own dispatch
    instant.
    """

    __slots__ = (
        "sim",
        "table",
        "pos",
        "kinds",
        "plans",
        "_plan_ids",
        "_plan_slots",
        "_plan_increments",
        "_adjusts",
    )

    #: Ops a run times in its first window; later windows grow 4x, to at
    #: most ``_MAX_WINDOW``: the work stays proportional to the run, not
    #: to the ops left, and the temporaries stay small.
    _WINDOW = 64
    _MAX_WINDOW = 4096

    def __init__(self, sim: "SsdSimulator", table: OpTable) -> None:
        super().__init__(
            sim.engine, None, _INTERNAL, sim._queue_of[_INTERNAL], self._op_done
        )
        self.sim = sim
        self.table = table
        #: The next op to issue or serve (the op in flight is ``pos - 1``).
        self.pos = 0
        kinds = table.kind
        self.kinds = kinds.tolist()
        # One plan per (kind, plane, senses), looked up through the op of
        # its first row; only reads vary with senses.
        senses = np.where(kinds == READ_CODE, table.senses, 0)
        width = int(senses.max()) + 1
        keys = (
            kinds * sim.geometry.total_planes + table.block // sim._blocks_per_plane
        ) * width + senses
        firsts = np.full(len(OP_KINDS) * sim.geometry.total_planes * width, len(keys))
        np.minimum.at(firsts, keys, np.arange(len(keys)))
        present = np.flatnonzero(firsts < len(keys))
        plans = [sim._plan_of(table.op(row), 0) for row in firsts[present].tolist()]
        ids = np.empty(len(firsts), dtype=np.int32)
        ids[present] = np.arange(len(present))
        self._plan_ids = ids = ids[keys]
        self.plans = list(map(plans.__getitem__, ids.tolist()))
        slot_of = sim._slot_of
        #: ``(first, second)`` resource slot of each plan.
        self._plan_slots = np.array(
            [(slot_of[plan.first], slot_of[plan.second]) for plan in plans]
        )
        self._plan_increments = np.array(
            [(plan.first_us, plan.second_us, plan.latency_us or 0.0) for plan in plans]
        )
        self._adjusts = np.flatnonzero(kinds == ADJUST_CODE)

    def issue_next(self) -> None:
        """Dispatch the chain's next op (the injector may fail it)."""
        sim = self.sim
        index = self.pos
        self.pos = index + 1
        faults, profiler = sim.faults, sim.profiler
        self.obs = None
        if faults is not None or profiler is not None:
            op = self.table.op(index)
            fault = faults.on_dispatch(op, False) if faults is not None else None
            if profiler is not None or fault is not None:
                self.obs = OpRecord(op, 0, _INTERNAL, None, profiler, fault)
        self.plan = self.plans[index]
        sim.ops_dispatched += 1
        self.start()

    def _op_done(self, start_us: float, end_us: float) -> None:
        """The op in flight ended: account for it, then go on.

        The op's end is a safe point unless its last stage ran on a
        resource with ops queued: ``Resource._finish`` starts the next of
        them once this returns, and a run planned now would not see that
        op's events.
        """
        self._complete(self.pos - 1, start_us, end_us)
        if self.pos == len(self.plans):
            # Drop the self-reference so the finished chain is freed now.
            self.on_done = None
            return
        plan = self.plan
        if plan.latency_us is None:
            queues = (plan.first if plan.second is None else plan.second)._queues
            if queues[0] or queues[1] or queues[2]:
                # Not a safe point: issue the next op synchronously inside
                # the completion callback, as the per-op chain does.
                self.issue_next()
                return
        self._resume()

    def _complete(self, index: int, start_us: float, end_us: float) -> None:
        """Op ``index`` ended on the per-op path: run its fault recovery
        or commit a clean adjust."""
        obs = self.obs
        if obs is not None and obs.fault is not None:
            self.sim.faults.recover(obs, end_us)
        elif self.kinds[index] == ADJUST_CODE:
            # A clean adjust writes its on-flash commit record, which
            # clears its journal row.  This runs with or without a
            # fault plan: the journal columns are always maintained, so
            # a crash-free run leaves no stale intents behind for a
            # later mount to misread.
            _, block, _, _, _, wordline = self.table.rows()[index].tolist()
            self.sim.ftl.commit_adjust(block, None if wordline < 0 else wordline)

    def _complete_run(self, lo: int, times: np.ndarray) -> None:
        """Ops ``lo``, ``lo + 1``, ... ended in a quiet run, at the
        :func:`run_instants` ``times``: commit their adjusts in one batch
        (a run serves no faulted op)."""
        first, last = self._adjusts.searchsorted((lo, lo + len(times)))
        if first < last:
            adjusts = self._adjusts[first:last]
            table = self.table
            self.sim.ftl.commit_adjusts(table.block[adjusts], table.wordline[adjusts])

    def _resume(self) -> None:
        """At a safe point: serve a quiet run, or else issue the next op.

        Also the event a finished chain's last run posts, where it does
        nothing.
        """
        if self.pos < len(self.plans) and (
            self.sim.faults is not None or not self._serve_run()
        ):
            self.issue_next()

    def _serve_run(self) -> bool:
        """Serve every next op that ends before the horizon, as arrays.

        Returns ``False``, having changed nothing, when not even the next
        op fits (checked on scalars first: most calls serve nothing);
        otherwise posts the event that resumes the chain.
        """
        sim = self.sim
        engine = sim.engine
        horizon = engine.horizon()
        pos = self.pos
        plan = self.plans[pos]
        first = plan.first
        queues = first._queues
        if first._on_done is not None or queues[0] or queues[1] or queues[2]:
            return False
        second = plan.second
        if second is not None:
            queues = second._queues
            if second._on_done is not None or queues[0] or queues[1] or queues[2]:
                return False
        start = engine.now
        # ``run_instants``' floats for this op: a ``0.0`` second stage adds
        # nothing, and the latency stage is added only when present.
        end = start + plan.first_us + plan.second_us
        if plan.latency_us is not None:
            end += plan.latency_us
        if not end < horizon:
            return False
        # Nothing fires before the horizon, so a resource idle with empty
        # queues now stays so until then, but for this run's own stages
        # (which leave it idle: no completion is posted).
        busy = np.array(
            [r._on_done is not None or any(r._queues) for r in sim._resources]
            + [False]
        )
        blocked = busy[self._plan_slots].any(axis=1)
        plan_ids = self._plan_ids
        total = len(plan_ids)
        # Row ``i`` holds op ``pos + i``'s instants once its window ran.
        out = np.empty((total - pos, 3))
        lo = pos
        width = self._WINDOW
        while True:
            ids = plan_ids[lo : lo + width]
            times = out[lo - pos : lo - pos + len(ids)]
            self._plan_increments.take(ids, axis=0, out=times)
            run_instants(start, times)
            fits = int(times[:, 2].searchsorted(horizon))
            stuck = blocked[ids[:fits]]
            if stuck.any():
                fits = int(stuck.argmax())
            if fits:
                self._credit(ids[:fits], start, times[:fits])
            lo += fits
            if fits < len(ids) or lo == total:
                break
            start = times[-1, 2]
            width = min(4 * width, self._MAX_WINDOW)
        times = out[: lo - pos]
        if sim.profiler is not None:
            self._profile(pos, engine.now, times)
        self.pos = lo
        sim.ops_dispatched += lo - pos
        self._complete_run(pos, times)
        if lo == total:
            self.on_done = None
        # The resume event, at the last op's end: the next op's issue
        # instant or, when the chain is done, where the per-op path
        # leaves the clock and ``elapsed_us``.
        engine.push(float(times[-1, 2]), self._resume)
        return True

    def _credit(self, ids: np.ndarray, start: float, times: np.ndarray) -> None:
        """Account the stages of ops of plans ``ids``, the first issued
        at ``start``, on their resources (:meth:`Resource.credit_run`)."""
        # Stage ``2 * i`` is op ``i``'s first, ``2 * i + 1`` its second
        # (on the filler slot past the last resource when absent).
        slots = self._plan_slots[ids].reshape(-1)
        durations = self._plan_increments[ids, :2].reshape(-1)
        starts = np.empty((len(ids), 2))
        starts[0, 0] = start
        starts[1:, 0] = times[:-1, 2]
        starts[:, 1] = times[:, 0]
        resources = self.sim._resources
        busy_us = ordered_sums(
            [r.busy_us for r in resources] + [0.0], slots, durations
        ).tolist()
        by_class = ordered_sums(
            [r.busy_us_by_class[_INTERNAL] for r in resources] + [0.0],
            slots,
            durations,
        ).tolist()
        served = np.bincount(slots, minlength=len(resources) + 1).tolist()
        # Each resource's last stage sets its service window.
        last = np.zeros(len(resources) + 1, dtype=np.intp)
        np.maximum.at(last, slots, np.arange(len(slots)))
        start_us = starts.reshape(-1)[last].tolist()
        end_us = times[:, :2].reshape(-1)[last].tolist()
        for slot, resource in enumerate(resources):
            if served[slot]:
                resource.credit_run(
                    _INTERNAL,
                    busy_us[slot],
                    by_class[slot],
                    served[slot],
                    start_us[slot],
                    end_us[slot],
                )

    def _profile(self, pos: int, start: float, times: np.ndarray) -> None:
        """Feed each op of a run its :class:`OpRecord` stages (no request
        or fault to join: the record only feeds the profiler)."""
        profiler = self.sim.profiler
        for index, (mid, done, end) in enumerate(times.tolist(), pos):
            plan = self.plans[index]
            bounds = [start, mid]
            if plan.second is not None:
                bounds.append(done)
            if plan.latency_us is not None:
                bounds.append(end)
            record = OpRecord(self.table.op(index), 0, _INTERNAL, None, profiler)
            for i, stage in enumerate(plan.stages):
                record.note_stage(stage, bounds[i], bounds[i], bounds[i + 1])
            start = end


class SsdSimulator:
    """Event-driven SSD with an (optionally IDA-enabled) FTL.

    Args:
        geometry: Device topology.
        timing: Operation latencies.
        coding: Conventional cell coding.
        refresh_policy: Baseline or IDA refresh configuration.
        gc_policy: GC watermarks.
        retry_model: Per-read retry sampler (Fig. 11 lifetime phases);
            ``None`` or ``fail_prob = 0`` disables retries.
        seed: RNG seed for disturb and retry sampling.
        allocation: Static allocation strategy name.
        policy: Scheduling policy name, a key of
            :data:`~repro.sim.policy.POLICIES`: ``"read-first"`` (the
            paper's Table II default) or ``"fcfs"``.
        faults: Optional :class:`~repro.faults.FaultPlan`; when given, a
            :class:`~repro.faults.FaultInjector` is bound to this
            simulator (timed events scheduled, FTL recovery armed, op
            dispatch matched against the plan's ordinals).  ``None`` —
            the default — costs one ``is None`` check per dispatched op.
            Faults change results, so they stay apart from telemetry.
        telemetry: Optional :class:`~repro.obs.instruments.Telemetry`
            bundling the run's passive instruments (tracer, interval
            collector, profiler, health monitor); it binds them to this
            simulator and brackets each run.  Passive: an instrumented
            run has the same metrics as a bare one, and ``None`` — the
            default — costs one ``is None`` check per hook site.
        ftl: A pre-built translation layer to adopt instead of building
            one (the power-loss recovery path).
    """

    def __init__(
        self,
        geometry: Geometry,
        timing: TimingSpec,
        coding: GrayCoding,
        refresh_policy: RefreshPolicy,
        gc_policy: GcPolicy | None = None,
        retry_model: ReadRetryModel | None = None,
        seed: int = 1,
        allocation: str = "cwdp",
        policy: str = "read-first",
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
        ftl: FlashTranslation | None = None,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.engine = SimEngine()
        self.metrics = SimMetrics()
        #: The scheduling policy's name.
        self.policy = policy
        # The policy's class -> queue mapping is static; resolve it once
        # instead of per dispatched op.
        self._queue_of = queue_classes(policy)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = self.telemetry.tracer
        self.retry_model = retry_model or ReadRetryModel(fail_prob=0.0)
        # Common random numbers: host reads draw retry counts from a
        # dedicated stream, so paired baseline/IDA runs of the same trace
        # see identical retry sequences (the i-th host page read retries
        # the same number of times in both systems); internal reads never
        # sample retries, so their differing op counts cannot skew it.
        self._host_retry_rng = np.random.default_rng(seed + 101)
        if ftl is not None:
            # Adopt a pre-built translation layer — the power-loss
            # recovery path mounts an FTL from on-flash metadata
            # (:func:`repro.ftl.recovery.mount_device`) and resumes the
            # workload on a fresh simulator around it.
            self.ftl: FlashTranslation = ftl
        else:
            self.ftl = Ftl(
                geometry,
                coding,
                refresh_policy,
                gc_policy=gc_policy,
                rng=np.random.default_rng(seed + 1),
                allocation=allocation,
                tracer=self.tracer,
            )
        self.dies = [
            Resource(self.engine, f"die{d}", kind="die", index=d)
            for d in range(geometry.total_dies)
        ]
        self.channels = [
            Resource(self.engine, f"chan{c}", kind="channel", index=c)
            for c in range(geometry.channels)
        ]
        #: Every resource by slot (dies, then channels); an internal
        #: chain's resource columns index it, and the slot past the last
        #: stands for an absent stage.
        self._resources = self.dies + self.channels
        self._slot_of = {
            resource: slot for slot, resource in enumerate(self._resources)
        }
        self._slot_of[None] = len(self._resources)
        self.ops_dispatched = 0
        #: Optional hook ``fn(request, is_read)`` fired when a host
        #: request fully completes (its acknowledgement instant).  The
        #: crash-consistency harness uses it as the acked-write oracle:
        #: data from any request acknowledged before a power cut must
        #: survive the remount.  ``None`` costs one check per completion.
        self.on_host_request_complete = None
        # Compiled op plans.  Routing is static (block -> plane -> die,
        # channel), so the plan every write, adjust and erase on a plane
        # runs is compiled here, once; planes of one die share them.
        # Reads vary with sense count and retry passes: they are
        # compiled on first use and cached by (plane, senses, retries).
        self._blocks_per_plane = geometry.blocks_per_plane
        self._plane_resources: list[tuple[Resource, Resource]] = []
        self._write_plans: list[OpPlan] = []
        self._adjust_plans: list[OpPlan] = []
        self._erase_plans: list[OpPlan] = []
        die_plans: dict[int, tuple[OpPlan, OpPlan, OpPlan]] = {}
        for plane in range(geometry.total_planes):
            die = self.dies[geometry.die_of_plane(plane)]
            channel = self.channels[geometry.channel_of_plane(plane)]
            plans = die_plans.get(die.index)
            if plans is None:
                plans = die_plans[die.index] = (
                    OpPlan(write_stages(die, channel, timing)),
                    OpPlan(adjust_stages(die, timing)),
                    OpPlan(erase_stages(die, timing)),
                )
            self._plane_resources.append((die, channel))
            self._write_plans.append(plans[0])
            self._adjust_plans.append(plans[1])
            self._erase_plans.append(plans[2])
        self._read_plans: dict[tuple[int, int, int], OpPlan] = {}
        self.faults = FaultInjector(faults) if faults is not None else None
        if self.faults is not None:
            self.faults.bind(self)
        # Passive hooks, set by ``Telemetry.bind`` when an instrument
        # needs them; each costs one ``is None`` check when off.
        self.profiler = None
        self.completion_observer = None
        self.telemetry.bind(self)

    # ------------------------------------------------------------------
    # Preconditioning
    # ------------------------------------------------------------------
    def preload(self, lpns: Iterable[int], start_us: float, end_us: float) -> None:
        """Untimed fill of the given LPNs, program times spread linearly.

        Spreading program times over ``[start_us, end_us)`` (typically one
        refresh period before the trace starts) staggers block refresh
        ages so refresh events do not all fire at once.

        Raises:
            ValueError: if an LPN lies outside ``0 <= lpn < total_pages``.
        """
        lpn_list = list(lpns)
        check_lpns("preload", lpn_list, self.geometry.total_pages)
        if not lpn_list:
            return
        step = (end_us - start_us) / len(lpn_list)
        times = start_us + np.arange(len(lpn_list), dtype=np.float64) * step
        self.ftl.apply_untimed_batch(lpn_list, times)

    def age(self, lpns: Iterable[int], pseudo_now_us: float) -> None:
        """Untimed update writes — creates the invalid lower pages IDA needs.

        Raises:
            ValueError: if an LPN lies outside ``0 <= lpn < total_pages``.
        """
        lpn_list = list(lpns)
        check_lpns("age", lpn_list, self.geometry.total_pages)
        self.ftl.apply_untimed_batch(lpn_list, pseudo_now_us)

    # ------------------------------------------------------------------
    # Trace execution (delegates to the workload drivers)
    # ------------------------------------------------------------------
    def run_requests(
        self,
        requests: list[HostRequest],
        background_updates: list[tuple[float, list[int]]] | None = None,
    ) -> SimMetrics:
        """Replay a timed stream open-loop (see :func:`drivers.run_open_loop`)."""
        return run_open_loop(self, requests, background_updates)

    def run_closed_loop(
        self,
        requests: list[HostRequest],
        queue_depth: int = 32,
        background_updates: list[tuple[float, list[int]]] | None = None,
    ) -> SimMetrics:
        """Fixed-queue-depth run (see :func:`drivers.run_closed_loop`)."""
        return run_closed_loop(self, requests, queue_depth, background_updates)

    # ------------------------------------------------------------------
    # Host dispatch
    # ------------------------------------------------------------------
    def dispatch_read(self, request: HostRequest, on_request_done=None) -> None:
        """Fan one host read out into per-page reads (see
        :meth:`_launch_request`)."""
        now = self.engine.now
        host_read = self.ftl.host_read
        ops = [host_read(lpn, now) for lpn in request.lpns]
        record = self.metrics.read_mix.record
        for op in ops:
            record(op.bit, op.wl_validity, op.from_ida)
        self._launch_request(request, ops, on_request_done)

    def dispatch_write(self, request: HostRequest, on_request_done=None) -> None:
        """Fan one host write out into page programs (plus any GC work)."""
        now = self.engine.now
        host_ops: list[PhysOp] = []
        for lpn in request.lpns:
            result = self.ftl.host_write(lpn, now)
            host_ops.extend(result.host_ops)
            self.issue_internal_sequence(result.internal_ops)
        self._launch_request(request, host_ops, on_request_done)

    def _launch_request(
        self, request: HostRequest, ops: list[PhysOp], on_request_done
    ) -> None:
        """Issue one host request's page ops under one
        :class:`~repro.sim.scheduler.RequestCompletion`.

        Each page runs :meth:`_issue`, except that a read request nothing
        observes (no tracer, profiler or fault plan) whose pages all drew
        one retry count is *folded* (:meth:`_launch_folded`): its pages
        run no pipeline, and the last transfer posts one request-level
        ECC event at ``end + ecc latency``, in the same callback and with
        the same float as the per-page path's last ECC event, so every
        other event keeps its ``(time, seq)`` slot (see
        ``docs/architecture.md``).
        """
        observed = self.tracer.enabled or self.profiler is not None
        record = RequestRecord(request) if observed else None
        completion = RequestCompletion(self, request, len(ops), record, on_request_done)
        if not request.is_read:
            retries = [0] * len(ops)
        elif self.faults is not None:
            # Drawn at each page's own dispatch, after the injector has
            # counted it (a power cut may fire there).
            retries = [None] * len(ops)
        else:
            retries = self._draw_retries(ops)
            if record is None and retries.count(retries[0]) == len(ops):
                self._launch_folded(completion, ops, retries[0])
                return
        klass = _HOST_READ if request.is_read else _HOST_WRITE
        for op, op_retries in zip(ops, retries):
            self._issue(op, klass, completion.page_done, record, op_retries)

    def _launch_folded(
        self, completion: RequestCompletion, ops: list[PhysOp], retries: int
    ) -> None:
        """Run a folded read request: senses, transfers, one ECC event."""
        plans, per_plane = self._read_plans, self._blocks_per_plane
        queue = self._queue_of[_HOST_READ]
        handoffs: dict[Resource, TransferHandoff] = {}
        self.ops_dispatched += len(ops)
        for op in ops:
            key = (op.block_index // per_plane, op.senses, retries)
            plan = plans.get(key) or self._plan_of(op, retries)
            handoff = handoffs.get(plan.second)
            if handoff is None:
                handoff = handoffs[plan.second] = TransferHandoff(
                    plan.second, plan.second_us, completion, queue
                )
            plan.first.submit(_HOST_READ, plan.first_us, handoff.sensed, queue)
        # Every page shares it, and no transfer ends before this returns.
        completion.latency_us = plan.latency_us

    # ------------------------------------------------------------------
    # Op issue (policy + pipeline)
    # ------------------------------------------------------------------
    def issue_internal_sequence(self, ops: OpTable | list[PhysOp]) -> None:
        """Run internal (GC / refresh) ops one after another.

        A refresh or GC pass is a background *process* that works through
        its pages sequentially — issuing its operations as a chain (each
        submitted when the previous completes) spreads the load over time
        instead of flooding every die queue at the scan instant.  Host
        reads still overtake each queued internal op via priority.  The
        first op is issued here on the per-op path; later ones may be
        served in quiet runs (see :class:`_InternalChain`).  A refresh
        tick arrives as an :class:`~repro.ftl.ops.OpTable`; a GC or
        fault-recovery list is converted to one.
        """
        if ops:
            if not isinstance(ops, OpTable):
                ops = OpTable.of(ops)
            _InternalChain(self, ops).issue_next()

    def _issue(
        self,
        op: PhysOp,
        klass: IoPriority,
        on_done,
        request: RequestRecord | None,
        retries: int | None,
    ) -> None:
        """Run one host page op through its compiled plan.

        ``request`` is the observed request's record (``None`` when no
        tracer or profiler watches).  ``retries`` is the read's drawn
        retry count (``0`` for a write), or ``None`` for a host read
        under a fault plan, which draws it here, after the injector has
        seen the op.
        """
        fault = (
            self.faults.on_dispatch(op, klass is _HOST_READ)
            if self.faults is not None
            else None
        )
        if retries is None:
            retries = self._read_retries(op, fault)
        plan = self._plan_of(op, retries)
        self.ops_dispatched += 1
        obs = None
        # A profiler always comes with a request record.
        if request is not None or fault is not None:
            obs = OpRecord(op, retries, klass, request, self.profiler, fault)
            if fault is not None:
                on_done = self.faults.wrap_completion(obs, on_done)
        OpPipeline(
            self.engine, plan, klass, self._queue_of[klass], on_done, obs
        ).start()

    def _draw_retries(self, ops: list[PhysOp]) -> list[int]:
        """Retry counts of a host read request's pages, drawn in page order."""
        if not self.retry_model.fail_prob:
            # ``sample_retries`` draws nothing and returns 0.
            return [0] * len(ops)
        return [self._read_retries(op, None) for op in ops]

    def _read_retries(self, op: PhysOp, fault) -> int:
        """Draw one host page read's retry count and account for it.

        Retention-induced read retries hit long-stored data, i.e. host
        reads.  Refresh-internal reads either target data about to be
        rewritten anyway or verify *freshly reprogrammed* pages whose
        RBER is far below the retry threshold, so they decode hard (an
        internal chain plans every read with no retries).
        """
        retries = self.retry_model.sample_retries(
            self._host_retry_rng, senses=op.senses
        )
        if fault is not None:
            # Retry-ladder exhaustion: the CRN draws above are consumed
            # exactly as usual (paired runs stay in step), then the
            # ladder is forced to its full length — the read decodes
            # only via outer protection, handled at completion.
            retries = self.retry_model.max_retries
        if retries:
            self.metrics.read_retries += retries
            if self.faults is not None:
                self.faults.note_read_retries(op, retries)
        return retries

    def _plan_of(self, op: PhysOp, retries: int) -> OpPlan:
        """The compiled plan ``op`` runs; a read senses ``1 + retries`` times."""
        plane = op.block_index // self._blocks_per_plane
        kind = op.kind
        if kind is _READ:
            key = (plane, op.senses, retries)
            plan = self._read_plans.get(key)
            if plan is None:
                die, channel = self._plane_resources[plane]
                plan = self._read_plans[key] = OpPlan(
                    read_stages(die, channel, self.timing, op.senses, 1 + retries)
                )
            return plan
        if kind is _WRITE:
            return self._write_plans[plane]
        if kind is _ADJUST:
            return self._adjust_plans[plane]
        return self._erase_plans[plane]

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def utilisation_report(self) -> dict[str, float]:
        """Mean die and channel utilisation over the simulated span.

        Useful for checking which resource bounds a configuration: with
        Table II's 16 dies per channel, heavy sequential loads can shift
        the bottleneck from the sense stage to the channel transfers,
        which dilutes any sense-time optimisation (see EXPERIMENTS.md).
        """
        elapsed = self.metrics.elapsed_us
        if elapsed <= 0:
            return {"die": 0.0, "channel": 0.0}
        return {
            "die": mean_utilisation(self.dies, elapsed),
            "channel": mean_utilisation(self.channels, elapsed),
        }

    def queue_wait_report(self) -> dict[str, dict[str, dict[str, float]]]:
        """Queue-wait totals per resource class and dispatch priority.

        One entry per priority class across all dies (and all channels):
        ops served, total wait, mean wait (Sec. V-A's "queueing at
        chips/channels" attribution).
        """
        return {
            "die": aggregate_queue_waits(self.dies),
            "channel": aggregate_queue_waits(self.channels),
        }

    def fold_counters(self) -> None:
        """Merge FTL counters and dispatch totals into the run metrics."""
        counters = self.ftl.counters
        self.metrics.phys_ops_dispatched = self.ops_dispatched
        self.metrics.gc_invocations = counters.gc_invocations
        self.metrics.gc_page_moves = counters.gc_page_moves
        self.metrics.block_erases = counters.block_erases
        self.metrics.refresh_invocations = counters.refresh_invocations
        self.metrics.refresh_page_moves = counters.refresh_page_moves
        self.metrics.refresh_adjusted_wordlines = counters.refresh_adjusted_wordlines
        self.metrics.refresh_reprogrammed_pages = counters.refresh_reprogrammed_pages
        self.metrics.refresh_corrupted_pages = counters.refresh_corrupted_pages
        self.metrics.refresh_extra_reads = counters.refresh_reprogrammed_pages
        self.metrics.unmapped_reads = counters.unmapped_reads
        self.metrics.program_failures = counters.program_failures
        self.metrics.erase_failures = counters.erase_failures
        self.metrics.grown_bad_blocks = counters.grown_bad_blocks
        self.metrics.uncorrectable_reads = counters.uncorrectable_reads
        self.metrics.read_reclaims = counters.read_reclaims
        self.metrics.torn_adjust_recoveries = counters.torn_adjust_recoveries
        self.metrics.die_failures = counters.die_failures
        self.metrics.fault_page_moves = counters.fault_page_moves

    def fault_summary(self) -> dict | None:
        """The bound injector's plan/event account; ``None`` without one."""
        return None if self.faults is None else self.faults.summary()
