"""SSD simulator orchestration: requests in, staged op pipelines out.

The simulator is a thin conductor over the layered architecture (see
``docs/architecture.md``):

* **workload drivers** — :mod:`repro.sim.drivers` feed timed request
  streams (open- or closed-loop) and tick the refresh daemon;
* **scheduling policy** — :mod:`repro.sim.policy` decides which resource
  queue each dispatch class waits in and how internal traffic is paced
  (read-first by default, Table II);
* **op pipeline** — :mod:`repro.sim.pipeline` walks each physical op
  through its declarative stages (sense/transfer/ECC for reads,
  transfer/program for writes, adjust/erase for internal ops);
* **resources** — contended dies and channels, where all queueing
  behaviour comes from;
* **FTL** — reached only through the :class:`FlashTranslation` protocol
  (:mod:`repro.ftl.ops`): logical state transitions are applied eagerly
  at dispatch and come back as :class:`PhysOp` sequences.

Approximation note (shared with DiskSim-class simulators): because FTL
metadata transitions are applied eagerly at dispatch, a page relocated
by refresh is readable at its new location while the physical moves are
still queued; the *load* of those moves is fully accounted on the
resources either way.
"""

from __future__ import annotations

from collections import deque
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
from ..ftl.ops import FlashTranslation, OpKind, PhysOp
from ..ftl.refresh import RefreshPolicy
from ..obs.interval import IntervalCollector
from ..obs.tracer import NULL_TRACER, Tracer
from .accel import publish_accel_state
from .backends import ExecutionBackend, make_backend
from .drivers import run_closed_loop, run_open_loop
from .engine import SimEngine
from .metrics import SimMetrics
from .pipeline import (
    OpPipeline,
    PageRecord,
    RequestSpan,
    adjust_stages,
    erase_stages,
    read_stages,
    write_stages,
)
from .policy import SchedulingPolicy, make_policy
from .resources import (
    IoPriority,
    Resource,
    aggregate_queue_waits,
    mean_utilisation,
)
from .scheduler import HostRequest, OutstandingRequest

__all__ = ["SsdSimulator"]


class _InternalChain:
    """One GC / refresh pass issuing its ops one after another.

    Each op is submitted when the previous one completes; a throttling
    policy's idle gap sits between them.
    """

    __slots__ = ("sim", "ops", "gap_us")

    def __init__(self, sim: "SsdSimulator", ops: list[PhysOp], gap_us: float) -> None:
        self.sim = sim
        self.ops = deque(ops)
        self.gap_us = gap_us

    def issue_next(self) -> None:
        self.sim._issue(self.ops.popleft(), IoPriority.INTERNAL, self._op_done)

    def _op_done(self, start_us: float, end_us: float) -> None:
        if not self.ops:
            return
        if self.gap_us > 0.0:
            engine = self.sim.engine
            engine.push(engine.now + self.gap_us, self.issue_next)
        else:
            # With no gap the next op issues synchronously inside the
            # completion callback — same event ordering as a direct chain.
            self.issue_next()


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
        policy: Scheduling policy instance or registry name
            (``"read-first"`` / ``"fcfs"`` / ``"throttled"``); ``None``
            selects the paper's read-first default.
        backend: Execution backend instance or registry name
            (``"reference"`` / ``"batch"``, see
            :mod:`repro.sim.backends`); ``None`` selects the
            event-at-a-time reference.  Backends change only run
            mechanics — metrics and traces are byte-identical.
        tracer: Structured event tracer; ``None`` = tracing disabled
            (the null fast path).  Tracing is passive: it never schedules
            events, touches RNG streams, or alters metrics.
        collector: Optional interval time-series collector; bound to
            this simulator's engine and resources, started per run.
        profiler: Optional :class:`~repro.obs.profiler.SimProfiler`;
            bound like the collector and fed stage boundaries, request
            completions and (via the collector's cadence) interval
            samples.  Passive — ``None`` costs one check per boundary.
        faults: Optional :class:`~repro.faults.FaultPlan`; when given, a
            :class:`~repro.faults.FaultInjector` is bound to this
            simulator (timed events scheduled, FTL recovery armed, op
            dispatch matched against the plan's ordinals).  ``None`` —
            the default — costs one ``is None`` check per dispatched op,
            the same zero-cost off-path discipline as the observability
            hooks.
        health: Optional :class:`~repro.obs.health.HealthMonitor`; bound
            to this simulator and sampled on the collector's cadence
            (pass a ``collector`` too, or no snapshots close).  When the
            monitor carries a metrics registry, the simulator and FTL
            additionally publish live counters/histograms into it
            (per-class latency, read retries, GC/refresh/wear activity).
            Passive and ``None``-cost like every other hook.
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
        policy: SchedulingPolicy | str | None = None,
        tracer: Tracer | None = None,
        collector: IntervalCollector | None = None,
        profiler=None,
        faults: FaultPlan | None = None,
        health=None,
        backend: ExecutionBackend | str | None = None,
        ftl: FlashTranslation | None = None,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.engine = SimEngine()
        self.metrics = SimMetrics()
        self.policy = make_policy(policy)
        self.backend = make_backend(backend)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.collector = collector
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
        self.profiler = profiler if (profiler is not None and profiler.enabled) else None
        if self.profiler is not None:
            self.profiler.bind(self.engine, self.dies, self.channels)
        self.ops_dispatched = 0
        #: Optional hook ``fn(request, is_read)`` fired when a host
        #: request fully completes (its acknowledgement instant).  The
        #: crash-consistency harness uses it as the acked-write oracle:
        #: data from any request acknowledged before a power cut must
        #: survive the remount.  ``None`` costs one check per completion.
        self.on_host_request_complete = None
        # The policy's class -> queue mapping is static; resolve it once
        # instead of per dispatched op.
        self._queue_of = tuple(self.policy.queue_class(k) for k in IoPriority)
        # Compiled op plans.  Routing is static (block -> plane -> die,
        # channel), so the stage tuple every write, adjust and erase on
        # a plane walks is compiled here, once; planes of one die share
        # them.  Reads vary with sense count and retry passes: they are
        # compiled on first use and cached by (plane, senses, retries).
        self._plane_resources: list[tuple[Resource, Resource]] = []
        self._fixed_plans: list[dict[OpKind, tuple]] = []
        die_plans: dict[int, dict[OpKind, tuple]] = {}
        for plane in range(geometry.total_planes):
            die = self.dies[geometry.die_of_plane(plane)]
            channel = self.channels[geometry.channel_of_plane(plane)]
            plans = die_plans.get(die.index)
            if plans is None:
                plans = die_plans[die.index] = {
                    OpKind.WRITE: write_stages(die, channel, timing),
                    OpKind.ADJUST: adjust_stages(die, timing),
                    OpKind.ERASE: erase_stages(die, timing),
                }
            self._plane_resources.append((die, channel))
            self._fixed_plans.append(plans)
        self._read_plans: dict[tuple[int, int, int], tuple] = {}
        if self.collector is not None:
            self.collector.bind(self.engine, self.dies, self.channels)
            # Utilization/queue-depth timelines ride the collector's
            # sampling cadence; without a collector the profiler still
            # attributes latency, it just has no timeline.
            if self.profiler is not None:
                self.collector.attach_profiler(self.profiler)
        self.faults = FaultInjector(faults) if faults is not None else None
        if self.faults is not None:
            self.faults.bind(self)
        # Device-health telemetry: the monitor samples on the collector's
        # cadence; a registry riding on it additionally receives live
        # per-class latency and retry publishes from the hot path (one
        # ``is None`` check each when telemetry is off).
        self.health = health
        self._lat_read = None
        self._lat_write = None
        self._retry_counter = None
        if self.health is not None:
            self.health.bind(self)
            if self.collector is not None:
                self.collector.attach_health(self.health)
            registry = self.health.registry
            if registry is not None:
                latency = registry.histogram(
                    "host_latency_us",
                    "host request response time",
                    labels=("request_class",),
                )
                self._lat_read = latency.labels(request_class="read")
                self._lat_write = latency.labels(request_class="write")
                self._retry_counter = registry.counter(
                    "flash_read_retries_total",
                    "extra sensing passes forced by failed LDPC decodes",
                ).unlabeled
                self.ftl.bind_telemetry(registry)
                publish_accel_state(registry)

    # ------------------------------------------------------------------
    # Preconditioning
    # ------------------------------------------------------------------
    def preload(self, lpns: Iterable[int], start_us: float, end_us: float) -> None:
        """Untimed fill of the given LPNs, program times spread linearly.

        Spreading program times over ``[start_us, end_us)`` (typically one
        refresh period before the trace starts) staggers block refresh
        ages so refresh events do not all fire at once.
        """
        lpn_list = list(lpns)
        if not lpn_list:
            return
        step = (end_us - start_us) / len(lpn_list)
        times = start_us + np.arange(len(lpn_list), dtype=np.float64) * step
        self.backend.apply_untimed(self, lpn_list, times)

    def age(self, lpns: Iterable[int], pseudo_now_us: float) -> None:
        """Untimed update writes — creates the invalid lower pages IDA needs."""
        self.backend.apply_untimed(self, list(lpns), pseudo_now_us)

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
        """Fan one host read out into per-page read pipelines."""
        now = self.engine.now
        ops = [self.ftl.host_read(lpn, now) for lpn in request.lpns]
        for op in ops:
            assert op.bit is not None and op.wl_validity is not None
            self.metrics.read_mix.record(op.bit, op.wl_validity, op.from_ida)
        self._launch_request(
            request, ops, IoPriority.HOST_READ, "read_span", on_request_done
        )

    def dispatch_write(self, request: HostRequest, on_request_done=None) -> None:
        """Fan one host write out into page programs (plus any GC work)."""
        now = self.engine.now
        host_ops: list[PhysOp] = []
        for lpn in request.lpns:
            result = self.ftl.host_write(lpn, now)
            host_ops.extend(result.host_ops)
            self.issue_internal_sequence(result.internal_ops)
        self._launch_request(
            request, host_ops, IoPriority.HOST_WRITE, "write_span", on_request_done
        )

    def _launch_request(
        self,
        request: HostRequest,
        ops: list[PhysOp],
        klass: IoPriority,
        span_kind: str,
        on_request_done,
    ) -> None:
        span = RequestSpan(request) if self.tracer.enabled else None
        prof_ctx = (
            self.profiler.begin_request(
                request.request_id,
                request.arrival_us,
                "read" if klass is IoPriority.HOST_READ else "write",
            )
            if self.profiler is not None
            else None
        )
        stats = (
            self.metrics.read_response
            if klass is IoPriority.HOST_READ
            else self.metrics.write_response
        )
        record_interval = (
            None
            if self.collector is None
            else (
                self.collector.record_read
                if klass is IoPriority.HOST_READ
                else self.collector.record_write
            )
        )
        observe_latency = (
            self._lat_read if klass is IoPriority.HOST_READ else self._lat_write
        )

        def complete(req: HostRequest, now_us: float) -> None:
            response = now_us - req.arrival_us + self.timing.host_overhead_us
            stats.add(response)
            if klass is IoPriority.HOST_READ:
                self.metrics.bytes_read += req.size_bytes
            else:
                self.metrics.bytes_written += req.size_bytes
            if record_interval is not None:
                record_interval(response, req.size_bytes)
            if observe_latency is not None:
                observe_latency.observe(response)
            if span is not None:
                span.emit(self.tracer, span_kind, now_us, self.timing.host_overhead_us)
            if prof_ctx is not None:
                self.profiler.end_request(
                    prof_ctx, now_us, self.timing.host_overhead_us
                )
            if self.on_host_request_complete is not None:
                self.on_host_request_complete(
                    req, klass is IoPriority.HOST_READ
                )
            if on_request_done is not None:
                on_request_done()

        outstanding = OutstandingRequest(request, len(ops), complete)

        def page_done(start_us: float, end_us: float) -> None:
            outstanding.page_done(end_us)

        for op in ops:
            self._issue(op, klass, page_done, span=span, prof_ctx=prof_ctx)

    # ------------------------------------------------------------------
    # Op issue (policy + pipeline)
    # ------------------------------------------------------------------
    def issue_internal_sequence(self, ops: list[PhysOp]) -> None:
        """Run internal (GC / refresh) ops one after another.

        A refresh or GC pass is a background *process* that works through
        its pages sequentially — issuing its operations as a chain (each
        submitted when the previous completes) spreads the load over time
        instead of flooding every die queue at the scan instant.  Host
        reads still overtake each queued internal op via priority; a
        throttling policy additionally inserts an idle gap between the
        chained ops.
        """
        if ops:
            _InternalChain(self, ops, self.policy.internal_gap_us).issue_next()

    def _issue(
        self,
        op: PhysOp,
        klass: IoPriority,
        on_done,
        span: RequestSpan | None = None,
        prof_ctx=None,
    ) -> None:
        """Route one physical op into its stage pipeline."""
        plane = self.geometry.plane_of_block(op.block_index)
        fault = (
            self.faults.on_dispatch(op, klass is IoPriority.HOST_READ)
            if self.faults is not None
            else None
        )
        retries = 0
        if op.kind is OpKind.READ:
            # Retention-induced read retries hit long-stored data, i.e.
            # host reads.  Refresh-internal reads either target data
            # about to be rewritten anyway or verify *freshly
            # reprogrammed* pages whose RBER is far below the retry
            # threshold, so they decode hard.
            if klass is IoPriority.HOST_READ:
                retries = self.retry_model.sample_retries(
                    self._host_retry_rng, senses=op.senses
                )
                if fault is not None:
                    # Retry-ladder exhaustion: the CRN draws above are
                    # consumed exactly as usual (paired runs stay in
                    # step), then the ladder is forced to its full
                    # length — the read decodes only via outer
                    # protection, handled at completion.
                    retries = self.retry_model.max_retries
                if retries:
                    self.metrics.read_retries += retries
                    if self._retry_counter is not None:
                        self._retry_counter.inc(retries)
                    if self.faults is not None:
                        self.faults.note_read_retries(op, retries)
            key = (plane, op.senses, retries)
            stages = self._read_plans.get(key)
            if stages is None:
                die, channel = self._plane_resources[plane]
                stages = self._read_plans[key] = read_stages(
                    die, channel, self.timing, op.senses, 1 + retries
                )
        else:
            stages = self._fixed_plans[plane][op.kind]
        self.ops_dispatched += 1
        record = None
        if span is not None:
            record = PageRecord(
                op.block_index,
                op.page if op.page is not None else -1,
                op.senses,
                retries,
                submit_us=self.engine.now,
            )
        profile = (
            self.profiler.begin_op(klass, prof_ctx)
            if self.profiler is not None
            else None
        )
        if fault is not None:
            on_done = self.faults.wrap_completion(fault, on_done)
        elif op.kind is OpKind.ADJUST:
            # Clean adjust completions write their on-flash commit
            # record and retire any torn-recovery journal intent.  This
            # runs with or without a fault plan: the SPOR journal
            # columns are always maintained, so a crash-free run leaves
            # no stale intents behind for a later mount to misread.
            on_done = self._wrap_adjust_commit(op, on_done)
        OpPipeline(
            self.engine,
            stages,
            klass,
            self._queue_of[klass],
            on_done,
            span,
            record,
            profile,
            fault,
        ).start()

    def _wrap_adjust_commit(self, op: PhysOp, inner):
        """Completion callback committing a clean adjust durably."""

        def completion(start_us: float, end_us: float) -> None:
            self.ftl.commit_adjust(op.block_index, op.wordline)
            inner(start_us, end_us)

        return completion

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
