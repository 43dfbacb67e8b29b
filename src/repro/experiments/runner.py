"""Run one (system, workload) pair and collect everything the artifacts need.

The run protocol, mirroring Sec. IV:

1. build the device and the simulator for the system spec;
2. warm up: sequential fill of the workload footprint with program times
   spread over one refresh period before the trace (staggers refresh
   ages), then the aging updates that create invalid lower pages;
3. replay the timed trace with the refresh daemon active;
4. drain, and report response times, throughput, read-mix and refresh
   accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..faults.plan import FaultPlan
from ..ftl.gc import GcPolicy
from ..ftl.refresh import RefreshPolicy, RefreshReport
from ..obs.instruments import Telemetry
from ..sim.metrics import ReadMixCounters, SimMetrics
from ..sim.scheduler import HostRequest
from ..sim.snapshot import (
    WarmHandle,
    WarmState,
    capture_warm_state,
    restore_warm_state,
)
from ..sim.ssd import SsdSimulator
from ..workloads.synthetic import (
    GeneratedWorkload,
    WorkloadSpec,
    generate_workload,
    sample_update_lpns,
)
from .config import DeviceConfig, RunScale, device
from .systems import SystemSpec

__all__ = [
    "RunResult",
    "RunResultPayload",
    "CapacityCensus",
    "run_workload",
    "run_capacity_phase_pair",
    "normalized_read_response",
    "warm_device",
    "warm_cache_key",
    "prepare_warm_state",
]


@dataclass
class RunResult:
    """Everything one simulation run produced.

    Attributes:
        system: The evaluated system spec.
        workload: The workload spec actually run (after scaling).
        metrics: Simulator metrics (latencies, throughput, counters).
        refresh_reports: Per-block refresh accounting (Table IV).
        in_use_blocks / ida_blocks: Post-run block census (Sec. III-C).
        utilisation: Mean die / channel utilisation over the run.
        queue_wait: Per resource class and priority queue-wait totals.
        scale / seed: The run's scale and RNG seed (for the manifest).
        faults: The fault injector's ``summary()`` (plan + fired events)
            when the run had a :class:`~repro.faults.FaultPlan` bound,
            else ``None`` — absent keys keep unfaulted manifests
            byte-identical to pre-fault ones.
        telemetry: The run's :meth:`~repro.obs.instruments.Telemetry.payload`:
            ``profile``, ``health``, ``time_series`` and ``trace_path``,
            each ``None`` when that instrument was not attached.
        wall_clock: Host seconds of the warm-up (``warmup_s``) and of
            the timed window (``window_s``), and the engine events the
            window fired (``events``).  Not part of the result's identity:
            it never compares and reaches a manifest only under
            ``execution``.
    """

    system: SystemSpec
    workload: WorkloadSpec
    metrics: SimMetrics
    refresh_reports: list[RefreshReport] = field(default_factory=list)
    in_use_blocks: int = 0
    ida_blocks: int = 0
    utilisation: dict = field(default_factory=dict)
    queue_wait: dict = field(default_factory=dict)
    scale: RunScale | None = None
    seed: int = 11
    faults: dict | None = None
    telemetry: dict = field(default_factory=dict)
    wall_clock: dict | None = field(default=None, compare=False)

    @property
    def mean_read_response_us(self) -> float:
        return self.metrics.read_response.mean_us

    @property
    def throughput_mb_s(self) -> float:
        return self.metrics.throughput_mb_s()

    def to_payload(self) -> "RunResultPayload":
        return RunResultPayload.from_result(self)


@dataclass
class RunResultPayload:
    """Compact, cheaply-picklable form of a :class:`RunResult`.

    This is what crosses the process boundary in a parallel sweep: the
    raw ``SimMetrics`` sample lists and per-block ``RefreshReport``
    objects are collapsed to latency summary dicts (count, mean,
    percentiles, max) and refresh aggregates — a few KB regardless of
    run size — while keeping everything the artifact post-processing
    (normalisation, Table IV averages, manifests) consumes.  Inline
    sweeps return the same type, so a sweep's output is identical at
    any job count.
    """

    system: SystemSpec
    workload: WorkloadSpec
    scale: RunScale | None
    seed: int
    read_response: dict
    write_response: dict
    throughput_mb_s: float
    read_throughput_mb_s: float
    elapsed_us: float
    bytes_read: int
    bytes_written: int
    read_mix: ReadMixCounters
    counters: dict
    refresh: dict
    in_use_blocks: int
    ida_blocks: int
    utilisation: dict = field(default_factory=dict)
    queue_wait: dict = field(default_factory=dict)
    faults: dict | None = None
    telemetry: dict = field(default_factory=dict)
    wall_clock: dict | None = field(default=None, compare=False)

    @property
    def mean_read_response_us(self) -> float:
        return self.read_response["mean_us"]

    def metrics_summary(self) -> dict:
        """The same dict :func:`reporting.metrics_summary` builds."""
        from .reporting import read_mix_dict

        return {
            "read_response": dict(self.read_response),
            "write_response": dict(self.write_response),
            "throughput_mb_s": self.throughput_mb_s,
            "read_throughput_mb_s": self.read_throughput_mb_s,
            "elapsed_us": self.elapsed_us,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "read_mix": read_mix_dict(self.read_mix),
            "counters": dict(self.counters),
        }

    @classmethod
    def from_result(cls, result: RunResult) -> "RunResultPayload":
        from .reporting import counters_dict

        metrics = result.metrics
        reports = result.refresh_reports
        ida_reports = [r for r in reports if r.n_adjusted_wordlines > 0]
        refresh = {
            "blocks_refreshed": len(reports),
            "extra_reads": sum(r.extra_reads for r in reports),
            "extra_writes": sum(r.extra_writes for r in reports),
            "ida_refreshes": len(ida_reports),
            "ida_valid_pages": sum(r.n_valid for r in ida_reports),
            "ida_extra_reads": sum(r.extra_reads for r in ida_reports),
            "ida_extra_writes": sum(r.extra_writes for r in ida_reports),
        }
        return cls(
            system=result.system,
            workload=result.workload,
            scale=result.scale,
            seed=result.seed,
            read_response=metrics.read_response.summary(),
            write_response=metrics.write_response.summary(),
            throughput_mb_s=metrics.throughput_mb_s(),
            read_throughput_mb_s=metrics.read_throughput_mb_s(),
            elapsed_us=metrics.elapsed_us,
            bytes_read=metrics.bytes_read,
            bytes_written=metrics.bytes_written,
            read_mix=metrics.read_mix,
            counters=counters_dict(metrics),
            refresh=refresh,
            in_use_blocks=result.in_use_blocks,
            ida_blocks=result.ida_blocks,
            utilisation=result.utilisation,
            queue_wait=result.queue_wait,
            faults=result.faults,
            telemetry=result.telemetry,
            wall_clock=result.wall_clock,
        )


@dataclass(frozen=True)
class CapacityCensus:
    """Block census and GC cost after a read-then-write phase pair.

    The compact result of :func:`run_capacity_phase_pair` — what the
    Sec. III-C capacity analysis transports out of a sweep worker.
    """

    in_use_blocks: int
    ida_blocks: int
    total_blocks: int
    gc_invocations: int
    block_erases: int


def _build_device(system: SystemSpec, scale: RunScale) -> DeviceConfig:
    from dataclasses import replace

    dev = device(system.device, blocks_per_plane=scale.blocks_per_plane)
    dev = DeviceConfig(dev.name, scale.apply_topology(dev.geometry), dev.timing, dev.coding)
    if system.dtr_us is not None:
        dev = dev.with_dtr(system.dtr_us)
    if system.adjust_program_fraction != 1.0:
        dev = DeviceConfig(
            dev.name,
            dev.geometry,
            replace(dev.timing, adjust_program_fraction=system.adjust_program_fraction),
            dev.coding,
        )
    return dev


def build_simulator(
    system: SystemSpec,
    scale: RunScale,
    duration_us: float,
    seed: int = 11,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
) -> SsdSimulator:
    """Assemble a simulator for one system at one scale."""
    dev = _build_device(system, scale)
    period_us = duration_us / scale.refresh_cycles
    policy = RefreshPolicy(
        mode=system.refresh_mode,
        period_us=period_us,
        error_rate=system.error_rate,
    )
    return SsdSimulator(
        geometry=dev.geometry,
        timing=dev.timing,
        coding=dev.coding,
        refresh_policy=policy,
        gc_policy=GcPolicy(scale.gc_low_watermark, scale.gc_target_free),
        retry_model=system.retry_model(),
        seed=seed,
        allocation=system.allocation,
        policy=system.policy,
        faults=faults,
        telemetry=telemetry,
    )


def warm_device(
    sim: SsdSimulator,
    generated: GeneratedWorkload,
    warm: WarmHandle | None = None,
) -> None:
    """Warm up one simulator: footprint fill, then the aging updates.

    The single warm-up entry point for every run mode, and the snapshot
    layer's only seam.  The cold path spreads fill ages over
    ``[-1.4P, -0.4P)`` — the oldest 40% of blocks are already refresh-due
    when the trace starts, so the measured window sees the steady state
    (as the paper's multi-day replays do) rather than an all-conventional
    cold start — then applies the aging updates that create the invalid
    lower pages IDA exploits.

    With a :class:`~repro.sim.snapshot.WarmHandle`, a cached
    :class:`~repro.sim.snapshot.WarmState` replaces the whole ritual
    (restore is a buffer copy, byte-identical by the snapshot-parity
    suite), and a cold warm-up's result is captured and offered back to
    the cache.  Traced runs always warm up cold: warm-up GC can emit
    trace events, and a restored run must not silently drop them.
    """
    use_snapshots = warm is not None and not sim.tracer.enabled
    if use_snapshots:
        state = warm.fetch()
        if state is not None:
            restore_warm_state(sim, state)
            return
    period_us = sim.ftl.refresh_policy.period_us
    sim.preload(
        generated.fill_lpns, start_us=-1.4 * period_us, end_us=-0.4 * period_us
    )
    sim.age(generated.aging_lpns, pseudo_now_us=-0.35 * period_us)
    if use_snapshots:
        warm.publish(capture_warm_state(sim))


#: Version of the warm-key derivation below.  Bump when the set of
#: fields the warm-up can observe changes, so stale spill directories
#: miss instead of restoring a subtly different state.
_WARM_KEY_SCHEMA = 2


def warm_cache_key(
    system: SystemSpec,
    spec: WorkloadSpec,
    scale: RunScale,
    seed: int,
) -> str:
    """Content-address of the warmed state a run starts from.

    Hashes exactly the inputs the warm-up can observe: the device family
    and allocation strategy (they shape geometry and fill placement), the
    *scaled* workload spec (fill/aging LPN streams and the duration that
    sets preload timestamps), the seed, the full run scale (topology, GC
    watermarks, and ``refresh_cycles``, which fixes the preload time
    spread).  Every other system field —
    refresh mode, error rate, DTR threshold, retry model, scheduling
    policy, adjust-program fraction — is deliberately *excluded*: the
    warm-up never reads them, which is precisely what lets a fig8 system
    fan or a fig9 DTR sweep share one snapshot per workload.

    Args:
        spec: The **scaled** workload spec (after ``spec.scaled(...)``).
    """
    import hashlib
    import json

    from .reporting import jsonable

    material = {
        "schema": _WARM_KEY_SCHEMA,
        "device": system.device,
        "allocation": system.allocation,
        "workload": jsonable(spec),
        "scale": jsonable(scale),
        "seed": seed,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def prepare_warm_state(
    system: SystemSpec,
    spec: WorkloadSpec,
    scale: RunScale | None = None,
    seed: int = 11,
) -> WarmState:
    """Run the warm-up on a bare simulator and capture the result.

    The sweep executor's miss path: one cold preload in the parent seeds
    the snapshot every pooled unit of the group restores from.
    """
    scale = scale or RunScale()
    spec = spec.scaled(scale.num_requests, scale.footprint_pages)
    generated = generate_workload(spec)
    sim = build_simulator(system, scale, spec.duration_us, seed=seed)
    warm_device(sim, generated)
    return capture_warm_state(sim)


def _to_host_requests(
    generated: GeneratedWorkload, page_size_bytes: int
) -> list[HostRequest]:
    requests = []
    for index, io in enumerate(generated.trace.requests):
        requests.append(
            HostRequest(
                request_id=index,
                arrival_us=io.time_us,
                is_read=io.is_read,
                lpns=io.lpns(page_size_bytes),
                size_bytes=io.size_bytes,
            )
        )
    return requests


def _background_batches(
    generated: GeneratedWorkload, scale: RunScale
) -> list[tuple[float, list[int]]]:
    """The background update stream of an open-loop run.

    Sustains the trace's update rate between refresh cycles so
    invalid-lower-page exposure stays at the Table III level throughout
    the run (the timed trace replays only a sample of the original
    requests).
    """
    spec = generated.spec
    batches_per_cycle = 8
    total_batches = max(1, int(scale.refresh_cycles * batches_per_cycle))
    per_cycle_updates = int(spec.aging_update_fraction * spec.footprint_pages)
    total_updates = int(per_cycle_updates * scale.refresh_cycles)
    update_lpns = sample_update_lpns(
        spec, total_updates, working_set=generated.update_set
    )
    background: list[tuple[float, list[int]]] = []
    if update_lpns:
        chunk = max(1, len(update_lpns) // total_batches)
        for i in range(total_batches):
            batch = update_lpns[i * chunk : (i + 1) * chunk]
            if batch:
                time_us = (i + 0.5) * spec.duration_us / total_batches
                background.append((time_us, batch))
    return background


def _run(
    system: SystemSpec,
    spec: WorkloadSpec,
    scale: RunScale | None,
    seed: int,
    queue_depth: int | None,
    faults: FaultPlan | None,
    telemetry: Telemetry | None,
    warm: WarmHandle | None,
) -> RunResult:
    """Shared body of the two run entry points.

    Scales and generates the workload, builds and warms the simulator,
    then replays the trace open loop (``queue_depth is None``, with the
    background update stream) or closed loop at ``queue_depth``.
    """
    scale = scale or RunScale()
    spec = spec.scaled(scale.num_requests, scale.footprint_pages)
    generated = generate_workload(spec)
    sim = build_simulator(
        system, scale, spec.duration_us, seed=seed, faults=faults,
        telemetry=telemetry,
    )
    warm_start = time.perf_counter()
    warm_device(sim, generated, warm=warm)
    warmup_s = time.perf_counter() - warm_start
    requests = _to_host_requests(generated, sim.geometry.page_size_bytes)
    if queue_depth is None:
        background = _background_batches(generated, scale)
        window_start = time.perf_counter()
        metrics = sim.run_requests(requests, background_updates=background)
    else:
        window_start = time.perf_counter()
        metrics = sim.run_closed_loop(requests, queue_depth=queue_depth)
    window_s = time.perf_counter() - window_start
    return RunResult(
        system=system,
        workload=spec,
        metrics=metrics,
        refresh_reports=list(sim.ftl.refresh_reports),
        in_use_blocks=sim.ftl.table.state.in_use_blocks(),
        ida_blocks=sim.ftl.table.state.ida_blocks(),
        utilisation=sim.utilisation_report(),
        queue_wait=sim.queue_wait_report(),
        scale=scale,
        seed=seed,
        faults=sim.fault_summary(),
        telemetry=sim.telemetry.payload(),
        wall_clock={
            "warmup_s": warmup_s,
            "window_s": window_s,
            "events": sim.engine.processed,
        },
    )


def run_workload(
    system: SystemSpec,
    spec: WorkloadSpec,
    scale: RunScale | None = None,
    seed: int = 11,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
    warm: WarmHandle | None = None,
) -> RunResult:
    """Execute one (system, workload) pair end to end.

    ``telemetry`` attaches the run's passive instruments (its payload
    lands on :attr:`RunResult.telemetry`); ``warm`` connects the run to
    the warm-state snapshot cache (see :func:`warm_device`) — a pure
    wall-clock knob, byte-identical by the snapshot-parity suite.
    """
    return _run(
        system, spec, scale, seed, None,
        faults, telemetry, warm,
    )


def run_workload_closed_loop(
    system: SystemSpec,
    spec: WorkloadSpec,
    scale: RunScale | None = None,
    queue_depth: int = 32,
    seed: int = 11,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
    warm: WarmHandle | None = None,
) -> RunResult:
    """Closed-loop variant of :func:`run_workload` (Fig. 10 throughput).

    The host keeps ``queue_depth`` requests outstanding; throughput then
    reflects device capability rather than the trace's arrival rate.
    """
    return _run(
        system, spec, scale, seed, queue_depth,
        faults, telemetry, warm,
    )


def run_capacity_phase_pair(
    system: SystemSpec,
    spec: WorkloadSpec,
    scale: RunScale | None = None,
    seed: int = 11,
    faults: FaultPlan | None = None,
    warm: WarmHandle | None = None,
) -> CapacityCensus:
    """Read-intensive phase followed by a write-intensive phase.

    The Sec. III-C capacity experiment: replay the timed trace, then
    rewrite a footprint-sized sample of LPNs (untimed logical churn is
    enough — the claim is about GC counts) and report the block census
    and cumulative GC cost.
    """
    scale = scale or RunScale()
    spec = spec.scaled(scale.num_requests, scale.footprint_pages)
    generated = generate_workload(spec)
    sim = build_simulator(system, scale, spec.duration_us, seed=seed, faults=faults)
    page_size = sim.geometry.page_size_bytes
    warm_device(sim, generated, warm=warm)
    sim.run_requests(_to_host_requests(generated, page_size))

    followup = sample_update_lpns(
        spec, scale.footprint_pages, seed_offset=9,
        working_set=generated.update_set,
    )
    sim.ftl.apply_untimed_batch(followup, sim.engine.now)

    return CapacityCensus(
        in_use_blocks=sim.ftl.table.state.in_use_blocks(),
        ida_blocks=sim.ftl.table.state.ida_blocks(),
        total_blocks=sim.geometry.total_blocks,
        gc_invocations=sim.ftl.counters.gc_invocations,
        block_erases=sim.ftl.counters.block_erases,
    )


def normalized_read_response(
    variant: RunResult | RunResultPayload, base: RunResult | RunResultPayload
) -> float:
    """Variant mean read response, normalised to the baseline's (Fig. 8)."""
    base_mean = base.mean_read_response_us
    if base_mean <= 0:
        raise ValueError("baseline produced no read responses")
    return variant.mean_read_response_us / base_mean


def improvement_pct(
    variant: RunResult | RunResultPayload, base: RunResult | RunResultPayload
) -> float:
    """Read response-time improvement of ``variant`` over ``base``, in %."""
    return (1.0 - normalized_read_response(variant, base)) * 100.0
