"""The benchmark's workloads, the timed-window probe and the correctness check.

Each workload is one pass function: it builds its inputs from the seed,
drives the simulator through the default execution path (no backend
argument anywhere) and returns a :class:`PassResult`.  The benchmark is
one caller that waits for each pass, so the outer loop is closed with a
single client.

The :class:`Probe` wraps the two public run entry points of
:class:`~repro.sim.ssd.SsdSimulator`.  It times each simulation's timed
window (request admission through drain) and, as the window closes,
captures a :class:`SimRecord`: a digest of every sim-time statistic plus
an invariant scan of the device.  That capture is timed apart, so no
host-time figure includes it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from pace import Pacer
from repro.experiments import parallel, runner
from repro.experiments.config import RunScale
from repro.experiments.systems import baseline, ida
from repro.faults.invariants import check_coding_invariants
from repro.sim.ssd import SsdSimulator
from repro.workloads.msr import workload as catalog_workload

#: dtR settings of the warm_sweep workload (Fig. 9 style), in us.
SWEEP_DTR_US = (20.0, 40.0, 60.0)

#: Refresh periods the warm_sweep trace spans.  The refresh daemon scans
#: every 1/16 period, so at 0.02 the first scan falls 3.1 trace durations
#: in: no scan fires in the timed window on any seed.  (At 0.05 the scan
#: falls 1.25 durations in, and a seed whose bursty arrivals run long
#: gets a full-device refresh, ten times the work of the others.)
SWEEP_REFRESH_CYCLES = 0.02

#: The golden pin the preflight reproduces, and the seed it was taken at.
GOLDEN_RELPATH = Path("tests") / "golden" / "fig8_tiny.json"
GOLDEN_SEED = 11


@dataclass
class SimRecord:
    """What one simulation left behind, captured as its timed window closed."""

    requests: int
    completed: int
    uncorrectable: int
    violations: list[str]
    digest: str
    phys_ops: int
    events: int
    peak_pending: int
    read: dict
    write: dict
    mb_per_s: float
    page_reads: int
    ida_reads: int
    counters: dict
    utilisation: dict
    waits: dict
    state_bytes: int

    @classmethod
    def capture(cls, sim: SsdSimulator, requests: int) -> "SimRecord":
        metrics = sim.metrics
        mix = metrics.read_mix
        counters = dataclasses.asdict(sim.ftl.counters)
        read = metrics.read_response.summary()
        write = metrics.write_response.summary()
        material = {
            "read": read,
            "write": write,
            "elapsed_us": metrics.elapsed_us,
            "bytes": [metrics.bytes_read, metrics.bytes_written],
            "phys_ops": metrics.phys_ops_dispatched,
            "events": sim.engine.processed,
            "ftl": counters,
            "read_mix": [
                mix.total,
                mix.ida_fast_reads,
                mix.csb_with_invalid_lsb,
                mix.msb_with_invalid_lower,
                sorted(mix.by_type.items()),
            ],
        }
        digest = hashlib.sha256(
            json.dumps(material, sort_keys=True).encode()
        ).hexdigest()
        return cls(
            requests=requests,
            completed=read["count"] + write["count"],
            uncorrectable=metrics.uncorrectable_reads,
            violations=check_coding_invariants(sim.ftl),
            digest=digest,
            phys_ops=metrics.phys_ops_dispatched,
            events=sim.engine.processed,
            peak_pending=sim.engine.peak_pending,
            read=read,
            write=write,
            mb_per_s=metrics.throughput_mb_s(),
            page_reads=mix.total,
            ida_reads=mix.ida_fast_reads,
            counters=counters,
            utilisation=sim.utilisation_report(),
            waits=sim.queue_wait_report(),
            state_bytes=sim.ftl.table.state.memory_bytes(),
        )


@dataclass
class PassResult:
    """One pass of a workload: its times plus every simulation's record.

    ``setup_s`` and ``segments`` are reference seconds (see :mod:`pace`);
    ``host_segments`` are the same windows in host seconds.  ``focus``
    indexes the IDA-E20 simulation whose latencies the sim-time metrics
    report.
    """

    setup_s: float
    segments: list[float]
    host_segments: list[float]
    records: list[SimRecord]
    focus: int
    gain_pct: float
    snapshot: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return sum(self.segments)

    @property
    def digest(self) -> str:
        joined = ",".join(record.digest for record in self.records)
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def requests(self) -> int:
        return sum(record.requests for record in self.records)

    @property
    def phys_ops(self) -> int:
        return sum(record.phys_ops for record in self.records)


def check_pass(result: PassResult, reference: str | None) -> tuple[list[str], int]:
    """Correctness problems of one pass, and how many host requests failed.

    A request fails when it never completes or is an uncorrectable read.
    When the pass itself fails (an invariant violation, or sim-time
    statistics that differ from the first pass of the same seed) every
    request of the pass counts as failed.
    """
    problems: list[str] = []
    failed = 0
    pass_failed = False
    for index, record in enumerate(result.records):
        missing = record.requests - record.completed
        if missing:
            problems.append(
                f"sim {index}: {missing} of {record.requests} host requests "
                "never completed"
            )
        if record.uncorrectable:
            problems.append(f"sim {index}: {record.uncorrectable} uncorrectable reads")
        failed += missing + record.uncorrectable
        if record.violations:
            pass_failed = True
            problems.extend(f"sim {index}: {v}" for v in record.violations[:5])
    if reference is not None and result.digest != reference:
        pass_failed = True
        problems.append("sim-time statistics differ from the first pass of this seed")
    if pass_failed:
        failed = result.requests
    return problems, min(failed, result.requests)


@dataclass
class Tally:
    """Requests attempted and failed, and every problem found, over a run."""

    reference: str | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, result: PassResult, label: str = "") -> None:
        found, lost = check_pass(result, self.reference)
        self.problems += [label + problem for problem in found]
        self.attempted += result.requests
        self.failed += lost


class Probe:
    """Times each simulation's timed window and records it as it closes.

    Times are reference seconds (see :mod:`pace`): the pacer calibrates
    at the start of each pass, on each side of every timed window and
    after each check, so the set-up and window intervals run from one
    mark to the next.  When a :class:`~spans.SpanRecorder` is attached,
    the window becomes an ``ssd`` span and the record capture a
    ``bench`` span.
    """

    ENTRY_POINTS = ("run_requests", "run_closed_loop")

    def __init__(self) -> None:
        self.recorder = None
        self.pacer = Pacer()
        self.begin()

    def begin(self) -> None:
        """Start a pass: forget the last one's windows and marks."""
        self.pacer.reset()
        #: Pacer marks ``(ready, start, end)`` of every timed window so
        #: far: ``ready`` ends the previous check (or starts the pass).
        self.windows: list[tuple[int, int, int]] = []
        self.records: list[SimRecord] = []
        self.ready = self.pacer.mark()

    def result(self, **fields) -> "PassResult":
        """The pass since :meth:`begin`, from the windows it timed.

        A simulation's set-up runs from the end of the previous
        simulation's check (or the start of the pass) to its first timed
        admission; its segment is its timed window.
        """
        seconds = self.pacer.seconds
        return PassResult(
            setup_s=sum(seconds(ready, start)[1] for ready, start, _ in self.windows),
            segments=[seconds(start, end)[1] for _, start, end in self.windows],
            host_segments=[seconds(start, end)[0] for _, start, end in self.windows],
            records=list(self.records),
            **fields,
        )

    @contextmanager
    def installed(self):
        originals = {name: SsdSimulator.__dict__[name] for name in self.ENTRY_POINTS}
        try:
            for name, fn in originals.items():
                setattr(SsdSimulator, name, self._window(fn, f"SsdSimulator.{name}"))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(SsdSimulator, name, fn)

    def _window(self, fn, label: str):
        probe = self

        def window(sim, requests, *args, **kwargs):
            recorder = probe.recorder
            start = probe.pacer.mark()
            span = recorder.begin(recorder.name("ssd", label)) if recorder else None
            try:
                metrics = fn(sim, requests, *args, **kwargs)
            finally:
                if span is not None:
                    recorder.finish(span)
                end = probe.pacer.mark()
            check = recorder.begin(recorder.name("bench", "check")) if recorder else None
            probe.records.append(SimRecord.capture(sim, len(requests)))
            # Free the finished simulations of earlier units now, outside
            # every timed figure, so neither the peak resident set nor
            # the next unit's time depends on when the cyclic collector
            # happens to run.
            gc.collect()
            if check is not None:
                recorder.finish(check)
            probe.windows.append((probe.ready, start, end))
            probe.ready = probe.pacer.mark()
            return metrics

        return window


def _spec(name: str, seed: int):
    return dataclasses.replace(catalog_workload(name), seed=seed)


def replay_pass(seed: int, probe: Probe, tiny: bool = False) -> PassResult:
    """One Fig. 8 cell: usr_1 open-loop, Baseline and IDA-E20 on one trace."""
    spec = _spec("usr_1", seed)
    scale = RunScale.tiny() if tiny else RunScale.quick()
    probe.begin()
    base, e20 = [
        runner.run_workload(system, spec, scale, seed=seed)
        for system in (baseline(), ida(0.2))
    ]
    return probe.result(focus=1, gain_pct=runner.improvement_pct(e20, base))


def closed_qd32_pass(seed: int, probe: Probe, tiny: bool = False) -> PassResult:
    """One Fig. 10 cell: src1_0 closed-loop at queue depth 32 on IDA-E20."""
    spec = _spec("src1_0", seed)
    scale = RunScale.tiny() if tiny else RunScale.bench()
    probe.begin()
    runner.run_workload_closed_loop(ida(0.2), spec, scale, queue_depth=32, seed=seed)
    return probe.result(focus=0, gain_pct=0.0)


SWEEP_SYSTEMS = (baseline(), ida(0.0), ida(0.2), ida(0.5))
#: Position of IDA-E20 in ``SWEEP_SYSTEMS``; its dtR 40 unit feeds the
#: sim-time figures.
SWEEP_E20 = 2


def sweep_units(seed: int, tiny: bool = False) -> list[parallel.RunUnit]:
    """Twelve Fig. 9-style units sharing one warm key (preload-dominated).

    The footprint-sized warm-up is what the snapshot cache elides.  400
    timed requests per unit: with 100, how fast a seed's trace runs per
    op varied by about 11% between seeds, against about 6% with 400.
    """
    spec = _spec("usr_1", seed)
    if tiny:
        scale = dataclasses.replace(RunScale.tiny(), refresh_cycles=SWEEP_REFRESH_CYCLES)
    else:
        scale = dataclasses.replace(
            RunScale.quick(),
            num_requests=400,
            footprint_pages=48_000,
            blocks_per_plane=96,
            refresh_cycles=SWEEP_REFRESH_CYCLES,
        )
    return [
        parallel.RunUnit(system.with_dtr(dtr), spec, scale, seed=seed)
        for dtr in SWEEP_DTR_US
        for system in SWEEP_SYSTEMS
    ]


def warm_sweep_pass(seed: int, probe: Probe, tiny: bool = False) -> PassResult:
    """The sweep through ``SweepExecutor(jobs=1, snapshots=True)``.

    Its set-up is the one cold warm-up plus every later unit's restore,
    workload generation and simulator build.
    """
    units = sweep_units(seed, tiny)
    executor = parallel.SweepExecutor(jobs=1, snapshots=True)
    probe.begin()
    payloads = executor.map(units)
    width = len(SWEEP_SYSTEMS)
    gains = [
        runner.improvement_pct(payloads[i + SWEEP_E20], payloads[i])
        for i in range(0, len(payloads), width)
    ]
    return probe.result(
        focus=SWEEP_DTR_US.index(40.0) * width + SWEEP_E20,
        gain_pct=statistics.fmean(gains),
        snapshot=dict(executor.snapshot_stats),
    )


WORKLOADS = {
    "replay": replay_pass,
    "closed_qd32": closed_qd32_pass,
    "warm_sweep": warm_sweep_pass,
}


def preflight(root: Path) -> list[str]:
    """Reproduce the usr_1 IDA-E20 cell of the golden Fig. 8 pin exactly.

    Reads the golden file and changes nothing.  Returns the mismatches.
    """
    expected = json.loads((root / GOLDEN_RELPATH).read_text())["usr_1"]["ida-e20"]
    result = runner.run_workload(
        ida(0.2), catalog_workload("usr_1"), RunScale.tiny(), seed=GOLDEN_SEED
    )
    metrics = result.metrics
    actual = json.loads(
        json.dumps(
            {
                "read": metrics.read_response.summary(),
                "write": metrics.write_response.summary(),
                "elapsed_us": metrics.elapsed_us,
                "block_erases": metrics.block_erases,
                "refresh_page_moves": metrics.refresh_page_moves,
                "read_retries": metrics.read_retries,
            }
        )
    )
    return [
        f"golden usr_1/ida-e20 {key}: got {actual.get(key)!r}, pinned {value!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]
