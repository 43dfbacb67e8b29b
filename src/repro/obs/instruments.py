"""One attach point for a run's passive instruments.

:class:`Instruments` is the declarative, picklable spec a sweep unit
carries into a worker; :meth:`Instruments.build` turns it into a live
:class:`Telemetry` where the simulator runs.  ``Telemetry`` bundles the
tracer, interval collector, profiler and health monitor: the simulator
hands itself to :meth:`~Telemetry.bind`, the drivers bracket each run
with :meth:`~Telemetry.begin_run` / :meth:`~Telemetry.end_run`, and
:meth:`~Telemetry.payload` folds it all into the one plain ``telemetry``
dict a run result carries.  Tests and ``repro profile`` build a
``Telemetry`` directly.  Fault plans change results rather than observe
them, so they keep their own path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .health import HealthMonitor
from .interval import IntervalCollector
from .slo import SloEngine, SloObjective
from .tracer import NULL_TRACER, JsonlSink, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .profiler import SimProfiler

__all__ = ["Instruments", "Telemetry"]

#: Health snapshots per run when no ``interval_us`` is given.
_HEALTH_SAMPLES = 16


@dataclass(frozen=True)
class Instruments:
    """Which passive instruments a run carries, picklable by construction.

    Attributes:
        trace_path: Write a JSONL event trace here (one file per unit).
        interval_us: Interval time-series cadence, simulated us.
        profile: Attach an aggregate-only sim-time profiler.
        health: Attach a health monitor; without ``interval_us`` it
            samples 16 times per run.
        slo: Objectives evaluated on the health trajectory.
    """

    trace_path: str | None = None
    interval_us: float | None = None
    profile: bool = False
    health: bool = False
    slo: tuple[SloObjective, ...] | None = None

    def __post_init__(self) -> None:
        if self.slo is not None and not self.health:
            raise ValueError("slo objectives require health=True")
        if self.interval_us is not None and self.interval_us <= 0:
            raise ValueError(f"interval_us must be > 0, got {self.interval_us}")

    def build(self, duration_us: float) -> "Telemetry":
        """Live instruments for one run; ``duration_us`` is the *scaled*
        workload's, so every process derives the same health cadence."""
        from .profiler import SimProfiler  # lazy: see repro.obs.__init__

        interval_us = self.interval_us
        if interval_us is None and self.health:
            interval_us = duration_us / _HEALTH_SAMPLES
        health = None
        if self.health:
            slo = SloEngine(self.slo) if self.slo else None
            health = HealthMonitor(slo=slo)
        return Telemetry(
            tracer=Tracer(JsonlSink(self.trace_path)) if self.trace_path else None,
            collector=IntervalCollector(interval_us) if interval_us else None,
            profiler=SimProfiler(keep_events=False) if self.profile else None,
            health=health,
            trace_path=self.trace_path,
            series=self.interval_us is not None,
        )


class Telemetry:
    """The live instruments of one simulator; every one is optional.

    Args:
        tracer: Structured event tracer (``None`` = the null tracer).
        collector: Interval collector; its cadence also drives the
            profiler's timelines and the health monitor's snapshots.
        profiler: Sim-time profiler fed stage boundaries.
        health: Device-health monitor (needs ``collector``).
        trace_path: Where the tracer writes, recorded in the payload.
        series: Publish the collector's series in the payload; off when
            the collector is only the health monitor's cadence.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        collector: IntervalCollector | None = None,
        profiler: "SimProfiler | None" = None,
        health: HealthMonitor | None = None,
        *,
        trace_path: str | None = None,
        series: bool = True,
    ) -> None:
        if health is not None and collector is None:
            raise ValueError(
                "a health monitor samples on an interval collector's "
                "cadence; pass a collector too"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.collector = collector
        self.profiler = profiler
        self.health = health
        self.trace_path = trace_path
        self.series = series

    def bind(self, sim) -> None:
        """Wire the instruments into ``sim``, setting the passive hooks
        they need: ``sim.profiler`` and ``sim.completion_observer`` (the
        interval collector, which records each host completion)."""
        if self.profiler is not None:
            self.profiler.bind(sim.dies, sim.channels)
            sim.profiler = self.profiler
        if self.collector is not None:
            self.collector.bind(sim.engine, sim.dies, sim.channels)
            sim.completion_observer = self.collector
            if self.profiler is not None:
                self.collector.attach_profiler(self.profiler)
        if self.health is not None:
            self.health.bind(sim)
            self.collector.attach_health(self.health)

    def begin_run(self, sim, mode: str, n_requests: int) -> None:
        if self.collector is not None:
            self.collector.start()
        if self.profiler is not None:
            self.profiler.start_run(sim.engine.now)
        if self.tracer.enabled:
            self.tracer.emit(
                sim.engine.now,
                "run_start",
                mode=mode,
                requests=n_requests,
                policy=sim.policy,
                dies=len(sim.dies),
                channels=len(sim.channels),
            )

    def end_run(self, sim) -> None:
        if self.collector is not None:
            self.collector.finish()
        if self.profiler is not None:
            self.profiler.finish_run(sim.engine.now, sim.metrics.elapsed_us)
        if self.tracer.enabled:
            self.tracer.emit(
                sim.engine.now,
                "run_end",
                elapsed_us=sim.metrics.elapsed_us,
                reads=sim.metrics.read_response.count,
                writes=sim.metrics.write_response.count,
                utilisation=sim.utilisation_report(),
                events_processed=sim.engine.processed,
                peak_pending_events=sim.engine.peak_pending,
            )

    def payload(self) -> dict:
        """The run's plain ``telemetry`` dict: ``profile``, ``health``,
        ``time_series`` and ``trace_path``, ``None`` where not attached."""
        collector, series = self.collector, None
        if collector is not None and self.series:
            series = {"summary": collector.summary(), "intervals": collector.time_series()}
        return {
            "profile": None if self.profiler is None else self.profiler.aggregate(),
            "health": None if self.health is None else self.health.to_payload(),
            "time_series": series,
            "trace_path": self.trace_path,
        }

    def close(self) -> None:
        """Flush and close the tracer's sink."""
        self.tracer.close()
