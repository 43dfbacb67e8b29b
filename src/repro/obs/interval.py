"""Interval time-series: periodic samples of a running simulation.

The collector rides the simulation clock: every ``interval_us`` it closes
one :class:`IntervalSnapshot` capturing what happened since the previous
tick — requests completed, bytes moved, a fixed-bucket read-latency
histogram, mean die/channel utilisation over the interval, and the
instantaneous queue depths at the tick.  The resulting series is what the
paper-style "where does read time go over time" plots and regression
gates consume; end-of-run aggregates cannot show a refresh storm.

Sampling is passive: ticks read counters and never mutate simulator
state, so a collected run produces byte-identical :class:`SimMetrics`
to an uncollected one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .histogram import Histogram

__all__ = ["IntervalCollector", "IntervalSnapshot"]


@dataclass
class IntervalSnapshot:
    """What one sampling interval observed.

    Rates (throughput, utilisation) are over ``[start_us, end_us)``;
    queue depths are instantaneous at ``end_us``.
    """

    start_us: float
    end_us: float
    reads_completed: int = 0
    writes_completed: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_latency: dict = field(default_factory=dict)
    die_utilisation: float = 0.0
    channel_utilisation: float = 0.0
    die_queue_depth: int = 0
    channel_queue_depth: int = 0
    events_processed: int = 0

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def read_throughput_mb_s(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return (self.bytes_read / 1e6) / (self.duration_us / 1e6)

    def to_dict(self) -> dict:
        return {
            "start_us": self.start_us,
            "end_us": self.end_us,
            "reads_completed": self.reads_completed,
            "writes_completed": self.writes_completed,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "read_throughput_mb_s": self.read_throughput_mb_s(),
            "read_latency": self.read_latency,
            "die_utilisation": self.die_utilisation,
            "channel_utilisation": self.channel_utilisation,
            "die_queue_depth": self.die_queue_depth,
            "channel_queue_depth": self.channel_queue_depth,
            "events_processed": self.events_processed,
        }


class IntervalCollector:
    """Samples a bound simulator into an interval time-series.

    Usage: construct, pass to the simulator (which calls :meth:`bind`),
    run; read :attr:`snapshots` / :meth:`summary` afterwards.  One
    collector serves one run.

    Args:
        interval_us: Sampling period on the simulated clock.  Read
            latencies land in log-spaced 10 us .. 1 s histograms.
    """

    def __init__(self, interval_us: float) -> None:
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        self.interval_us = interval_us
        self.snapshots: list[IntervalSnapshot] = []
        #: Cumulative read-latency histogram over the whole run.
        self.read_latency_total = Histogram()
        self._engine = None
        self._dies: list = []
        self._channels: list = []
        self._profiler = None
        self._health = None
        self._running = False
        self._reset_interval_counters(0.0)

    # ------------------------------------------------------------------
    # Simulator wiring
    # ------------------------------------------------------------------
    def bind(self, engine, dies: list, channels: list) -> None:
        """Attach to a simulator's engine and resources (idempotent)."""
        self._engine = engine
        self._dies = dies
        self._channels = channels

    def attach_profiler(self, profiler) -> None:
        """Drive a profiler's timeline from this collector's cadence.

        Each closed :class:`IntervalSnapshot` also closes one profiler
        timeline sample, so the profiler's utilisation and queue-depth
        timeline is this series' numbers on this series' grid.
        """
        self._profiler = profiler

    def attach_health(self, health) -> None:
        """Drive a health monitor from this collector's cadence.

        Each closed interval also closes one
        :class:`~repro.obs.health.HealthMonitor` sample, so the health
        trajectory shares the run's sampling grid with the latency
        time-series and profiler timelines.
        """
        self._health = health

    def start(self) -> None:
        """Begin sampling from the engine's current time."""
        if self._engine is None:
            raise RuntimeError("collector not bound to a simulator")
        if self._running:
            raise RuntimeError("collector already started (one run each)")
        self._running = True
        self._reset_interval_counters(self._engine.now)
        self._busy_baseline = self._busy_totals()
        self._processed_baseline = self._engine.processed
        self._engine.after(self.interval_us, self._tick)

    def finish(self) -> None:
        """Close the trailing partial interval, if it saw any time."""
        if not self._running:
            return
        self._running = False
        if self._engine.now > self._interval_start:
            self._close_interval()

    # ------------------------------------------------------------------
    # Completion hooks (called by the simulator)
    # ------------------------------------------------------------------
    def record_read(self, response_us: float, nbytes: int) -> None:
        self._reads += 1
        self._bytes_read += nbytes
        self._read_hist.add(response_us)
        self.read_latency_total.add(response_us)

    def record_write(self, response_us: float, nbytes: int) -> None:
        self._writes += 1
        self._bytes_written += nbytes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _busy_totals(self) -> tuple[float, float]:
        return (
            sum(r.busy_us for r in self._dies),
            sum(r.busy_us for r in self._channels),
        )

    def _reset_interval_counters(self, start_us: float) -> None:
        self._interval_start = start_us
        self._reads = 0
        self._writes = 0
        self._bytes_read = 0
        self._bytes_written = 0
        self._read_hist = Histogram()
        self._busy_baseline = (0.0, 0.0)
        self._processed_baseline = 0

    def _close_interval(self) -> None:
        now = self._engine.now
        elapsed = now - self._interval_start
        if self._health is not None:
            # Sampled before the interval histogram resets so the health
            # snapshot sees this interval's read-latency distribution.
            self._health.sample(self._interval_start, now, self._read_hist)
        die_busy, chan_busy = self._busy_totals()

        def util(busy: float, baseline: float, n: int) -> float:
            if elapsed <= 0 or n == 0:
                return 0.0
            return min(1.0, (busy - baseline) / (n * elapsed))

        snapshot = IntervalSnapshot(
            start_us=self._interval_start,
            end_us=now,
            reads_completed=self._reads,
            writes_completed=self._writes,
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            read_latency=self._read_hist.summary(),
            die_utilisation=util(die_busy, self._busy_baseline[0], len(self._dies)),
            channel_utilisation=util(
                chan_busy, self._busy_baseline[1], len(self._channels)
            ),
            die_queue_depth=sum(r.queued for r in self._dies),
            channel_queue_depth=sum(r.queued for r in self._channels),
            events_processed=self._engine.processed - self._processed_baseline,
        )
        self.snapshots.append(snapshot)
        if self._profiler is not None:
            self._profiler.sample_interval(snapshot)
        self._reset_interval_counters(now)
        self._busy_baseline = (die_busy, chan_busy)
        self._processed_baseline = self._engine.processed

    def _tick(self) -> None:
        if not self._running:
            return
        if self._engine.pending:
            self._close_interval()
            # Reschedule only while other events remain: a self-perpetuating
            # tick would keep engine.run() from ever draining.
            self._engine.after(self.interval_us, self._tick)
            return
        # Trailing tick: nothing real remains, so this tick's own firing
        # is a phantom clock advance.  Rewind to the last real event and
        # close the residual interval there, keeping a collected run's
        # elapsed time (hence SimMetrics) identical to an uncollected one.
        self._running = False
        self._engine.rewind_to_previous_event()
        if self._engine.now > self._interval_start:
            self._close_interval()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def time_series(self) -> list[dict]:
        """The snapshots as JSON-ready dicts, in time order."""
        return [snap.to_dict() for snap in self.snapshots]

    def summary(self) -> dict:
        """Aggregates a manifest can embed without the full series."""
        peak_read_tp = max(
            (s.read_throughput_mb_s() for s in self.snapshots), default=0.0
        )
        peak_queue = max(
            (s.die_queue_depth + s.channel_queue_depth for s in self.snapshots),
            default=0,
        )
        return {
            "interval_us": self.interval_us,
            "intervals": len(self.snapshots),
            "read_latency": self.read_latency_total.summary(),
            "peak_read_throughput_mb_s": peak_read_tp,
            "peak_queue_depth": peak_queue,
        }
