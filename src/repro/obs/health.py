"""SMART-style device-health telemetry sampled on the collector cadence.

A :class:`HealthMonitor` rides an :class:`~repro.obs.interval.IntervalCollector`:
each closed interval also closes one :class:`HealthSnapshot` capturing
the device's degradation state at that point in its lifetime — wear
percentiles over the per-block erase counts, retired/grown-bad block
counts, estimated RBER per block group (wear + retention age through
:class:`~repro.flash.errors.RberModel`), read-retry and reclaim rates,
the refresh backlog, the IDA E-state exposure fraction, and per-class
queue depths.  End-of-run aggregates cannot show any of this: a refresh
storm, a retry ramp or a wear cliff is only visible as a *trajectory*.

Like every observability hook the monitor is passive (it reads counters,
never mutates simulator state or RNG streams) and optional (``None``
costs one check).  Its output is plain JSON dicts, so a run's health
series rides the pickle-safe pool payload unchanged and ``--jobs N``
produces byte-identical series to an inline run.

The monitor optionally feeds an :class:`~repro.obs.slo.SloEngine` (for
error-budget breach events).  Every count it reports as an interval
delta (GC, refresh, retries, reclaims) is also an end-of-run total in
:class:`~repro.sim.metrics.SimMetrics`, and the series sums to it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..flash.errors import RberModel, ReadRetryModel
from .slo import SloEngine

__all__ = ["HEALTH_SCHEMA", "HealthSnapshot", "HealthMonitor"]

#: Version of the health-snapshot dict layout.
HEALTH_SCHEMA = 1

#: Simulated microseconds per retention day (for RBER retention aging).
_US_PER_DAY = 86_400e6


@dataclass
class HealthSnapshot:
    """One periodic device-health sample (all fields JSON-ready).

    Counter-derived fields (retries, reclaims, GC/refresh activity) are
    **deltas over the interval**; censuses (wear, blocks, queue depths,
    backlog) are instantaneous at ``end_us``.
    """

    start_us: float
    end_us: float
    wear: dict = field(default_factory=dict)
    in_use_blocks: int = 0
    free_blocks: int = 0
    retired_blocks: int = 0
    grown_bad_blocks: int = 0
    ida_blocks: int = 0
    ida_exposure: float = 0.0
    ida_read_fraction: float = 0.0
    rber_groups: list = field(default_factory=list)
    reads: int = 0
    read_retries: int = 0
    read_retry_rate: float = 0.0
    read_reclaims: int = 0
    uncorrectable_reads: int = 0
    refresh_backlog: int = 0
    refresh_invocations: int = 0
    refresh_page_moves: int = 0
    gc_invocations: int = 0
    gc_page_moves: int = 0
    queue_depth: dict = field(default_factory=dict)
    read_latency: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (empty -> 0)."""
    if not len(sorted_values):
        return 0.0
    rank = max(1, -(-int(q * len(sorted_values)) // 100))
    return float(sorted_values[rank - 1])


class HealthMonitor:
    """Samples a bound simulator's degradation state periodically.

    Usage mirrors the profiler: construct, pass to the simulator (which
    calls :meth:`bind` and attaches it to the interval collector), run;
    read :meth:`series` / :meth:`summary` / :meth:`to_payload` after.

    Args:
        slo: Optional SLO engine fed one value dict per sample.
        block_groups: How many equal-size block groups the RBER trend is
            reported over (die-sized groups tell the story; per-block
            would bloat every snapshot).
        rber_model: Wear/retention error model for the RBER estimate.
        rated_pe_cycles: Endurance budget the wear fraction is against.
    """

    def __init__(
        self,
        slo: SloEngine | None = None,
        block_groups: int = 8,
        rber_model: RberModel | None = None,
        rated_pe_cycles: int = 3000,
    ) -> None:
        if block_groups < 1:
            raise ValueError("block_groups must be >= 1")
        self.slo = slo
        self.block_groups = block_groups
        self.rber_model = rber_model or RberModel(rated_pe_cycles=rated_pe_cycles)
        self.rated_pe_cycles = rated_pe_cycles
        self.snapshots: list[HealthSnapshot] = []
        self._sim = None
        self._last: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Simulator wiring
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Attach to a simulator (called by ``SsdSimulator.__init__``)."""
        self._sim = sim
        self._last = {}
        if self.slo is not None:
            self.slo.bind_tracer(sim.tracer)

    # ------------------------------------------------------------------
    # Sampling (driven by IntervalCollector._close_interval)
    # ------------------------------------------------------------------
    def sample(self, start_us: float, end_us: float, read_hist=None) -> HealthSnapshot:
        """Close one health interval; passive, never touches sim state."""
        if self._sim is None:
            raise RuntimeError("health monitor not bound to a simulator")
        sim = self._sim
        ftl = sim.ftl
        table = ftl.table
        counters = ftl.counters
        metrics = sim.metrics

        erases = np.sort(table.state.erase_count_np)
        total_erases = int(erases.sum())
        n = len(erases)
        wear = {
            "mean": total_erases / n if n else 0.0,
            "p50": _percentile(erases, 50),
            "p90": _percentile(erases, 90),
            "p99": _percentile(erases, 99),
            "max": float(erases[-1]) if n else 0.0,
            "spread": float(erases[-1] - erases[0]) if n else 0.0,
            "total": total_erases,
            "life_used": (int(erases[-1]) / self.rated_pe_cycles) if n else 0.0,
        }

        in_use = table.state.in_use_blocks()
        ida = table.state.ida_blocks()
        snap = HealthSnapshot(
            start_us=start_us,
            end_us=end_us,
            wear=wear,
            in_use_blocks=in_use,
            free_blocks=table.free_blocks(),
            retired_blocks=table.state.retired_blocks(),
            ida_blocks=ida,
            ida_exposure=ida / in_use if in_use else 0.0,
            rber_groups=self._rber_groups(table, end_us),
            refresh_backlog=self._refresh_backlog(ftl, end_us),
            queue_depth=self._queue_depths(sim),
        )

        # Interval deltas over live counters (GC/refresh counters live on
        # the FTL until fold_counters; retries/mix live on SimMetrics).
        deltas = {
            "reads": metrics.read_response.count,
            "read_retries": metrics.read_retries,
            "read_reclaims": counters.read_reclaims,
            "uncorrectable_reads": counters.uncorrectable_reads,
            "grown_bad_blocks": counters.grown_bad_blocks,
            "refresh_invocations": counters.refresh_invocations,
            "refresh_page_moves": counters.refresh_page_moves,
            "gc_invocations": counters.gc_invocations,
            "gc_page_moves": counters.gc_page_moves,
            "ida_fast_reads": metrics.read_mix.ida_fast_reads,
            "page_reads": metrics.read_mix.total,
        }
        last = self._last
        delta = {key: value - last.get(key, 0) for key, value in deltas.items()}
        self._last = deltas
        snap.reads = delta["reads"]
        snap.read_retries = delta["read_retries"]
        snap.read_retry_rate = (
            delta["read_retries"] / delta["page_reads"] if delta["page_reads"] else 0.0
        )
        snap.read_reclaims = delta["read_reclaims"]
        snap.uncorrectable_reads = delta["uncorrectable_reads"]
        snap.grown_bad_blocks = counters.grown_bad_blocks
        snap.refresh_invocations = delta["refresh_invocations"]
        snap.refresh_page_moves = delta["refresh_page_moves"]
        snap.gc_invocations = delta["gc_invocations"]
        snap.gc_page_moves = delta["gc_page_moves"]
        snap.ida_read_fraction = (
            delta["ida_fast_reads"] / delta["page_reads"]
            if delta["page_reads"]
            else 0.0
        )
        if read_hist is not None:
            snap.read_latency = read_hist.summary()

        self.snapshots.append(snap)
        if self.slo is not None:
            self.slo.observe(start_us, end_us, self._slo_values(snap))
        return snap

    def _rber_groups(self, table, now_us: float) -> list[dict]:
        """Estimated RBER per equal-size block group (wear + retention)."""
        state = table.state
        num_blocks = state.num_blocks
        groups = min(self.block_groups, num_blocks) or 1
        size = -(-num_blocks // groups)  # ceil
        erase_col = state.erase_count_np
        prog_col = state.programmed_at_us_np
        out: list[dict] = []
        for index in range(groups):
            lo, hi = index * size, min((index + 1) * size, num_blocks)
            if lo >= hi:
                continue
            members = hi - lo
            pe = int(erase_col[lo:hi].sum()) / members
            prog = prog_col[lo:hi]
            aged = prog[~np.isnan(prog) & (prog < now_us)]
            age_days = (
                float((now_us - aged).mean()) / _US_PER_DAY if len(aged) else 0.0
            )
            rber = self.rber_model.rber(int(pe), age_days)
            out.append(
                {
                    "group": index,
                    "blocks": members,
                    "mean_pe_cycles": pe,
                    "mean_retention_days": age_days,
                    "est_rber": rber,
                    "retry_fail_prob": ReadRetryModel.for_rber(rber).fail_prob,
                }
            )
        return out

    @staticmethod
    def _refresh_backlog(ftl, now_us: float) -> int:
        """Full blocks past the refresh period, not yet refreshed.

        The same candidacy test the refresh daemon's scan applies; a
        growing backlog means the scan cadence (or the drain rate of the
        internal queues) is not keeping up with aging.
        """
        period = ftl.refresh_policy.period_us
        state = ftl.table.state
        prog = state.programmed_at_us_np
        with np.errstate(invalid="ignore"):  # NaN = never programmed
            overdue = (
                (state.next_page_np >= state.pages_per_block)
                & (state.valid_count_np > 0)
                & (now_us - prog >= period)
            )
        return int(np.count_nonzero(overdue))

    @staticmethod
    def _queue_depths(sim) -> dict:
        """Instantaneous per-class queue depths by resource kind."""
        out: dict = {}
        for kind, resources in (("die", sim.dies), ("channel", sim.channels)):
            merged: dict[str, int] = {}
            for resource in resources:
                for cls, depth in resource.queued_by_class().items():
                    merged[cls] = merged.get(cls, 0) + depth
            merged["total"] = sum(merged.values())
            out[kind] = merged
        return out

    def _slo_values(self, snap: HealthSnapshot) -> dict:
        values = {
            "read_retry_rate": snap.read_retry_rate,
            "refresh_backlog": float(snap.refresh_backlog),
            "ida_exposure": snap.ida_exposure,
            "queue_depth_total": float(
                sum(d.get("total", 0) for d in snap.queue_depth.values())
            ),
        }
        latency = snap.read_latency
        if latency.get("count"):
            values["read_mean_us"] = latency["mean_us"]
            values["read_p50_us"] = latency["p50_us"]
            values["read_p95_us"] = latency["p95_us"]
            values["read_p99_us"] = latency["p99_us"]
        return values

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def series(self) -> list[dict]:
        """The snapshots as JSON-ready dicts, in time order."""
        return [snap.to_dict() for snap in self.snapshots]

    def summary(self) -> dict:
        """Final-state aggregates a manifest can embed without the series."""
        final = self.snapshots[-1] if self.snapshots else None
        return {
            "schema": HEALTH_SCHEMA,
            "samples": len(self.snapshots),
            "wear": dict(final.wear) if final else {},
            "retired_blocks": final.retired_blocks if final else 0,
            "grown_bad_blocks": final.grown_bad_blocks if final else 0,
            "ida_exposure": final.ida_exposure if final else 0.0,
            "refresh_backlog": final.refresh_backlog if final else 0,
            "read_retries": sum(s.read_retries for s in self.snapshots),
            "read_reclaims": sum(s.read_reclaims for s in self.snapshots),
            "uncorrectable_reads": sum(s.uncorrectable_reads for s in self.snapshots),
            "peak_queue_depth": max(
                (
                    sum(d.get("total", 0) for d in s.queue_depth.values())
                    for s in self.snapshots
                ),
                default=0,
            ),
            "max_est_rber": max(
                (g["est_rber"] for s in self.snapshots for g in s.rber_groups),
                default=0.0,
            ),
        }

    def to_payload(self) -> dict:
        """Everything that rides the pool transport, as one JSON dict."""
        payload = {
            "schema": HEALTH_SCHEMA,
            "summary": self.summary(),
            "series": self.series(),
        }
        if self.slo is not None:
            payload["slo"] = self.slo.summary()
        return payload
