"""Sim-time profiler: where does simulated time actually go?

The paper's headline claim — IDA coding cuts read response ~28% by
removing senses — is a claim about *time attribution*: sense service vs
queue wait vs transfer vs ECC.  This module turns the stage records the
op pipeline already keeps into that attribution story:

* **per-request latency attribution** — queue wait vs service time,
  split by stage (``sense`` / ``transfer`` / ``ecc`` / ``program`` /
  ``adjust`` / ``erase``) and by resource class (die / channel /
  latency-only pipeline), with a conservation invariant: for every
  completed request, critical-path queue wait + per-stage service +
  host overhead equals the recorded end-to-end response time;
* **per-resource timelines** — busy fraction and queue depth per
  resource class on the :class:`~repro.obs.interval.IntervalCollector`
  cadence, including the per-dispatch-class busy split (how much die
  time went to host reads vs writes vs internal work);
* **contention attribution** — who each class waited behind, from
  :meth:`Resource.wait_class_breakdown`: time a read spent queued
  behind a write that *started* during its wait vs behind the op
  already in service when it arrived (non-preemptive exposure);
* **exporters** — Chrome trace-event JSON (loadable in Perfetto or
  speedscope: one track per resource, one flow per request) via
  :meth:`SimProfiler.to_chrome_trace`, and a compact aggregate dict via
  :meth:`SimProfiler.aggregate` that run manifests embed and parallel
  sweeps transport.

Every observed op keeps one :class:`~repro.sim.pipeline.OpRecord` of
its ``(stage, submit, start, end)`` boundaries, and every observed host
request one :class:`~repro.sim.pipeline.RequestRecord` of its ops in
completion order.  The op's record hands each stage to
:meth:`SimProfiler.on_stage` as it ends (the per-stage and per-class
sums), and the request's completion hands its record to
:meth:`SimProfiler.end_request` (the critical-path attribution and the
request's flow); the tracer and the fault injector read the same
records.  The timeline samples ride the interval collector: each closed
:class:`~repro.obs.interval.IntervalSnapshot` supplies the busy
fractions and queue depths, and the profiler adds the per-class die
split.

Profiling is *passive*: hooks read clocks and counters, never schedule
events or touch RNG streams, so a profiled run produces byte-identical
metrics to an unprofiled one.  A run without a profiler or other
observer builds no records and pays one ``obs is None`` check per stage
boundary.  The profiler itself is
picklable (live resource references are dropped and replaced by their
captured summaries), so aggregated profiles survive the
``RunResultPayload`` transport of ``--jobs`` sweeps.
"""

from __future__ import annotations

from ..sim.resources import (
    IoPriority,
    aggregate_queue_waits,
    aggregate_wait_breakdown,
    mean_utilisation,
)

__all__ = [
    "SimProfiler",
    "validate_chrome_trace",
]

#: Profile aggregate schema version (bumped on breaking shape changes).
PROFILE_SCHEMA = 1

#: ``IoPriority`` -> the class label stage cells are keyed by.
_CLASS_NAMES = tuple(klass.name.lower() for klass in IoPriority)


def _where(stage) -> tuple[str, int]:
    """``(resource kind, index)`` a stage ran on; ``("pipeline", 0)``
    for a latency-only stage."""
    resource = stage.resource
    if resource is None:
        return "pipeline", 0
    return resource.kind, resource.index


def _new_stage_cell() -> dict:
    return {"count": 0, "wait_us": 0.0, "service_us": 0.0}


def _new_request_cell() -> dict:
    return {
        "count": 0,
        "response_us": 0.0,
        "queue_wait_us": 0.0,
        "host_overhead_us": 0.0,
        "service_us": {},
    }


class SimProfiler:
    """Consumer of the pipeline's per-op stage records.

    Args:
        keep_events: Retain per-stage slice events for the Chrome trace
            exporter.  Disable for aggregate-only profiling (the worker
            side of a parallel sweep) — attribution, timelines and the
            contention breakdown are unaffected.
        max_events: Hard cap on retained slice events; beyond it new
            slices are counted in ``events_dropped`` instead of stored,
            bounding memory on long runs.

    Lifecycle (all calls made by the simulator/driver layers):
    ``bind`` -> ``start_run`` -> {``on_stage`` / ``end_request`` /
    ``sample_interval``}* -> ``finish_run``.
    """

    def __init__(self, keep_events: bool = True, max_events: int = 200_000) -> None:
        self.keep_events = keep_events
        self.max_events = max_events
        self.events_dropped = 0
        # Live simulator attachments (dropped on pickling).
        self._dies: list = []
        self._channels: list = []
        # (klass, stage, res_kind) -> {count, wait_us, service_us}
        self._stages: dict[tuple[str, str, str], dict] = {}
        # "read"/"write" -> request-attribution cell
        self._requests: dict[str, dict] = {}
        #: Largest |response - (wait + service + overhead)| seen — the
        #: conservation residual tests and fig_breakdown assert on.
        self.max_residual_us = 0.0
        # Slice events: (name, res_kind, res_index, ts, dur, request_id)
        self._events: list[tuple] = []
        # Flow endpoints: (phase "s"/"f", res_kind, res_index, ts, request_id)
        self._flows: list[tuple] = []
        self._timeline: list[dict] = []
        self._die_class_base = [0.0] * len(IoPriority)
        self._run: dict = {"start_us": None, "end_us": None, "elapsed_us": 0.0}
        self._resources_summary: dict | None = None

    # ------------------------------------------------------------------
    # Simulator wiring
    # ------------------------------------------------------------------
    def bind(self, dies: list, channels: list) -> None:
        """Attach to a simulator's resources and arm per-resource wait
        profiling."""
        self._dies = dies
        self._channels = channels
        for resource in (*dies, *channels):
            resource.enable_wait_profile()

    def start_run(self, now_us: float) -> None:
        self._run["start_us"] = now_us
        self._die_class_base = [
            sum(r.busy_us_by_class[k] for r in self._dies) for k in IoPriority
        ]

    def finish_run(self, now_us: float, elapsed_us: float) -> None:
        self._run["end_us"] = now_us
        self._run["elapsed_us"] = elapsed_us
        self._resources_summary = self._capture_resources(elapsed_us)

    # ------------------------------------------------------------------
    # Hooks (hot path)
    # ------------------------------------------------------------------
    def on_stage(
        self, record, stage, submit_us: float, start_us: float, end_us: float
    ) -> None:
        """One stage of a profiled op ended (called by its
        :class:`~repro.sim.pipeline.OpRecord`)."""
        res_kind, res_index = _where(stage)
        wait_us = start_us - submit_us
        key = (_CLASS_NAMES[record.klass], stage.name, res_kind)
        cell = self._stages.get(key)
        if cell is None:
            cell = self._stages[key] = _new_stage_cell()
        cell["count"] += 1
        cell["wait_us"] += wait_us
        cell["service_us"] += end_us - start_us
        if self.keep_events:
            if len(self._events) < self.max_events:
                request = record.request
                self._events.append(
                    (stage.name, res_kind, res_index, start_us, end_us - start_us,
                     None if request is None else request.request.request_id)
                )
            else:
                self.events_dropped += 1

    def end_request(
        self, record, kind: str, complete_us: float, host_overhead_us: float
    ) -> None:
        """Fold one completed request into the attribution aggregates.

        ``record`` is the request's
        :class:`~repro.sim.pipeline.RequestRecord`; its last op is the
        critical path.  ``kind`` is ``"read"`` or ``"write"``.
        """
        request = record.request
        response = complete_us - request.arrival_us + host_overhead_us
        cell = self._requests.get(kind)
        if cell is None:
            cell = self._requests[kind] = _new_request_cell()
        cell["count"] += 1
        cell["response_us"] += response
        cell["host_overhead_us"] += host_overhead_us
        attributed = host_overhead_us
        ops = record.ops
        if ops:
            service = cell["service_us"]
            for stage, submit, start, end in ops[-1].stages:
                wait = start - submit
                cell["queue_wait_us"] += wait
                service[stage.name] = service.get(stage.name, 0.0) + (end - start)
                attributed += wait + (end - start)
        self.max_residual_us = max(self.max_residual_us, abs(response - attributed))
        if self.keep_events and ops:
            first = ops[0].stages
            last = ops[-1].stages
            if first and last:
                request_id = request.request_id
                self._flows.append(("s", *_where(first[0][0]), first[0][2], request_id))
                self._flows.append(("f", *_where(last[-1][0]), last[-1][2], request_id))

    def sample_interval(self, snapshot) -> None:
        """Close one timeline sample at an interval the collector closed.

        Busy fractions and queue depths are the collector's
        :class:`~repro.obs.interval.IntervalSnapshot`'s; only the die
        busy split per dispatch class is measured here.
        """
        elapsed = snapshot.end_us - snapshot.start_us
        n_dies = len(self._dies)
        die_class = [
            sum(r.busy_us_by_class[k] for r in self._dies) for k in IoPriority
        ]

        def frac(busy: float, base: float) -> float:
            if elapsed <= 0 or n_dies == 0:
                return 0.0
            return min(1.0, (busy - base) / (n_dies * elapsed))

        self._timeline.append(
            {
                "start_us": snapshot.start_us,
                "end_us": snapshot.end_us,
                "die_busy_frac": snapshot.die_utilisation,
                "channel_busy_frac": snapshot.channel_utilisation,
                "die_busy_by_class": {
                    k.name.lower(): frac(die_class[k], self._die_class_base[k])
                    for k in IoPriority
                },
                "die_queue_depth": snapshot.die_queue_depth,
                "channel_queue_depth": snapshot.channel_queue_depth,
            }
        )
        self._die_class_base = die_class

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _capture_resources(self, elapsed_us: float) -> dict:
        return {
            "utilisation": {
                "die": mean_utilisation(self._dies, elapsed_us),
                "channel": mean_utilisation(self._channels, elapsed_us),
            },
            "queue_waits": {
                "die": aggregate_queue_waits(self._dies),
                "channel": aggregate_queue_waits(self._channels),
            },
            "wait_classes": {
                "die": aggregate_wait_breakdown(self._dies),
                "channel": aggregate_wait_breakdown(self._channels),
            },
        }

    def request_attribution(self, kind: str = "read") -> dict | None:
        """Mean end-to-end attribution of one request kind, or ``None``.

        The returned dict carries ``mean_response_us`` plus mean
        ``queue_wait_us`` / per-stage service / ``host_overhead_us``
        components that sum back to it (within ``max_residual_us``).
        """
        cell = self._requests.get(kind)
        if cell is None or cell["count"] == 0:
            return None
        n = cell["count"]
        return {
            "count": n,
            "mean_response_us": cell["response_us"] / n,
            "mean_queue_wait_us": cell["queue_wait_us"] / n,
            "mean_host_overhead_us": cell["host_overhead_us"] / n,
            "mean_service_us": {
                stage: total / n for stage, total in sorted(cell["service_us"].items())
            },
        }

    def aggregate(self) -> dict:
        """Compact, JSON-ready profile for manifests and sweep transport."""
        if self._resources_summary is None and self._dies:
            self._resources_summary = self._capture_resources(
                self._run["elapsed_us"]
            )
        stages: dict[str, dict] = {}
        for (klass, stage, res_kind), cell in sorted(self._stages.items()):
            row = stages.setdefault(klass, {})
            row[stage] = {
                "resource": res_kind,
                "count": cell["count"],
                "wait_us": cell["wait_us"],
                "service_us": cell["service_us"],
            }
        return {
            "schema": PROFILE_SCHEMA,
            "run": dict(self._run),
            "requests": {
                kind: self.request_attribution(kind)
                for kind in sorted(self._requests)
            },
            "stages": stages,
            "resources": self._resources_summary or {},
            "timeline": list(self._timeline),
            "max_residual_us": self.max_residual_us,
            "events_kept": len(self._events),
            "events_dropped": self.events_dropped,
        }

    def to_chrome_trace(self) -> dict:
        """Export slice events as Chrome trace-event JSON.

        One process per resource class (``die`` / ``channel`` /
        ``pipeline``), one thread per resource instance, one complete
        ("X") event per stage, one flow per request, and per-interval
        counter tracks for queue depth.  Load the file in
        https://ui.perfetto.dev or ``chrome://tracing``.
        """
        pids: dict[str, int] = {}
        threads: set[tuple[int, int]] = set()
        meta: list[dict] = []

        def pid_of(kind: str) -> int:
            pid = pids.get(kind)
            if pid is None:
                pid = pids[kind] = len(pids) + 1
                meta.append(
                    {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                     "args": {"name": kind}}
                )
            return pid

        def tid_of(kind: str, index: int) -> tuple[int, int]:
            pid = pid_of(kind)
            if (pid, index) not in threads:
                threads.add((pid, index))
                meta.append(
                    {"ph": "M", "name": "thread_name", "pid": pid, "tid": index,
                     "args": {"name": f"{kind} {index}"}}
                )
            return pid, index

        slices: list[dict] = []
        for name, kind, index, ts, dur, request_id in self._events:
            pid, tid = tid_of(kind, index)
            event = {
                "ph": "X", "name": name, "cat": "stage",
                "pid": pid, "tid": tid, "ts": ts, "dur": dur,
            }
            if request_id is not None:
                event["args"] = {"request_id": request_id}
            slices.append(event)
        for phase, kind, index, ts, request_id in self._flows:
            pid, tid = tid_of(kind, index)
            event = {
                "ph": phase, "name": "request", "cat": "request",
                "id": request_id, "pid": pid, "tid": tid, "ts": ts,
            }
            if phase == "f":
                event["bp"] = "e"
            slices.append(event)
        for sample in self._timeline:
            pid = pid_of("timeline")
            slices.append(
                {"ph": "C", "name": "queue depth", "pid": pid, "tid": 0,
                 "ts": sample["start_us"],
                 "args": {"die": sample["die_queue_depth"],
                          "channel": sample["channel_queue_depth"]}}
            )
        slices.sort(key=lambda e: e["ts"])
        return {
            "traceEvents": meta + slices,
            "displayTimeUnit": "ms",
            "otherData": {
                "profile_schema": PROFILE_SCHEMA,
                "events_dropped": self.events_dropped,
            },
        }

    # ------------------------------------------------------------------
    # Pickling (parallel-sweep transport)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Live resources (holding engine references) cannot cross a
        # process boundary; capture their summary now and drop them.
        if self._resources_summary is None and self._dies:
            self._resources_summary = self._capture_resources(
                self._run["elapsed_us"]
            )
        state = self.__dict__.copy()
        state["_dies"] = []
        state["_channels"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def validate_chrome_trace(trace: dict) -> list[str]:
    """Check a Chrome trace-event dict against the schema subset we emit.

    Returns a list of problems (empty = valid): non-monotonic ``ts``
    among non-metadata events, "X" events without a non-negative ``dur``,
    unstable pid/tid for a resource thread name, and unpaired flow ids.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts = None
    thread_names: dict[tuple[int, int], str] = {}
    flow_starts: set = set()
    flow_ends: set = set()
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "thread_name":
                key = (event["pid"], event["tid"])
                name = event["args"]["name"]
                if thread_names.get(key, name) != name:
                    problems.append(f"event {i}: pid/tid {key} renamed")
                thread_names[key] = name
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: missing ts")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i}: ts {ts} < previous {last_ts}")
        last_ts = ts
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: X event without non-negative dur")
        elif ph == "s":
            flow_starts.add(event.get("id"))
        elif ph == "f":
            flow_ends.add(event.get("id"))
        elif ph not in ("C", "t"):
            problems.append(f"event {i}: unexpected phase {ph!r}")
    for missing in sorted(flow_starts - flow_ends):
        problems.append(f"flow {missing}: started but never finished")
    for missing in sorted(flow_ends - flow_starts):
        problems.append(f"flow {missing}: finished but never started")
    return problems
