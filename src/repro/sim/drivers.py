"""Workload drivers: how a host request stream is fed to the simulator.

Two driving disciplines, mirroring the paper's evaluation:

* **open loop** (:func:`run_open_loop`) — replay requests at their trace
  arrival times (Figs. 8, 9, 11: response-time artifacts);
* **closed loop** (:func:`run_closed_loop`) — ignore arrival times and
  keep a fixed number of requests outstanding (Fig. 10: device-bound
  throughput; an open-loop replay's throughput is pinned to the trace's
  arrival rate and cannot show a device improvement).

Both drivers own the run choreography around the simulator: scheduling
request dispatches, applying untimed background-update batches, ticking
the refresh daemon, bracketing the run for the tracer / interval
collector, and folding counters when the queues drain.  The simulator
itself only knows how to dispatch *one* request — everything stream-
shaped lives here, so new disciplines (bursty arrivals, rate-limited
replay, multi-tenant interleaving) are additive modules rather than
simulator surgery.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .metrics import SimMetrics
from .scheduler import HostRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ssd import SsdSimulator

__all__ = ["run_open_loop", "run_closed_loop"]


def _begin_run(sim: "SsdSimulator", mode: str, n_requests: int) -> None:
    if sim.collector is not None:
        sim.collector.start()
    if sim.profiler is not None:
        sim.profiler.start_run(sim.engine.now)
    if sim.tracer.enabled:
        sim.tracer.emit(
            sim.engine.now,
            "run_start",
            mode=mode,
            requests=n_requests,
            policy=sim.policy.name,
            dies=len(sim.dies),
            channels=len(sim.channels),
        )


def _end_run(sim: "SsdSimulator") -> None:
    if sim.collector is not None:
        sim.collector.finish()
    if sim.profiler is not None:
        sim.profiler.finish_run(sim.engine.now, sim.metrics.elapsed_us)
    if sim.tracer.enabled:
        sim.tracer.emit(
            sim.engine.now,
            "run_end",
            elapsed_us=sim.metrics.elapsed_us,
            reads=sim.metrics.read_response.count,
            writes=sim.metrics.write_response.count,
            utilisation=sim.utilisation_report(),
            events_processed=sim.engine.processed,
            peak_pending_events=sim.engine.peak_pending,
        )


def run_open_loop(
    sim: "SsdSimulator",
    requests: list[HostRequest],
    background_updates: list[tuple[float, list[int]]] | None = None,
) -> SimMetrics:
    """Replay a timed host request stream to completion and drain.

    Args:
        sim: The simulator under test.
        requests: The timed host requests.
        background_updates: Optional ``(time_us, lpns)`` batches of
            *untimed* update writes applied at the given simulation
            times.  This is the trace-sampling device the experiment
            runner uses: only a subset of a long trace's requests is
            replayed with timing, but the full update rate is applied
            logically so page-invalidation state evolves as in the
            original trace (see DESIGN.md).

    Returns the populated metrics object (also at ``sim.metrics``).
    """
    if not requests:
        raise ValueError("empty request stream")
    ordered = sorted(requests, key=lambda r: r.arrival_us)

    def make_dispatch(request: HostRequest):
        def dispatch() -> None:
            if request.is_read:
                sim.dispatch_read(request)
            else:
                sim.dispatch_write(request)

        return dispatch

    sim.backend.admit_requests(sim, ordered, make_dispatch)
    sim.backend.schedule_background(sim, background_updates)

    # Refresh daemon: scan on the FTL's cadence until the trace ends.
    trace_end = ordered[-1].arrival_us
    interval = sim.ftl.scan_interval_us

    def tick() -> None:
        sim.issue_internal_sequence(sim.ftl.check_refresh(sim.engine.now))
        if sim.engine.now + interval <= trace_end:
            sim.engine.after(interval, tick)

    if interval <= trace_end:
        sim.engine.after(interval, tick)

    _begin_run(sim, "open_loop", len(ordered))
    sim.backend.drain(sim)
    sim.metrics.start_us = ordered[0].arrival_us
    sim.metrics.end_us = sim.engine.now
    sim.fold_counters()
    _end_run(sim)
    return sim.metrics


def run_closed_loop(
    sim: "SsdSimulator",
    requests: list[HostRequest],
    queue_depth: int = 32,
    background_updates: list[tuple[float, list[int]]] | None = None,
) -> SimMetrics:
    """Run the request stream closed-loop at a fixed queue depth.

    Arrival times are ignored: the host keeps ``queue_depth`` requests
    outstanding, issuing the next one whenever one completes.
    """
    if not requests:
        raise ValueError("empty request stream")
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    pending = deque(requests)
    total = len(pending)
    completed = 0
    done_event: list[bool] = [False]

    def issue_next() -> None:
        if not pending:
            return
        request = pending.popleft()
        rebased = HostRequest(
            request_id=request.request_id,
            arrival_us=sim.engine.now,
            is_read=request.is_read,
            lpns=request.lpns,
            size_bytes=request.size_bytes,
        )
        if rebased.is_read:
            sim.dispatch_read(rebased, on_request_done=on_done)
        else:
            sim.dispatch_write(rebased, on_request_done=on_done)

    def on_done() -> None:
        nonlocal completed
        completed += 1
        if completed >= total:
            done_event[0] = True
            return
        issue_next()

    for _ in range(min(queue_depth, total)):
        sim.engine.after(0.0, issue_next)
    sim.backend.schedule_background(sim, background_updates)

    # No refresh daemon deadline in closed-loop mode: scan on a fixed
    # cadence until the stream completes, then let the queues drain.
    interval = sim.ftl.scan_interval_us

    def refresh_tick() -> None:
        sim.issue_internal_sequence(sim.ftl.check_refresh(sim.engine.now))
        if not done_event[0]:
            sim.engine.after(interval, refresh_tick)

    sim.engine.after(interval, refresh_tick)
    _begin_run(sim, "closed_loop", total)
    sim.backend.drain(sim)
    sim.metrics.start_us = 0.0
    sim.metrics.end_us = sim.engine.now
    sim.fold_counters()
    _end_run(sim)
    return sim.metrics
