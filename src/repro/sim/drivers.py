"""Workload drivers: how a host request stream is fed to the simulator.

Two driving disciplines, mirroring the paper's evaluation:

* **open loop** (:func:`run_open_loop`) — replay requests at their trace
  arrival times (Figs. 8, 9, 11: response-time artifacts);
* **closed loop** (:func:`run_closed_loop`) — ignore arrival times and
  keep a fixed number of requests outstanding (Fig. 10: device-bound
  throughput; an open-loop replay's throughput is pinned to the trace's
  arrival rate and cannot show a device improvement).

Both drivers own the run choreography around the simulator: admitting
request dispatches (open loop: one sorted stream through
:meth:`~repro.sim.engine.SimEngine.add_stream`), scheduling untimed
background-update batches, ticking the refresh daemon, bracketing the
run for the simulator's :class:`~repro.obs.instruments.Telemetry`, and
folding counters when the queues drain.  The simulator itself only
knows how to dispatch *one* request — everything stream-shaped lives
here, so new disciplines (bursty arrivals, rate-limited replay,
multi-tenant interleaving) are additive modules rather than simulator
surgery.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING

from .metrics import SimMetrics
from .scheduler import HostRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ssd import SsdSimulator

__all__ = ["run_open_loop", "run_closed_loop"]


def check_lpns(where: str, lpns, total: int) -> None:
    """Reject any of ``lpns`` outside the device's page space.

    An out-of-range LPN would otherwise fail deep inside the FTL: a
    negative one with an ``IndexError`` from the forward map, a huge one
    by growing the map to that many entries.

    Raises:
        ValueError: naming ``where`` and the first LPN outside
            ``0 <= lpn < total``.
    """
    if len(lpns) and (min(lpns) < 0 or max(lpns) >= total):
        bad = next(lpn for lpn in lpns if not 0 <= lpn < total)
        raise ValueError(
            f"{where}: LPN {bad} is outside the device's 0 <= lpn < {total}"
        )


def _check_lpns(
    sim: "SsdSimulator",
    requests: list[HostRequest],
    background_updates: list[tuple[float, list[int]]] | None,
) -> None:
    """Check every request and background batch before the run starts."""
    total = sim.geometry.total_pages
    for request in requests:
        check_lpns(f"request {request.request_id}", request.lpns, total)
    for time_us, lpns in background_updates or []:
        check_lpns(f"background batch at {time_us} us", lpns, total)


def _schedule_background(
    sim: "SsdSimulator",
    background_updates: list[tuple[float, list[int]]] | None,
) -> None:
    """Apply each untimed background-update batch at its sim time."""
    for time_us, lpns in background_updates or []:

        def apply(lpns=lpns) -> None:
            sim.ftl.apply_untimed_batch(lpns, sim.engine.now)

        sim.engine.at(time_us, apply)


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
    _check_lpns(sim, requests, background_updates)
    ordered = sorted(requests, key=lambda r: r.arrival_us)

    read, write = sim.dispatch_read, sim.dispatch_write
    sim.engine.add_stream(
        (request.arrival_us, partial(read if request.is_read else write, request))
        for request in ordered
    )
    _schedule_background(sim, background_updates)

    # Refresh daemon: scan on the FTL's cadence until the trace ends.
    trace_end = ordered[-1].arrival_us
    interval = sim.ftl.scan_interval_us

    def tick() -> None:
        sim.issue_internal_sequence(sim.ftl.check_refresh(sim.engine.now))
        if sim.engine.now + interval <= trace_end:
            sim.engine.after(interval, tick)

    if interval <= trace_end:
        sim.engine.after(interval, tick)

    sim.telemetry.begin_run(sim, "open_loop", len(ordered))
    sim.engine.run()
    sim.metrics.start_us = ordered[0].arrival_us
    sim.metrics.end_us = sim.engine.now
    sim.fold_counters()
    sim.telemetry.end_run(sim)
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
    _check_lpns(sim, requests, background_updates)
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
    _schedule_background(sim, background_updates)

    # No refresh daemon deadline in closed-loop mode: scan on a fixed
    # cadence until the stream completes, then let the queues drain.
    interval = sim.ftl.scan_interval_us

    def refresh_tick() -> None:
        sim.issue_internal_sequence(sim.ftl.check_refresh(sim.engine.now))
        if not done_event[0]:
            sim.engine.after(interval, refresh_tick)

    sim.engine.after(interval, refresh_tick)
    sim.telemetry.begin_run(sim, "closed_loop", total)
    sim.engine.run()
    sim.metrics.start_us = 0.0
    sim.metrics.end_us = sim.engine.now
    sim.fold_counters()
    sim.telemetry.end_run(sim)
    return sim.metrics
