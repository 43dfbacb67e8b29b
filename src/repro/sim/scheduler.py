"""Host request tracking and completion accounting.

A host request fans out into one physical page op per logical page; the
request completes when its last page op does.  One
:class:`RequestCompletion` per request owns that bookkeeping, so the
simulator's dispatch code stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .resources import IoPriority

__all__ = ["HostRequest", "RequestCompletion", "TransferHandoff"]

_HOST_READ = IoPriority.HOST_READ


@dataclass(frozen=True)
class HostRequest:
    """One host I/O request, already translated to logical pages.

    Attributes:
        request_id: Monotone id (trace order).
        arrival_us: Issue time on the simulated clock.
        is_read: Read vs write.
        lpns: Logical page numbers the request covers.
        size_bytes: Transfer size (for throughput accounting).
    """

    request_id: int
    arrival_us: float
    is_read: bool
    lpns: tuple[int, ...]
    size_bytes: int

    def __post_init__(self) -> None:
        if not self.lpns:
            raise ValueError("a request must cover at least one page")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")


class RequestCompletion:
    """One in-flight host request, counted down by its pages, holding what
    completion feeds (``stats``, bytes, ``observe``, ``record``, the hooks).

    A per-page pipeline ends in :meth:`page_done`; a folded read's page
    ends in :meth:`transferred`, and the last posts the request's one ECC
    event at ``end + latency_us``."""

    __slots__ = (
        "sim", "request", "remaining", "stats", "observe", "record",
        "on_request_done", "latency_us",
    )

    def __init__(self, sim, request: HostRequest, pages: int, record, on_request_done):
        if pages < 1:
            raise ValueError("a request needs at least one page op")
        self.sim, self.request, self.remaining = sim, request, pages
        metrics, observer = sim.metrics, sim.completion_observer
        read = request.is_read
        self.stats = metrics.read_response if read else metrics.write_response
        self.observe = None if observer is None else (
            observer.record_read if read else observer.record_write
        )
        self.record, self.on_request_done, self.latency_us = record, on_request_done, None

    def page_done(self, start_us: float, end_us: float) -> None:
        self.remaining -= 1
        if not self.remaining:
            self.complete(end_us)
        elif self.remaining < 0:
            raise RuntimeError("request already complete")

    def transferred(self, start_us: float, end_us: float) -> None:
        self.remaining -= 1
        if not self.remaining:
            self.sim.engine.push(end_us + self.latency_us, self._decoded)
        elif self.remaining < 0:
            raise RuntimeError("request already complete")

    def _decoded(self) -> None:
        self.complete(self.sim.engine.now)

    def complete(self, now_us: float) -> None:
        """Account the response at ``now_us``, then call back."""
        sim, request, record = self.sim, self.request, self.record
        overhead_us = sim.timing.host_overhead_us
        response = now_us - request.arrival_us + overhead_us
        self.stats.add(response)
        if request.is_read:
            sim.metrics.bytes_read += request.size_bytes
        else:
            sim.metrics.bytes_written += request.size_bytes
        if self.observe is not None:
            self.observe(response, request.size_bytes)
        if record is not None:
            kind = "read" if request.is_read else "write"
            if sim.tracer.enabled:
                record.emit(sim.tracer, kind + "_span", now_us, overhead_us)
            if sim.profiler is not None:
                sim.profiler.end_request(record, kind, now_us, overhead_us)
        if sim.on_host_request_complete is not None:
            sim.on_host_request_complete(request, request.is_read)
        if self.on_request_done is not None:
            self.on_request_done()


class TransferHandoff:
    """A folded read request's hand-off to one of its channels: a page's
    sense ends in :meth:`sensed`, which submits its transfer there."""

    __slots__ = ("channel", "duration", "completion", "queue")

    def __init__(self, channel, duration: float, completion, queue) -> None:
        self.channel, self.duration = channel, duration
        self.completion, self.queue = completion, queue

    def sensed(self, start_us: float, end_us: float) -> None:
        self.channel.submit(
            _HOST_READ, self.duration, self.completion.transferred, self.queue
        )
