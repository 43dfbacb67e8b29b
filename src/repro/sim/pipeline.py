"""Declarative per-op stage pipelines over contended resources.

Every physical flash operation moves through a fixed sequence of
*stages* (Fig. 1 / Sec. II-C):

* **read**:  queue -> ``sense`` (die) -> ``transfer`` (channel) ->
  ``ecc`` (latency-only) — the host-interface overhead is a fixed
  per-request constant added at completion accounting, not a queued
  stage;
* **write**: queue -> ``transfer`` (channel) -> ``program`` (die);
* **adjust** (IDA voltage adjustment): ``adjust`` (die);
* **erase**: ``erase`` (die).

A :class:`Stage` is a declarative ``(resource, duration, name)`` step;
:class:`OpPipeline` walks a tuple of stages, submitting each to its
resource (or, for resource-free stages such as the deeply-pipelined
hardware ECC decoder, scheduling a pure delay) and advancing on
completion.  Observation attaches *generically* at stage boundaries:
when a :class:`PageRecord` is supplied the pipeline notes queue wait and
service time per stage — one code path serves traced and untraced runs,
the untraced case paying only a ``record is None`` check per boundary.

The stage machine replaces the per-op closure webs the simulator grew in
its first iteration: one pipeline object (``__slots__``, bound-method
callbacks, latency-only stages included) instead of two-to-three
closures per op, with identical event scheduling — golden-parity tests
pin the refactor to the float.  The stage tuples themselves are compiled
once per plane by the simulator (:class:`~repro.sim.ssd.SsdSimulator`),
not built per op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..flash.timing import TimingSpec
from .engine import SimEngine
from .resources import IoPriority, Resource

__all__ = [
    "Stage",
    "OpPipeline",
    "PageRecord",
    "RequestSpan",
    "read_stages",
    "write_stages",
    "adjust_stages",
    "erase_stages",
]


@dataclass(frozen=True)
class Stage:
    """One declarative step of an op pipeline.

    Attributes:
        resource: The contended :class:`Resource` serving this stage, or
            ``None`` for a latency-only stage (adds delay, no queueing —
            the model for deeply pipelined hardware like the LDPC
            decoders).
        duration_us: Service time in microseconds.
        name: Stage label observers key on (``"sense"``, ``"transfer"``,
            ``"ecc"``, ``"program"``, ``"adjust"``, ``"erase"``).
    """

    resource: Resource | None
    duration_us: float
    name: str


def read_stages(
    die: Resource,
    channel: Resource,
    timing: TimingSpec,
    senses: int,
    passes: int = 1,
) -> tuple[Stage, ...]:
    """Host/internal page read: sense -> transfer -> ECC decode.

    Read retry re-senses the wordline with shifted voltages ([38]): the
    memory-access stage repeats per pass and the decoder runs per
    attempt, but the page transfers over the channel once, after the
    final successful sense.
    """
    return (
        Stage(die, timing.read_us(senses) * passes, "sense"),
        Stage(channel, timing.transfer_us, "transfer"),
        Stage(None, timing.ecc_decode_us * passes, "ecc"),
    )


def write_stages(
    die: Resource, channel: Resource, timing: TimingSpec
) -> tuple[Stage, ...]:
    """Page program: inbound transfer -> full ISPP program."""
    return (
        Stage(channel, timing.transfer_us, "transfer"),
        Stage(die, timing.program_us, "program"),
    )


def adjust_stages(die: Resource, timing: TimingSpec) -> tuple[Stage, ...]:
    """IDA voltage adjustment: one conservative program per wordline."""
    return (Stage(die, timing.adjust_us(), "adjust"),)


def erase_stages(die: Resource, timing: TimingSpec) -> tuple[Stage, ...]:
    """Block erase."""
    return (Stage(die, timing.erase_us, "erase"),)


class PageRecord:
    """Stage timings of one observed page op as it moves through the pipe."""

    __slots__ = (
        "block",
        "page",
        "senses",
        "retries",
        "submit_us",
        "queue_wait_us",
        "sense_us",
        "transfer_us",
        "ecc_us",
        "program_us",
        "end_us",
    )

    def __init__(
        self, block: int, page: int, senses: int, retries: int, submit_us: float
    ) -> None:
        self.block = block
        self.page = page
        self.senses = senses
        self.retries = retries
        self.submit_us = submit_us
        self.queue_wait_us = 0.0  # die wait + channel wait, accumulated
        self.sense_us = 0.0
        self.transfer_us = 0.0
        self.ecc_us = 0.0
        self.program_us = 0.0
        self.end_us = 0.0

    def note_stage(
        self, name: str, wait_us: float, start_us: float, end_us: float
    ) -> None:
        """Record one completed stage (called by the pipeline)."""
        self.queue_wait_us += wait_us
        duration = end_us - start_us
        if name == "sense":
            self.sense_us = duration
        elif name == "transfer":
            self.transfer_us = duration
        elif name == "ecc":
            self.ecc_us = duration
        elif name == "program":
            self.program_us = duration
        self.end_us = end_us

    def to_dict(self) -> dict:
        return {
            "block": self.block,
            "page": self.page,
            "senses": self.senses,
            "retries": self.retries,
            "queue_wait_us": self.queue_wait_us,
            "sense_us": self.sense_us,
            "transfer_us": self.transfer_us,
            "ecc_us": self.ecc_us,
            "program_us": self.program_us,
            "end_us": self.end_us,
        }


class RequestSpan:
    """Collects per-page stage records for one traced host request.

    Page records are appended as their pipelines complete, so when the
    request's last page op finishes (triggering completion) the final
    record is the critical-path page: its stages, by construction, tile
    the whole ``arrival -> completion`` window.
    """

    __slots__ = ("request", "pages")

    def __init__(self, request) -> None:
        self.request = request
        self.pages: list[PageRecord] = []

    def add_page(self, record: PageRecord) -> None:
        self.pages.append(record)

    def emit(
        self,
        tracer,
        kind: str,
        complete_us: float,
        host_overhead_us: float,
    ) -> None:
        critical = self.pages[-1] if self.pages else None
        payload: dict = {
            "request_id": self.request.request_id,
            "arrival_us": self.request.arrival_us,
            "response_us": complete_us - self.request.arrival_us + host_overhead_us,
            "pages": len(self.pages),
        }
        if critical is not None:
            payload["critical"] = {
                "queue_wait_us": critical.queue_wait_us,
                "sense_us": critical.sense_us,
                "transfer_us": critical.transfer_us,
                "ecc_us": critical.ecc_us,
                "program_us": critical.program_us,
                "host_overhead_us": host_overhead_us,
            }
        payload["stages"] = [page.to_dict() for page in self.pages]
        tracer.emit(complete_us, kind, **payload)


class OpPipeline:
    """Walks one op through its stages on the event engine.

    Args:
        engine: The simulation clock.
        stages: The declarative stage tuple (from the builders above).
        klass: Dispatch class for resource accounting.
        queue: Resource queue class the scheduling policy mapped this op
            to (read-first maps it to ``klass`` itself).
        on_done: Completion callback ``(start_us, end_us)`` where
            ``start_us`` is the service start of the last *resource*
            stage and ``end_us`` the pipeline end (including trailing
            latency-only stages) — the contract every completion sink
            (request trackers, internal chains) consumes.
        span: Optional :class:`RequestSpan` the finished record joins.
        record: Optional :class:`PageRecord` noting stage boundaries.
        profile: Optional profiler op context
            (:class:`~repro.obs.profiler.ProfiledOp`) fed the same stage
            boundaries plus resource identity; unprofiled runs pay one
            ``is None`` check per boundary, exactly like ``record``.
        fault: Optional fault-injection op context
            (:class:`~repro.faults.injector.FaultedOp`) — present only on
            the (rare) ops a bound FaultPlan marked as failing, fed the
            same stage boundaries; fault-free runs pay the same single
            ``is None`` check as ``record`` and ``profile``.
    """

    __slots__ = (
        "engine",
        "stages",
        "klass",
        "queue",
        "on_done",
        "span",
        "record",
        "profile",
        "fault",
        "_index",
        "_submit_us",
        "_last_start_us",
    )

    def __init__(
        self,
        engine: SimEngine,
        stages: tuple[Stage, ...],
        klass: IoPriority,
        queue: IoPriority,
        on_done: Callable[[float, float], None],
        span: RequestSpan | None = None,
        record: PageRecord | None = None,
        profile=None,
        fault=None,
    ) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.engine = engine
        self.stages = stages
        self.klass = klass
        self.queue = queue
        self.on_done = on_done
        self.span = span
        self.record = record
        self.profile = profile
        self.fault = fault
        self._index = 0
        self._submit_us = 0.0
        self._last_start_us = 0.0

    def start(self) -> None:
        """Submit the first stage; the rest chain on completions."""
        self._dispatch()

    def _dispatch(self) -> None:
        stage = self.stages[self._index]
        engine = self.engine
        now = self._submit_us = engine.now
        resource = stage.resource
        if resource is not None:
            resource.submit(self.klass, stage.duration_us, self._stage_done, self.queue)
        else:
            engine.push(now + stage.duration_us, self._latency_done)

    def _latency_done(self) -> None:
        """End of a latency-only stage: it started at submission and its
        event fires at exactly ``submit + duration``."""
        self._stage_done(self._submit_us, self.engine.now)

    def _stage_done(self, start_us: float, end_us: float) -> None:
        stage = self.stages[self._index]
        if self.record is not None:
            self.record.note_stage(
                stage.name, start_us - self._submit_us, start_us, end_us
            )
        if self.profile is not None:
            self.profile.note_stage(stage, self._submit_us, start_us, end_us)
        if self.fault is not None:
            self.fault.note_stage(stage, self._submit_us, start_us, end_us)
        if stage.resource is not None:
            self._last_start_us = start_us
        self._index += 1
        if self._index < len(self.stages):
            self._dispatch()
            return
        if self.record is not None and self.span is not None:
            self.span.add_page(self.record)
        if self.profile is not None:
            self.profile.complete(end_us)
        self.on_done(self._last_start_us, end_us)
