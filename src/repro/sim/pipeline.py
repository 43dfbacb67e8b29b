"""Per-op stage programs over contended resources.

Every physical flash operation moves through a fixed sequence of
*stages* (Fig. 1 / Sec. II-C):

* **read**:  queue -> ``sense`` (die) -> ``transfer`` (channel) ->
  ``ecc`` (latency-only) — the host-interface overhead is a fixed
  per-request constant added at completion accounting, not a queued
  stage; an unobserved host read request submits each page's sense and
  transfer itself, with no pipeline, and completes with one
  request-level ECC event (see :mod:`repro.sim.scheduler`);
* **write**: queue -> ``transfer`` (channel) -> ``program`` (die);
* **adjust** (IDA voltage adjustment): ``adjust`` (die);
* **erase**: ``erase`` (die).

A :class:`Stage` is a declarative ``(resource, duration, name)`` step and
the builders below return the stage tuple of each op kind.  The
simulator compiles each tuple once into an :class:`OpPlan` — one or two
resource stages plus an optional trailing latency-only stage (the
deeply pipelined hardware ECC decoder adds delay without queueing) — and
an :class:`OpPipeline` runs one op through it.  Each stage boundary is a
bound method that submits the next stage directly (or pushes the
latency stage's event straight onto the engine heap), with no generic
stage walk in between.  A host page op gets a fresh pipeline; an
internal GC / refresh chain is one pipeline re-armed for each of its
ops (``plan`` and ``obs`` set anew, then :meth:`OpPipeline.start`), so
both run the same boundary methods.

Observation attaches at those boundaries through one slot, ``obs``: an
:class:`OpRecord` of the op's ``(stage, submit, start, end)`` tuples,
which joins its host request's :class:`RequestRecord` when the op ends
and hands each stage to a profiler, if one is attached.  The tracer's
request span, the profiler's attribution and the fault injector's
record are all read from these two records, and an unobserved op builds
none and pays one ``is None`` check per boundary.  Golden-parity tests
pin the event order of this machine to the float.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Callable

from ..flash.timing import TimingSpec
from .engine import SimEngine
from .resources import IoPriority, Resource

__all__ = [
    "Stage",
    "OpPlan",
    "OpPipeline",
    "OpRecord",
    "RequestRecord",
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


#: Stage names a traced page entry reports a service time for.
_SPAN_STAGES = ("sense", "transfer", "ecc", "program")


class OpRecord:
    """The stage timings of one observed op, noted as its pipeline runs.

    ``stages`` holds one ``(stage, submit_us, start_us, end_us)`` tuple
    per finished stage, in order: the stage was submitted at
    ``submit_us`` and served over ``[start_us, end_us]``.  The tracer's
    request span, the profiler's request attribution and the fault
    injector's record all read it.  An op that belongs to an observed
    host request joins its :class:`RequestRecord` when it completes; a
    profiler, when attached, is also handed each stage as it ends.

    Attributes:
        op: The :class:`~repro.ftl.ops.PhysOp` being timed.
        retries: Read-retry count the op drew (``0`` for other ops).
        klass: Its dispatch class.
        request: The owning :class:`RequestRecord`, or ``None``.
        profiler: The attached :class:`~repro.obs.profiler.SimProfiler`,
            or ``None``.
        fault: The injector's :class:`~repro.faults.injector.FaultedOp`
            when the plan fails this op, else ``None``.
    """

    __slots__ = ("op", "retries", "klass", "request", "profiler", "fault", "stages")

    def __init__(
        self,
        op,
        retries: int,
        klass: IoPriority,
        request: "RequestRecord | None" = None,
        profiler=None,
        fault=None,
    ) -> None:
        self.op = op
        self.retries = retries
        self.klass = klass
        self.request = request
        self.profiler = profiler
        self.fault = fault
        self.stages: list[tuple[Stage, float, float, float]] = []

    def note_stage(
        self, stage: Stage, submit_us: float, start_us: float, end_us: float
    ) -> None:
        """One stage finished (called by the pipeline)."""
        self.stages.append((stage, submit_us, start_us, end_us))
        if self.profiler is not None:
            self.profiler.on_stage(self, stage, submit_us, start_us, end_us)

    def complete(self) -> None:
        """The op's last stage finished (called before ``on_done``)."""
        if self.request is not None:
            self.request.ops.append(self)

    def to_dict(self) -> dict:
        """The op's entry in a traced request span."""
        op = self.op
        entry = {
            "block": op.block_index,
            "page": op.page if op.page is not None else -1,
            "senses": op.senses,
            "retries": self.retries,
            "queue_wait_us": 0.0,  # die wait + channel wait, accumulated
            "sense_us": 0.0,
            "transfer_us": 0.0,
            "ecc_us": 0.0,
            "program_us": 0.0,
            "end_us": 0.0,
        }
        for stage, submit_us, start_us, end_us in self.stages:
            entry["queue_wait_us"] += start_us - submit_us
            if stage.name in _SPAN_STAGES:
                entry[stage.name + "_us"] = end_us - start_us
            entry["end_us"] = end_us
        return entry


class RequestRecord:
    """One observed host request and its ops' records.

    Ops append as their pipelines complete, so when the request's last
    op finishes (triggering completion) the final record is the
    critical-path op: its stages, by construction, tile the whole
    ``arrival -> completion`` window.
    """

    __slots__ = ("request", "ops")

    def __init__(self, request) -> None:
        self.request = request
        self.ops: list[OpRecord] = []

    def emit(
        self, tracer, kind: str, complete_us: float, host_overhead_us: float
    ) -> None:
        """Emit the request's span event (``read_span`` / ``write_span``)."""
        request = self.request
        pages = [record.to_dict() for record in self.ops]
        payload: dict = {
            "request_id": request.request_id,
            "arrival_us": request.arrival_us,
            "response_us": complete_us - request.arrival_us + host_overhead_us,
            "pages": len(pages),
        }
        if pages:
            critical = pages[-1]
            payload["critical"] = {
                "queue_wait_us": critical["queue_wait_us"],
                "sense_us": critical["sense_us"],
                "transfer_us": critical["transfer_us"],
                "ecc_us": critical["ecc_us"],
                "program_us": critical["program_us"],
                "host_overhead_us": host_overhead_us,
            }
        payload["stages"] = pages
        tracer.emit(complete_us, kind, **payload)


class OpPlan:
    """A stage tuple compiled into the fixed program one op shape runs.

    A plan is one or two resource stages, optionally followed by one
    latency-only stage; the simulator's ops use three of those four
    shapes (read: die, channel, ECC; write: channel, die; adjust and
    erase: die).  Compiling the tuple once pulls each stage's resource and
    duration into a slot, so running an op does no per-stage lookups.

    Raises:
        ValueError: For any other shape — no stages, a latency-only
            stage first or in the middle, or more than two resource
            stages.
    """

    __slots__ = (
        "stages",
        "first",
        "first_us",
        "second",
        "second_us",
        "latency_us",
    )

    def __init__(self, stages: tuple[Stage, ...]) -> None:
        stages = tuple(stages)
        served = 0
        while served < len(stages) and stages[served].resource is not None:
            served += 1
        if not 1 <= served <= 2 or len(stages) - served > 1:
            names = [stage.name for stage in stages]
            raise ValueError(
                "an op plan is one or two resource stages plus at most one "
                f"trailing latency-only stage, got {names}"
            )
        self.stages = stages
        self.first: Resource = stages[0].resource
        self.first_us = stages[0].duration_us
        self.second: Resource | None = stages[1].resource if served == 2 else None
        self.second_us = stages[1].duration_us if served == 2 else 0.0
        self.latency_us: float | None = (
            stages[-1].duration_us if len(stages) > served else None
        )


class OpPipeline:
    """Runs one op through its compiled :class:`OpPlan` on the engine.

    Each stage boundary is its own bound method, so a completion goes
    straight to the next submission: :meth:`_to_second` (die -> channel
    for reads, channel -> die for writes), :meth:`_to_latency` (channel
    -> ECC), :meth:`_latency_done` and :meth:`_done` (the op's end).

    Args:
        engine: The simulation clock.
        plan: The compiled program of this op's shape.
        klass: Dispatch class for resource accounting.
        queue: Resource queue class the scheduling policy mapped this op
            to (read-first maps it to ``klass`` itself).
        on_done: Completion callback ``(start_us, end_us)`` where
            ``start_us`` is the service start of the last *resource*
            stage and ``end_us`` the pipeline end (including a trailing
            latency-only stage) — the contract every completion sink
            (request completions, internal chains) consumes.
        obs: Optional :class:`OpRecord` fed every stage boundary and
            the op's completion.
    """

    __slots__ = (
        "engine",
        "plan",
        "klass",
        "queue",
        "on_done",
        "obs",
        "_submit_us",
        "_last_start_us",
    )

    def __init__(
        self,
        engine: SimEngine,
        plan: OpPlan,
        klass: IoPriority,
        queue: IoPriority,
        on_done: Callable[[float, float], None],
        obs: OpRecord | None = None,
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.klass = klass
        self.queue = queue
        self.on_done = on_done
        self.obs = obs
        self._submit_us = 0.0
        self._last_start_us = 0.0

    def start(self) -> None:
        """Submit the first stage; the rest chain on completions."""
        plan = self.plan
        self._submit_us = self.engine.now
        if plan.second is not None:
            done = self._to_second
        elif plan.latency_us is not None:
            done = self._to_latency
        else:
            done = self._done
        plan.first.submit(self.klass, plan.first_us, done, self.queue)

    def _to_second(self, start_us: float, end_us: float) -> None:
        """First of two resource stages done: submit the second."""
        plan = self.plan
        if self.obs is not None:
            self.obs.note_stage(plan.stages[0], self._submit_us, start_us, end_us)
        self._submit_us = self.engine.now
        plan.second.submit(
            self.klass,
            plan.second_us,
            self._done if plan.latency_us is None else self._to_latency,
            self.queue,
        )

    def _to_latency(self, start_us: float, end_us: float) -> None:
        """Last resource stage done: start the trailing latency stage."""
        plan = self.plan
        if self.obs is not None:
            self.obs.note_stage(plan.stages[-2], self._submit_us, start_us, end_us)
        self._last_start_us = start_us
        engine = self.engine
        now = self._submit_us = engine.now
        # ``SimEngine.push`` inlined (same seq and peak accounting).
        heap = engine._queue
        heappush(heap, (now + plan.latency_us, engine._sequence, self._latency_done))
        engine._sequence += 1
        if len(heap) > engine._peak_mark:
            engine._peak_mark = len(heap)

    def _latency_done(self) -> None:
        """End of the latency stage: it started at submission and its
        event fires at exactly ``submit + duration``."""
        end_us = self.engine.now
        obs = self.obs
        if obs is not None:
            submit_us = self._submit_us
            obs.note_stage(self.plan.stages[-1], submit_us, submit_us, end_us)
            obs.complete()
        self.on_done(self._last_start_us, end_us)

    def _done(self, start_us: float, end_us: float) -> None:
        """Last stage, a resource stage, done."""
        obs = self.obs
        if obs is not None:
            obs.note_stage(self.plan.stages[-1], self._submit_us, start_us, end_us)
            obs.complete()
        self.on_done(start_us, end_us)
