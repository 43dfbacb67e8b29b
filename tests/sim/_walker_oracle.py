"""The generic stage walker and dataclass queue records, kept as an oracle.

This is the op pipeline and the queued-op bookkeeping of
:class:`~repro.sim.resources.Resource` as they were before op plans were
compiled into flat programs: :class:`WalkerPipeline` walks a
:class:`~repro.sim.pipeline.Stage` tuple by index, and
:class:`WalkerResource` queues ``_PendingOp`` dataclasses and snapshots
the in-service op through an ``_inflight`` tuple.  The differential test
(``test_pipeline_differential.py``) runs the same random op mixes
through this and through the compiled programs on twin engines and
requires identical results.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.engine import SimEngine
from repro.sim.pipeline import OpRecord, Stage
from repro.sim.resources import IoPriority, Resource


@dataclass(slots=True)
class _PendingOp:
    duration: float
    on_done: Callable[[float, float], None]
    enqueued_us: float
    klass: IoPriority
    snapshot: tuple | None = None


class WalkerResource(Resource):
    """A resource whose queue holds ``_PendingOp`` records."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._inflight: tuple[IoPriority, float] | None = None

    def queued_by_class(self) -> dict[str, int]:
        depths = {priority.name.lower(): 0 for priority in IoPriority}
        for queue in self._queues:
            for op in queue:
                depths[op.klass.name.lower()] += 1
        return depths

    def submit(self, priority, duration, on_done, queue=None) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        queues = self._queues
        if self._on_done is None and not (queues[0] or queues[1] or queues[2]):
            now = self.engine.now
            end = now + duration
            self.busy_us += duration
            self._ops_served[priority] += 1
            self.busy_us_by_class[priority] += duration
            self._inflight = (priority, end)
            self._on_done = on_done
            self._start_us = now
            self._end_us = end
            self.engine.push(end, self._finish_event)
            return
        op = _PendingOp(duration, on_done, self.engine.now, priority)
        if self.profile_waits:
            op.snapshot = (tuple(self.busy_us_by_class), self._inflight)
        queues[queue if queue is not None else priority].append(op)
        self._dispatch_next()

    def _dispatch_next(self) -> None:
        if self._on_done is not None:
            return
        for queue in self._queues:
            if queue:
                op = queue.popleft()
                break
        else:
            return
        start = self.engine.now
        end = start + op.duration
        klass = op.klass
        self.busy_us += op.duration
        self._ops_served[klass] += 1
        self._wait_us[klass] += start - op.enqueued_us
        if op.snapshot is not None:
            base, inflight = op.snapshot
            if start > op.enqueued_us:
                if inflight is not None:
                    served_by, served_end = inflight
                    self._wait_inflight[klass][served_by] += max(
                        0.0, min(served_end, start) - op.enqueued_us
                    )
                behind = self._wait_behind[klass]
                for k in IoPriority:
                    behind[k] += self.busy_us_by_class[k] - base[k]
        self.busy_us_by_class[klass] += op.duration
        self._inflight = (klass, end)
        self._on_done = op.on_done
        self._start_us = start
        self._end_us = end
        self.engine.push(end, self._finish_event)


class WalkerPipeline:
    """Walks one op through a stage tuple, one stage index at a time."""

    __slots__ = (
        "engine",
        "stages",
        "klass",
        "queue",
        "on_done",
        "obs",
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
        obs: OpRecord | None = None,
    ) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.engine = engine
        self.stages = stages
        self.klass = klass
        self.queue = queue
        self.on_done = on_done
        self.obs = obs
        self._index = 0
        self._submit_us = 0.0
        self._last_start_us = 0.0

    def start(self) -> None:
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
        self._stage_done(self._submit_us, self.engine.now)

    def _stage_done(self, start_us: float, end_us: float) -> None:
        stage = self.stages[self._index]
        if self.obs is not None:
            self.obs.note_stage(stage, self._submit_us, start_us, end_us)
        if stage.resource is not None:
            self._last_start_us = start_us
        self._index += 1
        if self._index < len(self.stages):
            self._dispatch()
            return
        if self.obs is not None:
            self.obs.complete()
        self.on_done(self._last_start_us, end_us)
