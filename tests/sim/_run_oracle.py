"""The quiet run as one Python loop, kept as an oracle.

Before quiet runs were served as arrays, ``_InternalChain._serve_run``
timed a run one op at a time: per op it checked the op's resources,
computed its instants with float adds, credited each stage on its
resource, fed the profiler and completed the op (committing a clean
adjust), then moved on to the op's end.  :class:`LoopChain`
is an internal chain whose quiet runs take that loop, and
:class:`LoopSimulator` a simulator whose chains are loop chains, so
``test_quiet_run_columnar.py`` can run it against the columnar runs on a
twin simulator.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from repro.ftl.ops import OpTable
from repro.sim.pipeline import OpRecord
from repro.sim.resources import IoPriority, Resource
from repro.sim.ssd import SsdSimulator, _InternalChain

_INTERNAL = IoPriority.INTERNAL


def credit(resource: Resource, priority: IoPriority, start_us: float, duration: float) -> None:
    """One stage served as an idle fast start, with no event."""
    resource.busy_us += duration
    resource._ops_served[priority] += 1
    resource.busy_us_by_class[priority] += duration
    resource._klass = priority
    resource._start_us = start_us
    resource._end_us = start_us + duration


class LoopChain(_InternalChain):
    """An internal chain whose quiet runs are the per-op loop."""

    __slots__ = ()

    def _serve_run(self) -> bool:
        sim = self.sim
        engine = sim.engine
        horizon = engine.horizon()
        profiler = sim.profiler
        total = len(self.plans)
        start = engine.now
        served = 0
        while self.pos < total:
            index = self.pos
            op = self.table.op(index)
            plan = sim._plan_of(op, 0)
            first = plan.first
            queues = first._queues
            if first._on_done is not None or queues[0] or queues[1] or queues[2]:
                break
            mid = start + plan.first_us
            second = plan.second
            if second is None:
                last_start = start
                done = mid
            else:
                queues = second._queues
                if second._on_done is not None or queues[0] or queues[1] or queues[2]:
                    break
                last_start = mid
                done = mid + plan.second_us
            latency_us = plan.latency_us
            stop = done if latency_us is None else done + latency_us
            if not stop < horizon:
                break
            self.pos += 1
            credit(first, _INTERNAL, start, plan.first_us)
            if second is not None:
                credit(second, _INTERNAL, mid, plan.second_us)
            if profiler is not None:
                record = OpRecord(op, 0, _INTERNAL, None, profiler)
                bounds = [start, mid]
                if second is not None:
                    bounds.append(done)
                if latency_us is not None:
                    bounds.append(stop)
                for i, stage in enumerate(plan.stages):
                    record.note_stage(stage, bounds[i], bounds[i], bounds[i + 1])
            self._complete(index, last_start, stop)
            served += 1
            start = stop
        if not served:
            return False
        sim.ops_dispatched += served
        if self.pos == total:
            self.on_done = None
        engine.push(start, self._resume)
        return True


class LoopSimulator(SsdSimulator):
    """A simulator whose internal chains serve quiet runs in the loop."""

    def issue_internal_sequence(self, ops) -> None:
        if ops:
            if isinstance(ops, list):
                ops = OpTable.of(ops)
            LoopChain(self, ops).issue_next()
