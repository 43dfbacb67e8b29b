"""Contended hardware resources with class-based queueing.

Dies and channels serve one operation at a time, picking the oldest
operation of the highest non-empty queue class when they free up.  Which
queue an op waits in is the scheduling policy's decision
(:mod:`repro.sim.policy`): the paper's read-first default keeps one
queue per dispatch class, FCFS collapses them all into one.  Scheduling
is non-preemptive — an in-flight 2.3 ms program cannot be suspended —
which is exactly why slow MSB senses and programs inflate read wait
times, the queueing effect behind the paper's "indirect" improvement
(Sec. V-A).

Service is the simulator's hottest path, so :meth:`Resource.submit`
starts an op in place when the resource is idle with every queue empty.
Enqueue-then-dispatch could only have picked that very op, so the fast
start schedules the same completion event in the same ``(time, seq)``
slot and reorders nothing.  Both service starts (the fast start and
:meth:`Resource._dispatch_next`) push that completion straight onto the
engine heap, with the sequence number and ``peak_pending`` update
:meth:`SimEngine.push` would make, instead of calling it.  An op that
does wait is queued as a plain tuple, and the wait-class snapshot it
carries is built only when profiling asked for it.  Completions all go
through one pre-bound :meth:`Resource._finish`, which empties the
in-service slot *before* calling back, so a finished op (and the
pipeline graph its callback reaches) is never kept alive by the
resource that served it.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from heapq import heappush
from typing import Callable

from .engine import SimEngine

__all__ = [
    "IoPriority",
    "Resource",
    "mean_utilisation",
    "aggregate_queue_waits",
    "aggregate_wait_breakdown",
]


class IoPriority(IntEnum):
    """Dispatch classes, highest priority first."""

    HOST_READ = 0
    HOST_WRITE = 1
    INTERNAL = 2


class Resource:
    """A serially-shared device resource (die, channel).

    Operations are served one at a time; when the resource frees up, the
    oldest operation of the highest non-empty priority class starts.

    Attributes:
        engine: The simulation engine supplying the clock.
        name: Diagnostic label.
        kind: Resource class this instance belongs to (``"die"`` /
            ``"channel"``); profiler track grouping keys on it.
        index: Position within its kind (die 3, channel 0, ...).
        busy_us: Accumulated service time (for utilisation reporting).
        busy_us_by_class: Accumulated service time per dispatch class.
    """

    def __init__(
        self,
        engine: SimEngine,
        name: str,
        kind: str = "resource",
        index: int = 0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.kind = kind
        self.index = index
        self.busy_us = 0.0
        #: Service time per dispatch class — the busy integral the
        #: wait-class attribution differences (one float add per start).
        self.busy_us_by_class = [0.0] * len(IoPriority)
        # The op in service: its completion callback (``None`` while
        # idle), dispatch class and service window.  ``_finish`` clears
        # the callback before calling it; the class and window stay
        # until the next start (the wait-class snapshot reads them).
        self._on_done: Callable[[float, float], None] | None = None
        self._klass: IoPriority | None = None
        self._start_us = 0.0
        self._end_us = 0.0
        # Pre-bound once: every completion event schedules this object
        # instead of a fresh per-op closure.
        self._finish_event = self._finish
        # Queued ops are plain tuples ``(duration, on_done, enqueued_us,
        # klass, snapshot)``; ``snapshot`` is ``None`` unless wait-class
        # profiling is on (see ``submit``).
        self._queues: tuple[deque[tuple], ...] = tuple(
            deque() for _ in IoPriority
        )
        # Queue-wait accounting per dispatch class: how long ops of each
        # priority sat queued before service.  Always on (two float ops
        # per dispatch) — it is what separates "the die was slow" from
        # "the die was busy with someone else's work" in run reports.
        self._ops_served = [0] * len(IoPriority)
        self._wait_us = [0.0] * len(IoPriority)
        # Wait-class breakdown, gated behind enable_wait_profile():
        # *who* a waiting op spent its queue time behind.  Row = waiter's
        # dispatch class, column = server's dispatch class.
        # ``_wait_behind`` counts service periods that *started* during
        # the wait (the scheduler chose someone else); ``_wait_inflight``
        # counts the remainder of the op already in service at enqueue
        # (non-preemptive exposure).  Per waiting op the two sum exactly
        # to its queue wait.
        self.profile_waits = False
        self._wait_behind = [
            [0.0] * len(IoPriority) for _ in IoPriority
        ]
        self._wait_inflight = [
            [0.0] * len(IoPriority) for _ in IoPriority
        ]

    @property
    def queued(self) -> int:
        """Operations waiting (not counting the one in service)."""
        return sum(len(q) for q in self._queues)

    def queued_by_class(self) -> dict[str, int]:
        """Waiting ops per dispatch class (telemetry sampling only).

        Depths are counted by each op's *dispatch* class even when the
        scheduling policy collapses several classes into one queue
        (FCFS), so the breakdown answers "whose work is waiting" rather
        than "which queue is long".
        """
        depths = {priority.name.lower(): 0 for priority in IoPriority}
        for queue in self._queues:
            for _, _, _, klass, _ in queue:
                depths[klass.name.lower()] += 1
        return depths

    def submit(
        self,
        priority: IoPriority,
        duration: float,
        on_done: Callable[[float, float], None],
        queue: IoPriority | None = None,
    ) -> None:
        """Start an operation, or enqueue it while the resource is busy.

        Args:
            priority: Dispatch class (drives queue-wait accounting).
            duration: Service time in microseconds.
            on_done: Called as ``on_done(start_us, end_us)`` when the
                operation completes.
            queue: Queue class to wait in; defaults to ``priority``.  A
                scheduling policy may map several dispatch classes onto
                one queue (e.g. FCFS collapses all three) — accounting
                stays per dispatch class either way.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        queues = self._queues
        if self._on_done is None and not (queues[0] or queues[1] or queues[2]):
            # Idle fast start: enqueue-then-dispatch would pick this very
            # op, with zero wait and nothing to snapshot for profiling.
            engine = self.engine
            now = engine.now
            end = now + duration
            self.busy_us += duration
            self._ops_served[priority] += 1
            self.busy_us_by_class[priority] += duration
            self._klass = priority
            self._on_done = on_done
            self._start_us = now
            self._end_us = end
            # ``SimEngine.push`` inlined (same seq and peak accounting).
            heap = engine._queue
            heappush(heap, (end, engine._sequence, self._finish_event))
            engine._sequence += 1
            if len(heap) > engine._peak_mark:
                engine._peak_mark = len(heap)
            return
        # Otherwise enqueue, then dispatch: a submission arriving while
        # the resource is momentarily idle (from a completion callback
        # that chains background work) must not jump ahead of
        # higher-priority operations already waiting.
        snapshot = None
        if self.profile_waits:
            # Per-class busy integral at enqueue, and (class, end_us) of
            # the op last started here — still in service, or just
            # finished at this very instant — or None before any start.
            inflight = None if self._klass is None else (self._klass, self._end_us)
            snapshot = (tuple(self.busy_us_by_class), inflight)
        queues[queue if queue is not None else priority].append(
            (duration, on_done, self.engine.now, priority, snapshot)
        )
        if self._on_done is None:
            self._dispatch_next()

    def credit_run(
        self,
        priority: IoPriority,
        busy_us: float,
        class_busy_us: float,
        ops: int,
        start_us: float,
        end_us: float,
    ) -> None:
        """Account ``ops`` back-to-back stages of a quiet run with no event.

        Each stage is served as :meth:`submit`'s idle fast start would
        serve it; the caller has added their durations in stage order to
        this resource's ``busy_us`` and ``busy_us_by_class[priority]``,
        giving ``busy_us`` and ``class_busy_us``, and the last stage ran
        over ``[start_us, end_us]``.  The resource is left idle, as if the
        last stage's completion had already fired.  Only for an internal
        chain's quiet run, which has checked that the resource is idle
        with nothing queued and that no event is due before the run ends.
        """
        self.busy_us = busy_us
        self.busy_us_by_class[priority] = class_busy_us
        self._ops_served[priority] += ops
        self._klass = priority
        self._start_us = start_us
        self._end_us = end_us

    def enable_wait_profile(self) -> None:
        """Turn on the wait-class breakdown for subsequent submissions."""
        self.profile_waits = True

    def _dispatch_next(self) -> None:
        """Start the oldest op of the highest non-empty queue, if idle."""
        if self._on_done is not None:
            return
        for queue in self._queues:
            if queue:
                duration, on_done, enqueued_us, klass, snapshot = queue.popleft()
                break
        else:
            return
        engine = self.engine
        start = engine.now
        end = start + duration
        self.busy_us += duration
        self._ops_served[klass] += 1
        self._wait_us[klass] += start - enqueued_us
        if snapshot is not None:
            # While this op waited the resource was continuously busy, so
            # its wait tiles exactly into (a) the remainder of the op in
            # service at enqueue and (b) service periods that started
            # during the wait — which is the growth of the per-class busy
            # integral since the snapshot, because integrals are credited
            # here, at service start.
            base, inflight = snapshot
            if start > enqueued_us:
                if inflight is not None:
                    served_by, served_end = inflight
                    self._wait_inflight[klass][served_by] += max(
                        0.0, min(served_end, start) - enqueued_us
                    )
                behind = self._wait_behind[klass]
                for k in IoPriority:
                    behind[k] += self.busy_us_by_class[k] - base[k]
        self.busy_us_by_class[klass] += duration
        self._klass = klass
        self._on_done = on_done
        self._start_us = start
        self._end_us = end
        heap = engine._queue
        heappush(heap, (end, engine._sequence, self._finish_event))
        engine._sequence += 1
        if len(heap) > engine._peak_mark:
            engine._peak_mark = len(heap)

    def _finish(self) -> None:
        """Completion event of the op in service."""
        on_done = self._on_done
        self._on_done = None
        on_done(self._start_us, self._end_us)
        queues = self._queues
        if queues[0] or queues[1] or queues[2]:
            self._dispatch_next()

    def utilisation(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` this resource spent in service."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.busy_us / elapsed_us)

    def queue_wait_stats(self) -> dict[str, dict[str, float]]:
        """Per-priority queue-wait accounting (served ops only)."""
        stats: dict[str, dict[str, float]] = {}
        for priority in IoPriority:
            ops = self._ops_served[priority]
            wait = self._wait_us[priority]
            stats[priority.name.lower()] = {
                "ops": ops,
                "total_wait_us": wait,
                "mean_wait_us": wait / ops if ops else 0.0,
            }
        return stats

    def wait_class_breakdown(self) -> dict[str, dict[str, dict[str, float]]]:
        """Who each class waited behind, split started-vs-inflight.

        ``breakdown[waiter][server]`` holds ``behind_us`` (service periods
        the scheduler started while the waiter sat queued) and
        ``inflight_us`` (remainder of the op already in service when the
        waiter arrived — non-preemptive exposure).  Summing both matrices
        over servers reproduces the waiter's ``total_wait_us`` from
        :meth:`queue_wait_stats` exactly, which is the invariant the
        profiler tests pin.  Empty until :meth:`enable_wait_profile`.
        """
        out: dict[str, dict[str, dict[str, float]]] = {}
        for waiter in IoPriority:
            row: dict[str, dict[str, float]] = {}
            for server in IoPriority:
                row[server.name.lower()] = {
                    "behind_us": self._wait_behind[waiter][server],
                    "inflight_us": self._wait_inflight[waiter][server],
                }
            out[waiter.name.lower()] = row
        return out


def mean_utilisation(resources: list[Resource], elapsed_us: float) -> float:
    """Mean service fraction across a resource class (dies or channels)."""
    if not resources:
        return 0.0
    return sum(r.utilisation(elapsed_us) for r in resources) / len(resources)


def aggregate_queue_waits(resources: list[Resource]) -> dict[str, dict[str, float]]:
    """Merge per-resource queue-wait stats into one entry per class.

    This is the "queueing at chips/channels" attribution the paper's
    Sec. V-A discusses — the indirect benefit of faster senses is visible
    here as shrinking host-read wait, not in the sense time itself.
    """
    merged: dict[str, dict[str, float]] = {}
    for resource in resources:
        for cls, stats in resource.queue_wait_stats().items():
            bucket = merged.setdefault(
                cls, {"ops": 0, "total_wait_us": 0.0, "mean_wait_us": 0.0}
            )
            bucket["ops"] += stats["ops"]
            bucket["total_wait_us"] += stats["total_wait_us"]
    for bucket in merged.values():
        if bucket["ops"]:
            bucket["mean_wait_us"] = bucket["total_wait_us"] / bucket["ops"]
    return merged


def aggregate_wait_breakdown(
    resources: list[Resource],
) -> dict[str, dict[str, dict[str, float]]]:
    """Merge per-resource wait-class breakdowns across a resource class.

    The answer to "how much of host-read queue time was spent behind
    writes?" for a whole die or channel array — the contention view the
    profiler embeds in run manifests.
    """
    merged: dict[str, dict[str, dict[str, float]]] = {}
    for resource in resources:
        for waiter, row in resource.wait_class_breakdown().items():
            target = merged.setdefault(waiter, {})
            for server, cells in row.items():
                bucket = target.setdefault(
                    server, {"behind_us": 0.0, "inflight_us": 0.0}
                )
                bucket["behind_us"] += cells["behind_us"]
                bucket["inflight_us"] += cells["inflight_us"]
    return merged
