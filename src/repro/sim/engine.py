"""Deterministic discrete-event engine.

A minimal event loop in the DiskSim tradition: a time-ordered heap of
callbacks, with a monotone sequence number breaking ties so runs are fully
deterministic regardless of callback scheduling order.

Request streams are admitted through :meth:`SimEngine.add_stream`: a
*sorted* run of events that never touches the heap.  The stream reserves
its sequence numbers up front — exactly the numbers the equivalent
``at()`` calls would have consumed — and the run loop merges stream
head vs heap top by ``(time, seq)``, so the firing order is the one
per-event admission would give, while the heap stays small.

``peak_pending`` (the queue high-water mark the trace ``run_end`` event
reports) counts stream events as if they sat in the heap, at no
per-push cost.  The engine stores ``_peak_mark`` = peak minus the
stream events not yet fired.  A push compares the heap length against
the mark, as it would against the peak with no stream; admitting a
stream of ``n`` sets the mark to ``max(mark - n, len(heap))``; each
fired stream event adds one to it; and ``peak_pending`` is the mark
plus the stream events left.

:meth:`SimEngine.push` is an unchecked variant of :meth:`SimEngine.at`
for targets that cannot lie in the past; it consumes sequence numbers
and tracks ``peak_pending`` exactly as ``at`` does.  The stage machine's
per-op completions (resource service ends in
:mod:`repro.sim.resources`, latency-only stages in
:mod:`repro.sim.pipeline`) inline those same three steps onto
``_queue``, ``_sequence`` and ``_peak_mark`` instead of calling it, so
every event keeps its ``(time, seq)`` slot; ``push`` itself schedules
quiet runs' resume events and folded read requests' ECC completions.
``processed`` is not counted per event: it is derived as events
scheduled minus events pending.

:meth:`SimEngine.horizon` is the time of the earliest pending event.
An internal GC / refresh chain (:mod:`repro.sim.ssd`) uses it to serve a
*quiet run*: every op that would end strictly before the horizon is
timed in one loop and the run posts one event at its end, so an op
served that way fires no event of its own and ``processed`` counts the
whole run as one.  :meth:`SimEngine.run` always drains everything
pending, so a run never has to stop at a time bound.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

__all__ = ["SimEngine"]

_INF = float("inf")


class SimEngine:
    """Discrete-event simulation clock and queue.

    Time is in microseconds (float).  Events fire in (time, insertion)
    order; callbacks may schedule further events.
    """

    #: Scheduling slop absorbed silently: ``after()`` chains accumulate
    #: float round-off, so a callback computing an absolute time from an
    #: earlier ``now`` can land a hair in the past.  Deltas within this
    #: tolerance (absolute, or a few ulps at large clock values) clamp to
    #: ``now``; anything larger is a real scheduling bug and still raises.
    PAST_TOLERANCE_US = 1e-9

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        #: Events scheduled so far (also the next tie-break sequence).
        self._sequence = 0
        #: Queue high-water mark minus the stream events not yet fired.
        self._peak_mark = 0
        self._prev_now = 0.0
        self._stream: list[tuple[float, int, Callable[[], None]]] = []
        self._stream_pos = 0

    @property
    def pending(self) -> int:
        """Number of events not yet fired (heap plus admitted stream)."""
        return len(self._queue) + len(self._stream) - self._stream_pos

    @property
    def processed(self) -> int:
        """Number of events fired so far (scheduled minus pending)."""
        return self._sequence - self.pending

    @property
    def peak_pending(self) -> int:
        """High-water mark of the pending events (for run reports).

        Stream events count from their admission on, exactly as if each
        had been scheduled with :meth:`at`.
        """
        return self._peak_mark + len(self._stream) - self._stream_pos

    def horizon(self) -> float:
        """Time of the earliest pending event (heap top or stream head).

        ``inf`` when nothing is pending.  Until then no other event can
        fire, which is what lets an internal chain serve a quiet run of
        ops ending strictly before it in one loop.
        """
        queue = self._queue
        pos = self._stream_pos
        if pos < len(self._stream):
            head = self._stream[pos][0]
            if queue and queue[0][0] < head:
                return queue[0][0]
            return head
        return queue[0][0] if queue else _INF

    def _clamped(self, time: float) -> float:
        """Validate a target time against the clock (shared with at())."""
        if time < self.now:
            if self.now - time <= max(
                self.PAST_TOLERANCE_US, abs(self.now) * 1e-12
            ):
                return self.now
            raise ValueError(
                f"cannot schedule at {time} (now is {self.now})"
            )
        return time

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time``.

        Times a round-off hair in the past (see :data:`PAST_TOLERANCE_US`)
        are clamped to ``now``.

        Raises:
            ValueError: if ``time`` lies genuinely in the past.
        """
        heapq.heappush(self._queue, (self._clamped(time), self._sequence, callback))
        self._sequence += 1
        if len(self._queue) > self._peak_mark:
            self._peak_mark = len(self._queue)

    def push(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at ``time`` without validating it.

        For callers that compute ``time`` as ``now + duration`` with a
        non-negative duration (resource service ends, latency-only
        stages), where :meth:`at`'s past-time check can never fire.
        Sequence numbers and ``peak_pending`` advance exactly as in
        :meth:`at`.
        """
        queue = self._queue
        heapq.heappush(queue, (time, self._sequence, callback))
        self._sequence += 1
        if len(queue) > self._peak_mark:
            self._peak_mark = len(queue)

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` microseconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.at(self.now + delay, callback)

    def add_stream(
        self, events: Iterable[tuple[float, Callable[[], None]]]
    ) -> int:
        """Admit a time-sorted batch of events without heap traffic.

        Equivalent to calling :meth:`at` once per event *right now* —
        the stream reserves the same sequence numbers those calls would
        have consumed, so the merged firing order is byte-identical —
        but the events never touch the heap: the run loop merges the
        stream head against the heap top by ``(time, seq)``.

        ``peak_pending`` counts the admitted events as pending from now
        on, as :meth:`at` admission would.

        Args:
            events: ``(time, callback)`` pairs in non-decreasing time
                order.  Times are validated exactly like :meth:`at`
                (round-off clamp, genuine-past raise).

        Returns:
            The number of events admitted.

        Raises:
            RuntimeError: if a previous stream is not yet drained (one
                sorted run at a time keeps the merge trivially correct).
            ValueError: on unsorted times or a genuinely-past time.
        """
        if self._stream_pos < len(self._stream):
            raise RuntimeError("previous event stream is not drained yet")
        stream: list[tuple[float, int, Callable[[], None]]] = []
        sequence = self._sequence
        previous = -float("inf")
        for time, callback in events:
            time = self._clamped(time)
            if time < previous:
                raise ValueError("stream events must be sorted by time")
            previous = time
            stream.append((time, sequence, callback))
            sequence += 1
        self._sequence = sequence
        self._stream = stream
        self._stream_pos = 0
        self._peak_mark = max(self._peak_mark - len(stream), len(self._queue))
        return len(stream)

    def run(self) -> None:
        """Fire events until nothing is pending."""
        if self._stream_pos < len(self._stream):
            self._run_merged()
            self._stream = []
            self._stream_pos = 0
        # Hot loop: the queue list and heappop are bound to locals, and
        # the drain pops directly instead of peek-then-pop (callbacks
        # mutate the queue in place via ``at``, never rebind it, so the
        # local alias stays valid).
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            time, _, callback = heappop(queue)
            self._prev_now = self.now
            self.now = time
            callback()

    def _run_merged(self) -> None:
        """Drain heap and admitted stream in (time, seq) order."""
        queue = self._queue
        heappop = heapq.heappop
        stream = self._stream
        pos = self._stream_pos
        end = len(stream)
        while pos < end:
            head = stream[pos]
            if queue and queue[0] < head:
                time, _, callback = heappop(queue)
            else:
                time, _, callback = head
                pos += 1
                # Published before the callback runs: ``processed`` is
                # derived from the pending count, which callbacks
                # (interval samplers) may read mid-drain.
                self._stream_pos = pos
                self._peak_mark += 1
            self._prev_now = self.now
            self.now = time
            callback()

    def rewind_to_previous_event(self) -> None:
        """Roll the clock back to the event before the current one.

        For pure-observer callbacks (sampling ticks) that outlive the real
        workload: the tick's own firing advanced ``now`` past the last
        event that did anything, which would leak into elapsed-time
        metrics.  Only legal once everything has drained.

        Raises:
            RuntimeError: if events are still pending.
        """
        if self.pending:
            raise RuntimeError("can only rewind when no events are pending")
        self.now = self._prev_now
