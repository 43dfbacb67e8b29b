"""Deterministic discrete-event engine.

A minimal event loop in the DiskSim tradition: a time-ordered heap of
callbacks, with a monotone sequence number breaking ties so runs are fully
deterministic regardless of callback scheduling order.

Two batched fast paths support the vectorized execution backend while
preserving the (time, sequence) total order byte-for-byte:

* :meth:`SimEngine.add_stream` admits a *sorted* run of events without
  pushing them through the heap.  The stream reserves its sequence
  numbers up front — exactly the numbers the equivalent ``at()`` calls
  would have consumed — and the run loop merges stream head vs heap top
  by ``(time, seq)``, so event order is identical to the reference
  admission by construction while the heap stays small.
* :meth:`SimEngine.run_until_idle` drains the queue with per-event
  ``peak_pending`` bookkeeping switched off.  ``processed`` stays exact
  (each fired event counts as one); only the high-water mark — which is
  reported solely through the trace ``run_end`` event — goes untracked,
  so callers must keep tracking on whenever a tracer is attached.

The stage machine's own completions (resource service ends, latency-only
pipeline stages, throttled internal chains) schedule through
:meth:`SimEngine.push`, an unchecked variant of :meth:`SimEngine.at` for
targets that cannot lie in the past.  It consumes sequence numbers and
tracks ``peak_pending`` exactly as ``at`` does, so event order is
unchanged.  ``processed`` is not counted per event: it is derived as
events scheduled minus events pending.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

__all__ = ["SimEngine"]


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
        self._peak_pending = 0
        self._track_peak = True
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
        """High-water mark of the event queue (for run reports).

        Meaningful only while per-event tracking is on (the default);
        :meth:`run_until_idle` with ``track_peak=False`` and
        :meth:`add_stream` trade this statistic for speed.
        """
        return self._peak_pending

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
        if time < self.now:
            if self.now - time <= max(
                self.PAST_TOLERANCE_US, abs(self.now) * 1e-12
            ):
                time = self.now
            else:
                raise ValueError(
                    f"cannot schedule at {time} (now is {self.now})"
                )
        heapq.heappush(self._queue, (time, self._sequence, callback))
        self._sequence += 1
        if self._track_peak and len(self._queue) > self._peak_pending:
            self._peak_pending = len(self._queue)

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
        if self._track_peak and len(queue) > self._peak_pending:
            self._peak_pending = len(queue)

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

        The high-water ``peak_pending`` statistic does not see stream
        events; callers needing it (tracing) must admit via :meth:`at`.

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
        return len(stream)

    def run(self, until: float | None = None) -> None:
        """Fire events until the queue empties (or simulated ``until``).

        With ``until`` set, events at times strictly greater are left in
        the queue and ``now`` advances to ``until``.
        """
        if self._stream_pos < len(self._stream):
            self._run_merged(until)
            if self._stream_pos < len(self._stream):
                return  # stopped at ``until`` with stream left over
            self._stream = []
            self._stream_pos = 0
        # Hot loop: the queue list and heappop are bound to locals, and
        # the unbounded drain pops directly instead of peek-then-pop
        # (callbacks mutate the queue in place via ``at``, never rebind
        # it, so the local alias stays valid).
        queue = self._queue
        heappop = heapq.heappop
        if until is None:
            while queue:
                time, _, callback = heappop(queue)
                self._prev_now = self.now
                self.now = time
                callback()
            return
        while queue:
            time, _, callback = queue[0]
            if time > until:
                break
            heappop(queue)
            self._prev_now = self.now
            self.now = time
            callback()
        if until > self.now:
            self.now = until

    def _run_merged(self, until: float | None) -> None:
        """Drain heap and admitted stream in (time, seq) order."""
        queue = self._queue
        heappop = heapq.heappop
        stream = self._stream
        pos = self._stream_pos
        end = len(stream)
        while pos < end:
            head = stream[pos]
            if queue and queue[0] < head:
                time, _, callback = queue[0]
                if until is not None and time > until:
                    break
                heappop(queue)
            else:
                time, _, callback = head
                if until is not None and time > until:
                    break
                pos += 1
                # Published before the callback runs: ``processed`` is
                # derived from the pending count, which callbacks
                # (interval samplers) may read mid-drain.
                self._stream_pos = pos
            self._prev_now = self.now
            self.now = time
            callback()
        if until is not None and pos < end and until > self.now:
            self.now = until

    def run_until_idle(self, track_peak: bool = True) -> None:
        """Drain everything; optionally skip peak-queue bookkeeping.

        ``track_peak=False`` removes the per-push high-water-mark update
        from :meth:`at` for the duration of the drain — the fast path
        for untraced runs, where ``peak_pending`` is never reported.
        Event and processed counts stay exact either way.
        """
        if track_peak:
            self.run()
            return
        self._track_peak = False
        try:
            self.run()
        finally:
            self._track_peak = True

    def step(self) -> bool:
        """Fire exactly one event; returns False when the queue is empty."""
        if self._stream_pos < len(self._stream):
            head = stream_head = self._stream[self._stream_pos]
            if self._queue and self._queue[0] < stream_head:
                time, _, callback = heapq.heappop(self._queue)
            else:
                time, _, callback = head
                self._stream_pos += 1
            self._prev_now = self.now
            self.now = time
            callback()
            return True
        if not self._queue:
            return False
        time, _, callback = heapq.heappop(self._queue)
        self._prev_now = self.now
        self.now = time
        callback()
        return True

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
