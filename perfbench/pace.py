"""Host time scaled to the machine's speed at the moment it was spent.

The benchmark shares a few cores of a host with other tenants, and their
load slows this process by up to about 1.8x in spells from half a second
to a minute long.  Neither CPU time nor a best-of-N pass filters that
out when a spell covers a whole run, so every host-time figure of the
benchmark is taken in *reference seconds* instead.

A :class:`Pacer` times a fixed pure-Python calibration loop (heap,
dict and small-object traffic, as in the simulator's event loop) at
every boundary the benchmark measures, and every ``TICK_S`` in between
from a ``SIGALRM`` handler.  Each stretch between two calibrations is scaled by
``REFERENCE_S`` over the mean of their two durations, and the time the
calibrations themselves took is left out.  A reference second is thus
a second of host time on a machine whose calibration loop takes
``REFERENCE_S``; a change that speeds up the simulator lowers it, a
busier neighbour does not.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from heapq import heappop, heappush
from time import perf_counter

#: Loop rounds of one calibration.
ROUNDS = 1000
#: The calibration time that defines a reference second.  A 2-vCPU
#: shared VM runs the loop in 0.93 ms in its fast spells, 1.7 ms in slow.
REFERENCE_S = 1.0e-3
#: Interval of the calibrations taken between boundaries, in s.
TICK_S = 0.05


class _Event:
    __slots__ = ("due", "key")

    def __init__(self, due: float, key: int) -> None:
        self.due = due
        self.key = key


def calibrate(rounds: int = ROUNDS) -> None:
    """A fixed amount of interpreter work; only its duration matters.

    The collector is off meanwhile, so a collection the simulator's
    allocations have made due never lands inside a calibration.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        table: dict = {}
        now = 0.0
        x = 12345
        for seq in range(rounds):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heappush(heap, (now + (x & 1023) * 1e-3, seq, _Event(now, x & 1023)))
            if len(heap) > 64:
                now, _, event = heappop(heap)
                table[event.key] = table.get(event.key, 0.0) + event.due
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Calibrations taken over a run, and intervals scaled between them.

    :meth:`mark` calibrates now and returns the index of that mark; the
    interval between two marks is read back with :meth:`seconds`.
    """

    def __init__(self) -> None:
        #: ``(start, end)`` of every calibration, in order.
        self.marks: list[tuple[float, float]] = []
        self._busy = False

    def mark(self) -> int:
        self._busy = True
        try:
            start = perf_counter()
            calibrate()
            self.marks.append((start, perf_counter()))
            return len(self.marks) - 1
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        # A tick that lands inside a mark would split it; skip it.
        if not self._busy:
            self.mark()

    @contextmanager
    def ticking(self):
        """Calibrate every ``TICK_S`` as well as at the marked boundaries."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def seconds(self, first: int, last: int) -> tuple[float, float]:
        """Host and reference seconds from the end of mark ``first`` to the
        start of mark ``last``, calibration time left out."""
        host = scaled = 0.0
        marks = self.marks
        for (a0, a1), (b0, b1) in zip(marks[first:last], marks[first + 1 : last + 1]):
            gap = b0 - a1
            host += gap
            scaled += gap * 2 * REFERENCE_S / ((a1 - a0) + (b1 - b0))
        return host, scaled

    def reset(self) -> None:
        self.marks.clear()
