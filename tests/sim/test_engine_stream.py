"""Stream admission of the event engine.

``add_stream`` is how the open-loop driver admits requests: a
time-sorted run of events that bypasses the heap but reserves the exact
sequence numbers per-event ``at()`` calls would have consumed, so the
merged firing order is byte-identical.  These tests pin that
equivalence, the exact ``peak_pending`` statistic, and the error
contract.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import SimEngine


def _record(log: list, tag: str):
    def callback() -> None:
        log.append(tag)

    return callback


class TestStreamOrdering:
    def test_stream_alone_fires_in_time_order(self):
        engine = SimEngine()
        log: list[str] = []
        n = engine.add_stream(
            [(1.0, _record(log, "a")), (2.0, _record(log, "b")), (2.0, _record(log, "c"))]
        )
        assert n == 3
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 2.0
        assert engine.processed == 3

    def test_stream_merges_against_heap_by_time_then_seq(self):
        """Heap events scheduled BEFORE the stream hold earlier sequence
        numbers, so at equal times they fire first; events scheduled
        after (from callbacks) hold later ones and fire after."""
        engine = SimEngine()
        log: list[str] = []
        engine.at(2.0, _record(log, "heap-before"))
        engine.add_stream([(1.0, _record(log, "s1")), (2.0, _record(log, "s2"))])
        engine.at(2.0, _record(log, "heap-after"))
        engine.run()
        assert log == ["s1", "heap-before", "s2", "heap-after"]

    def test_stream_matches_at_admission_byte_for_byte(self):
        """The equivalence the open-loop driver relies on: same
        callbacks, same times → identical firing order under either
        admission."""
        times = [0.0, 0.5, 0.5, 1.5, 1.5, 1.5, 3.0]

        def run(use_stream: bool) -> list[int]:
            engine = SimEngine()
            log: list[int] = []
            # A callback that schedules follow-up work, like dispatches do.
            def make(i: int):
                def callback() -> None:
                    log.append(i)
                    if i % 2 == 0:
                        engine.after(0.25, _record(log, -i))

                return callback

            events = [(t, make(i)) for i, t in enumerate(times)]
            if use_stream:
                engine.add_stream(events)
            else:
                for t, cb in events:
                    engine.at(t, cb)
            engine.run()
            return log

        assert run(use_stream=True) == run(use_stream=False)

    def test_callbacks_may_schedule_past_the_stream_tail(self):
        engine = SimEngine()
        log: list[str] = []

        def chain() -> None:
            log.append("head")
            engine.after(10.0, _record(log, "tail"))

        engine.add_stream([(1.0, chain)])
        engine.run()
        assert log == ["head", "tail"]
        assert engine.now == 11.0


class TestStreamErrors:
    def test_unsorted_stream_rejected(self):
        engine = SimEngine()
        with pytest.raises(ValueError, match="sorted"):
            engine.add_stream([(2.0, lambda: None), (1.0, lambda: None)])

    def test_past_time_rejected(self):
        engine = SimEngine()
        engine.at(5.0, lambda: None)
        engine.run()
        assert engine.now == 5.0
        with pytest.raises(ValueError, match="cannot schedule"):
            engine.add_stream([(1.0, lambda: None)])

    def test_second_stream_before_drain_rejected(self):
        engine = SimEngine()
        engine.add_stream([(1.0, lambda: None)])
        with pytest.raises(RuntimeError, match="not drained"):
            engine.add_stream([(2.0, lambda: None)])

    def test_new_stream_allowed_after_drain(self):
        engine = SimEngine()
        log: list[str] = []
        engine.add_stream([(1.0, _record(log, "first"))])
        engine.run()
        engine.add_stream([(2.0, _record(log, "second"))])
        engine.run()
        assert log == ["first", "second"]


class TestPeakPending:
    @pytest.mark.parametrize("seed", range(8))
    def test_stream_and_at_admission_agree_on_order_and_peak(self, seed):
        """Callbacks push follow-ups mid-drain (some at the same instant,
        some far ahead), an earlier burst has already drained, and heap
        events exist before and after admission: the firing order and
        the queue high-water mark must match event for event."""
        rng = random.Random(seed)
        times = sorted(rng.uniform(0.0, 50.0) for _ in range(rng.randint(1, 40)))
        drained = rng.randint(0, 30)
        before = [rng.uniform(0.0, 60.0) for _ in range(rng.randint(0, 5))]
        after = [rng.uniform(0.0, 60.0) for _ in range(rng.randint(0, 5))]
        fanout = [rng.randint(0, 3) for _ in times]
        delays = [rng.choice((0.0, 0.5, 5.0, 30.0)) for _ in range(4 * len(times))]

        def run(use_stream: bool) -> tuple[list, int, list[int]]:
            engine = SimEngine()
            log: list = []
            peaks: list[int] = []
            delay_iter = iter(delays)

            def make(i: int):
                def callback() -> None:
                    log.append(i)
                    peaks.append(engine.peak_pending)
                    for k in range(fanout[i]):
                        engine.push(
                            engine.now + next(delay_iter), _record(log, (i, k))
                        )

                return callback

            # An earlier, already drained burst sets a high-water mark
            # the admission must neither lose nor add to.
            for j in range(drained):
                engine.at(0.0, _record(log, ("drained", j)))
            engine.run()
            for j, t in enumerate(before):
                engine.at(t, _record(log, ("before", j)))
            events = [(t, make(i)) for i, t in enumerate(times)]
            if use_stream:
                engine.add_stream(events)
            else:
                for t, cb in events:
                    engine.at(t, cb)
            for j, t in enumerate(after):
                engine.at(t, _record(log, ("after", j)))
            engine.run()
            assert engine.pending == 0
            return log, engine.peak_pending, peaks

        assert run(use_stream=True) == run(use_stream=False)

    def test_stream_counts_toward_peak_from_admission(self):
        engine = SimEngine()
        engine.at(0.5, lambda: None)
        engine.add_stream([(float(i), lambda: None) for i in range(10)])
        assert engine.pending == 11
        assert engine.peak_pending == 11
        engine.run()
        assert engine.peak_pending == 11
        assert engine.processed == 11


class TestHorizon:
    """``horizon()``: the earliest pending time, heap top or stream head."""

    def test_empty_engine_has_an_infinite_horizon(self):
        engine = SimEngine()
        assert engine.horizon() == float("inf")
        engine.at(1.0, lambda: None)
        engine.run()
        assert engine.horizon() == float("inf")

    def test_heap_only(self):
        engine = SimEngine()
        engine.at(5.0, lambda: None)
        engine.at(2.0, lambda: None)
        engine.push(3.0, lambda: None)
        assert engine.horizon() == 2.0

    def test_stream_only(self):
        engine = SimEngine()
        engine.add_stream([(4.0, lambda: None), (6.0, lambda: None)])
        assert engine.horizon() == 4.0

    @pytest.mark.parametrize(
        "heap_at, expected", [(1.0, 1.0), (4.0, 4.0), (9.0, 4.0)]
    )
    def test_heap_and_stream(self, heap_at, expected):
        engine = SimEngine()
        engine.add_stream([(4.0, lambda: None), (6.0, lambda: None)])
        engine.at(heap_at, lambda: None)
        assert engine.horizon() == expected

    def test_mid_drain_sees_what_is_still_pending(self):
        """Inside a callback the firing event is no longer pending."""
        engine = SimEngine()
        seen: list[tuple[str, float]] = []

        def note(tag: str):
            return lambda: seen.append((tag, engine.horizon()))

        engine.add_stream([(1.0, note("s1")), (3.0, note("s3")), (3.0, note("s3b"))])
        engine.at(2.0, note("h2"))
        engine.at(5.0, note("h5"))
        engine.at(0.5, lambda: engine.push(4.0, note("pushed4")))
        engine.run()
        assert seen == [
            ("s1", 2.0),
            ("h2", 3.0),
            ("s3", 3.0),
            ("s3b", 4.0),
            ("pushed4", 5.0),
            ("h5", float("inf")),
        ]

    def test_step_publishes_the_stream_position_first(self):
        """Each step of a run advances the stream before its callback, so
        a stream callback sees the next stream event as the horizon."""
        engine = SimEngine()
        seen: list[float] = []
        engine.add_stream(
            [(1.0, lambda: seen.append(engine.horizon())), (2.0, lambda: None)]
        )
        engine.run()
        assert seen == [2.0]
