"""Tests for the event engine (repro.sim.engine)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimEngine()
        fired = []
        engine.at(30.0, lambda: fired.append("c"))
        engine.at(10.0, lambda: fired.append("a"))
        engine.at(20.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 30.0

    def test_ties_fire_in_insertion_order(self):
        engine = SimEngine()
        fired = []
        for label in "abc":
            engine.at(5.0, lambda label=label: fired.append(label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_after_is_relative(self):
        engine = SimEngine()
        times = []
        engine.at(10.0, lambda: engine.after(5.0, lambda: times.append(engine.now)))
        engine.run()
        assert times == [15.0]

    def test_callbacks_can_schedule_more(self):
        engine = SimEngine()
        counter = []

        def chain():
            counter.append(engine.now)
            if len(counter) < 5:
                engine.after(1.0, chain)

        engine.at(0.0, chain)
        engine.run()
        assert counter == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_scheduling_in_the_past_rejected(self):
        engine = SimEngine()
        engine.at(10.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match="cannot schedule"):
            engine.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimEngine().after(-1.0, lambda: None)


class TestPastTolerance:
    """Float round-off in `after()` chains must not abort a run."""

    def test_round_off_hair_in_past_clamps_to_now(self):
        engine = SimEngine()
        engine.at(100.0, lambda: None)
        engine.run()
        fired = []
        engine.at(100.0 - 1e-10, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [100.0]  # clamped, not rejected

    def test_relative_tolerance_at_large_clock_values(self):
        engine = SimEngine()
        engine.at(1e9, lambda: None)
        engine.run()
        # A few ulps at now=1e9 is ~1e-7 — absolute tolerance alone
        # would reject it.
        engine.at(1e9 - 1e-7 * 0.5, lambda: None)
        engine.run()
        assert engine.now == 1e9

    def test_genuinely_past_times_still_raise(self):
        engine = SimEngine()
        engine.at(100.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match="cannot schedule"):
            engine.at(99.9, lambda: None)


class TestRewind:
    def test_rewind_restores_previous_event_time(self):
        engine = SimEngine()
        engine.at(10.0, lambda: None)
        engine.at(25.0, lambda: engine.rewind_to_previous_event())
        engine.run()
        assert engine.now == 10.0

    def test_rewind_with_pending_events_rejected(self):
        engine = SimEngine()
        seen = []

        def observer():
            with pytest.raises(RuntimeError):
                engine.rewind_to_previous_event()
            seen.append(True)

        engine.at(5.0, observer)
        engine.at(10.0, lambda: None)
        engine.run()
        assert seen == [True]


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40))
    def test_any_schedule_fires_sorted(self, times):
        engine = SimEngine()
        fired = []
        for t in times:
            engine.at(t, lambda t=t: fired.append(t))
        engine.run()
        assert fired == sorted(fired)
