"""Tests for scheduling policies (repro.sim.policy)."""

from __future__ import annotations

import inspect

import pytest

from repro.sim.engine import SimEngine
from repro.sim.policy import POLICIES, queue_classes
from repro.sim.resources import IoPriority, Resource
from repro.sim.ssd import SsdSimulator


class TestRegistry:
    def test_every_policy_maps_every_class(self):
        for name, queues in POLICIES.items():
            assert len(queues) == len(IoPriority)
            assert all(isinstance(queue, IoPriority) for queue in queues)
            assert queue_classes(name) is queues

    def test_simulator_defaults_to_read_first(self):
        default = inspect.signature(SsdSimulator).parameters["policy"].default
        assert default == "read-first"

    def test_queue_classes_by_name(self):
        assert queue_classes("read-first") == tuple(IoPriority)
        assert queue_classes("fcfs") == (IoPriority.HOST_READ,) * 3

    def test_unknown_name_lists_choices(self):
        for name in ("sjf", "throttled"):
            with pytest.raises(ValueError, match="fcfs, read-first") as excinfo:
                queue_classes(name)
            assert repr(name) in str(excinfo.value)


class TestQueueMapping:
    def test_read_first_keeps_one_queue_per_class(self):
        queues = POLICIES["read-first"]
        for klass in IoPriority:
            assert queues[klass] is klass

    def test_fcfs_collapses_all_classes_into_one_queue(self):
        queues = POLICIES["fcfs"]
        assert len({queues[klass] for klass in IoPriority}) == 1


class TestFcfsOrderingOnResource:
    def test_fcfs_serves_in_arrival_order(self):
        # Under FCFS mapping, a host read submitted *after* an internal
        # op must not overtake it.
        engine = SimEngine()
        die = Resource(engine, "die")
        queues = POLICIES["fcfs"]
        order: list[str] = []

        def busy() -> None:
            die.submit(IoPriority.INTERNAL, 10.0, lambda s, e: order.append("busy"),
                       queue=queues[IoPriority.INTERNAL])

        def internal() -> None:
            die.submit(IoPriority.INTERNAL, 5.0, lambda s, e: order.append("internal"),
                       queue=queues[IoPriority.INTERNAL])

        def read() -> None:
            die.submit(IoPriority.HOST_READ, 1.0, lambda s, e: order.append("read"),
                       queue=queues[IoPriority.HOST_READ])

        engine.at(0.0, busy)
        engine.at(1.0, internal)
        engine.at(2.0, read)
        engine.run()
        assert order == ["busy", "internal", "read"]

    def test_read_first_lets_read_overtake(self):
        # Same arrival pattern under read-first: the read jumps the
        # queued internal op (but never the in-service one).
        engine = SimEngine()
        die = Resource(engine, "die")
        queues = POLICIES["read-first"]
        order: list[str] = []

        def submit(klass: IoPriority, duration: float, label: str):
            def doit() -> None:
                die.submit(klass, duration, lambda s, e: order.append(label),
                           queue=queues[klass])

            return doit

        engine.at(0.0, submit(IoPriority.INTERNAL, 10.0, "busy"))
        engine.at(1.0, submit(IoPriority.INTERNAL, 5.0, "internal"))
        engine.at(2.0, submit(IoPriority.HOST_READ, 1.0, "read"))
        engine.run()
        assert order == ["busy", "read", "internal"]

    def test_accounting_stays_per_dispatch_class_under_fcfs(self):
        # FCFS collapses queues, but wait accounting must still be
        # attributed to the *dispatch* class.
        engine = SimEngine()
        die = Resource(engine, "die")
        queues = POLICIES["fcfs"]
        die.submit(IoPriority.INTERNAL, 10.0, lambda s, e: None,
                   queue=queues[IoPriority.INTERNAL])
        die.submit(IoPriority.HOST_READ, 1.0, lambda s, e: None,
                   queue=queues[IoPriority.HOST_READ])
        engine.run()
        stats = die.queue_wait_stats()
        assert stats["internal"]["ops"] == 1
        assert stats["host_read"]["ops"] == 1
        assert stats["host_read"]["total_wait_us"] == pytest.approx(10.0)
