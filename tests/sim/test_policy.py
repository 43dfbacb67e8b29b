"""Tests for scheduling policies (repro.sim.policy)."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimEngine
from repro.sim.policy import (
    POLICIES,
    FcfsPolicy,
    ReadFirstPolicy,
    SchedulingPolicy,
    ThrottledInternalPolicy,
    make_policy,
)
from repro.sim.resources import IoPriority, Resource


class TestRegistry:
    def test_registry_names_match_instances(self):
        for name, cls in POLICIES.items():
            assert cls().name == name

    def test_make_policy_defaults_to_read_first(self):
        assert isinstance(make_policy(None), ReadFirstPolicy)

    def test_make_policy_by_name(self):
        assert isinstance(make_policy("fcfs"), FcfsPolicy)
        assert isinstance(make_policy("throttled"), ThrottledInternalPolicy)

    def test_make_policy_passes_instances_through(self):
        policy = ThrottledInternalPolicy(internal_gap_us=25.0)
        assert make_policy(policy) is policy

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="read-first"):
            make_policy("sjf")


class TestQueueMapping:
    def test_read_first_keeps_one_queue_per_class(self):
        policy = ReadFirstPolicy()
        for klass in IoPriority:
            assert policy.queue_class(klass) is klass

    def test_fcfs_collapses_all_classes_into_one_queue(self):
        policy = FcfsPolicy()
        queues = {policy.queue_class(klass) for klass in IoPriority}
        assert len(queues) == 1

    def test_throttled_validates_gap(self):
        with pytest.raises(ValueError):
            ThrottledInternalPolicy(internal_gap_us=-1.0)

    def test_base_policy_queue_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SchedulingPolicy().queue_class(IoPriority.HOST_READ)


class TestFcfsOrderingOnResource:
    def test_fcfs_serves_in_arrival_order(self):
        # Under FCFS mapping, a host read submitted *after* an internal
        # op must not overtake it.
        engine = SimEngine()
        die = Resource(engine, "die")
        policy = FcfsPolicy()
        order: list[str] = []

        def busy() -> None:
            die.submit(IoPriority.INTERNAL, 10.0, lambda s, e: order.append("busy"),
                       queue=policy.queue_class(IoPriority.INTERNAL))

        def internal() -> None:
            die.submit(IoPriority.INTERNAL, 5.0, lambda s, e: order.append("internal"),
                       queue=policy.queue_class(IoPriority.INTERNAL))

        def read() -> None:
            die.submit(IoPriority.HOST_READ, 1.0, lambda s, e: order.append("read"),
                       queue=policy.queue_class(IoPriority.HOST_READ))

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
        policy = ReadFirstPolicy()
        order: list[str] = []

        def submit(klass: IoPriority, duration: float, label: str):
            def doit() -> None:
                die.submit(klass, duration, lambda s, e: order.append(label),
                           queue=policy.queue_class(klass))

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
        policy = FcfsPolicy()
        die.submit(IoPriority.INTERNAL, 10.0, lambda s, e: None,
                   queue=policy.queue_class(IoPriority.INTERNAL))
        die.submit(IoPriority.HOST_READ, 1.0, lambda s, e: None,
                   queue=policy.queue_class(IoPriority.HOST_READ))
        engine.run()
        stats = die.queue_wait_stats()
        assert stats["internal"]["ops"] == 1
        assert stats["host_read"]["ops"] == 1
        assert stats["host_read"]["total_wait_us"] == pytest.approx(10.0)
