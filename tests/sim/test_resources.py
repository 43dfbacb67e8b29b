"""Tests for contended resources (repro.sim.resources)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.sim.engine import SimEngine
from repro.sim.policy import POLICIES
from repro.sim.resources import IoPriority, Resource


@pytest.fixture
def engine():
    return SimEngine()


@pytest.fixture
def resource(engine):
    return Resource(engine, "die0")


class TestFcfs:
    def test_single_op_timing(self, engine, resource):
        spans = []
        resource.submit(IoPriority.HOST_READ, 100.0, lambda s, e: spans.append((s, e)))
        engine.run()
        assert spans == [(0.0, 100.0)]

    def test_serial_service(self, engine, resource):
        spans = []
        for _ in range(3):
            resource.submit(
                IoPriority.HOST_READ, 50.0, lambda s, e: spans.append((s, e))
            )
        engine.run()
        assert spans == [(0.0, 50.0), (50.0, 100.0), (100.0, 150.0)]

    def test_busy_accounting(self, engine, resource):
        resource.submit(IoPriority.HOST_READ, 30.0, lambda s, e: None)
        resource.submit(IoPriority.HOST_READ, 70.0, lambda s, e: None)
        engine.run()
        assert resource.busy_us == 100.0
        assert resource.utilisation(200.0) == 0.5

    def test_negative_duration_rejected(self, resource):
        with pytest.raises(ValueError):
            resource.submit(IoPriority.HOST_READ, -1.0, lambda s, e: None)


class TestReadFirstScheduling:
    def test_queued_reads_overtake_queued_writes(self, engine, resource):
        order = []
        # Occupy the resource, then queue a write before a read.
        resource.submit(IoPriority.INTERNAL, 10.0, lambda s, e: order.append("internal"))
        resource.submit(IoPriority.HOST_WRITE, 10.0, lambda s, e: order.append("write"))
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: order.append("read"))
        engine.run()
        assert order == ["internal", "read", "write"]

    def test_service_is_non_preemptive(self, engine, resource):
        # A long internal op in service is never interrupted by a read.
        spans = {}
        resource.submit(
            IoPriority.INTERNAL, 1000.0, lambda s, e: spans.setdefault("internal", (s, e))
        )
        engine.at(5.0, lambda: resource.submit(
            IoPriority.HOST_READ, 10.0, lambda s, e: spans.setdefault("read", (s, e))
        ))
        engine.run()
        assert spans["internal"] == (0.0, 1000.0)
        assert spans["read"] == (1000.0, 1010.0)

    def test_priority_classes_drain_in_order(self, engine, resource):
        order = []
        resource.submit(IoPriority.INTERNAL, 1.0, lambda s, e: order.append("head"))
        for label, prio in [
            ("i1", IoPriority.INTERNAL),
            ("w1", IoPriority.HOST_WRITE),
            ("r1", IoPriority.HOST_READ),
            ("i2", IoPriority.INTERNAL),
            ("r2", IoPriority.HOST_READ),
        ]:
            resource.submit(prio, 1.0, lambda s, e, label=label: order.append(label))
        engine.run()
        assert order == ["head", "r1", "r2", "w1", "i1", "i2"]

    def test_submit_from_a_completion_starts_the_queued_op_first(
        self, engine, resource
    ):
        # The head's completion callback submits an internal op while the
        # resource is idle and a host read is already queued: the read
        # starts at once, inside that submit, and the internal op waits.
        spans = {}
        queued = []

        def head_done(s, e):
            resource.submit(
                IoPriority.INTERNAL, 5.0, lambda s, e: spans.setdefault("internal", (s, e))
            )
            queued.append(resource.queued)

        resource.submit(IoPriority.INTERNAL, 10.0, head_done)
        resource.submit(
            IoPriority.HOST_READ, 10.0, lambda s, e: spans.setdefault("read", (s, e))
        )
        engine.run()
        assert queued == [1]
        assert spans == {"read": (10.0, 20.0), "internal": (20.0, 25.0)}
        assert resource.queue_wait_stats()["internal"]["total_wait_us"] == 10.0

    def test_queued_count(self, engine, resource):
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None)
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None)
        assert resource.queued == 1
        engine.run()
        assert resource.queued == 0


class TestQueuedByClass:
    def test_fcfs_counts_by_dispatch_class_in_one_queue(self, engine, resource):
        # FCFS: every class waits in the host-read queue.
        fcfs = IoPriority.HOST_READ
        resource.submit(IoPriority.INTERNAL, 10.0, lambda s, e: None, fcfs)
        resource.submit(IoPriority.HOST_WRITE, 10.0, lambda s, e: None, fcfs)
        resource.submit(IoPriority.INTERNAL, 10.0, lambda s, e: None, fcfs)
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None, fcfs)
        assert resource.queued == 3  # the first is in service
        assert resource.queued_by_class() == {
            "host_read": 1,
            "host_write": 1,
            "internal": 1,
        }
        engine.run()
        assert resource.queued_by_class() == {
            "host_read": 0,
            "host_write": 0,
            "internal": 0,
        }

    def test_counts_with_wait_profiling_on(self, engine, resource):
        resource.enable_wait_profile()
        resource.submit(IoPriority.HOST_WRITE, 10.0, lambda s, e: None)
        for klass in (IoPriority.HOST_READ, IoPriority.INTERNAL, IoPriority.HOST_READ):
            resource.submit(klass, 10.0, lambda s, e: None)
        assert resource.queued_by_class() == {
            "host_read": 2,
            "host_write": 0,
            "internal": 1,
        }
        engine.run()
        # The queued ops carried profiling snapshots: their waits were
        # attributed, and the attribution sums to the queue waits.
        breakdown = resource.wait_class_breakdown()
        stats = resource.queue_wait_stats()
        for waiter, row in breakdown.items():
            attributed = sum(c["behind_us"] + c["inflight_us"] for c in row.values())
            assert attributed == pytest.approx(stats[waiter]["total_wait_us"])
        assert stats["host_read"]["total_wait_us"] == 10.0 + 20.0


class TestQueueWaitStats:
    def test_shape_when_idle(self, resource):
        stats = resource.queue_wait_stats()
        assert set(stats) == {"host_read", "host_write", "internal"}
        for entry in stats.values():
            assert entry == {"ops": 0, "total_wait_us": 0.0,
                             "mean_wait_us": 0.0}

    def test_back_to_back_reads_accumulate_wait(self, engine, resource):
        for _ in range(3):
            resource.submit(IoPriority.HOST_READ, 50.0, lambda s, e: None)
        engine.run()
        reads = resource.queue_wait_stats()["host_read"]
        # First starts at 0, second waits 50, third waits 100.
        assert reads["ops"] == 3
        assert reads["total_wait_us"] == 150.0
        assert reads["mean_wait_us"] == 50.0

    def test_wait_attributed_to_each_priority(self, engine, resource):
        resource.submit(IoPriority.INTERNAL, 100.0, lambda s, e: None)
        resource.submit(IoPriority.HOST_WRITE, 10.0, lambda s, e: None)
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None)
        engine.run()
        stats = resource.queue_wait_stats()
        assert stats["internal"]["total_wait_us"] == 0.0
        assert stats["host_read"]["total_wait_us"] == 100.0   # behind internal
        assert stats["host_write"]["total_wait_us"] == 110.0  # behind both

    def test_only_served_ops_counted(self, engine, resource):
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None)
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None)
        # Before the engine runs, only the first dispatched immediately.
        assert resource.queue_wait_stats()["host_read"]["ops"] == 1


class TestWaitClassBreakdown:
    """Who a queued op waited behind, per scheduling policy.

    Ops are submitted to the queue the policy's
    :data:`~repro.sim.policy.POLICIES` row maps their class to, exactly
    as the SSD model does, so each case exercises the real mapping.  The
    pinned invariant: the ``behind`` + ``inflight`` matrices sum to the
    class's total queue wait, and under read-first the scheduler never
    *starts* a write while a read is queued (``behind_us`` stays zero —
    a read's only write exposure is non-preemptive ``inflight_us``).
    """

    @staticmethod
    def submit_via(resource, policy, klass, duration):
        resource.submit(klass, duration, lambda s, e: None, queue=policy[klass])

    @staticmethod
    def total_wait(breakdown, waiter):
        return sum(
            cell["behind_us"] + cell["inflight_us"]
            for cell in breakdown[waiter].values()
        )

    def test_disabled_by_default(self, engine, resource):
        resource.submit(IoPriority.HOST_WRITE, 100.0, lambda s, e: None)
        resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None)
        engine.run()
        breakdown = resource.wait_class_breakdown()
        assert self.total_wait(breakdown, "host_read") == 0.0

    def test_read_first_reads_never_wait_behind_started_writes(
        self, engine, resource
    ):
        policy = POLICIES["read-first"]
        resource.enable_wait_profile()
        # Internal op in service; a write and a read queue behind it.
        self.submit_via(resource, policy, IoPriority.INTERNAL, 1000.0)
        engine.at(5.0, lambda: self.submit_via(
            resource, policy, IoPriority.HOST_WRITE, 50.0))
        engine.at(10.0, lambda: self.submit_via(
            resource, policy, IoPriority.HOST_READ, 10.0))
        engine.run()
        breakdown = resource.wait_class_breakdown()
        read = breakdown["host_read"]
        # The read overtook the queued write: no write service period
        # started during its wait, and none was in flight.
        assert read["host_write"]["behind_us"] == 0.0
        assert read["host_write"]["inflight_us"] == 0.0
        # Its whole wait is the in-service internal op's remainder.
        assert read["internal"]["inflight_us"] == 990.0
        assert self.total_wait(breakdown, "host_read") == 990.0
        # The write waited out the internal remainder (995) plus the
        # read the scheduler preferred (10, a *started* period).
        write = breakdown["host_write"]
        assert write["internal"]["inflight_us"] == 995.0
        assert write["host_read"]["behind_us"] == 10.0
        assert self.total_wait(breakdown, "host_write") == 1005.0

    def test_fcfs_reads_do_wait_behind_started_writes(self, engine, resource):
        policy = POLICIES["fcfs"]
        resource.enable_wait_profile()
        # One queue: write in service, a second write queued, then a read.
        self.submit_via(resource, policy, IoPriority.HOST_WRITE, 100.0)
        engine.at(5.0, lambda: self.submit_via(
            resource, policy, IoPriority.HOST_WRITE, 100.0))
        engine.at(10.0, lambda: self.submit_via(
            resource, policy, IoPriority.HOST_READ, 10.0))
        engine.run()
        read = resource.wait_class_breakdown()["host_read"]
        # The queued write started during the read's wait (FCFS chose
        # arrival order): 100 us of *started* write service, plus the
        # 90 us remainder of the write already in flight.
        assert read["host_write"]["behind_us"] == 100.0
        assert read["host_write"]["inflight_us"] == 90.0
        assert self.total_wait(
            resource.wait_class_breakdown(), "host_read") == 190.0

    def test_breakdown_sums_to_queue_wait_stats(self, engine, resource):
        policy = POLICIES["read-first"]
        resource.enable_wait_profile()
        for tick in range(8):
            klass = (IoPriority.INTERNAL, IoPriority.HOST_WRITE,
                     IoPriority.HOST_READ)[tick % 3]
            engine.at(tick * 30.0, lambda k=klass: self.submit_via(
                resource, policy, k, 100.0))
        engine.run()
        breakdown = resource.wait_class_breakdown()
        stats = resource.queue_wait_stats()
        for klass in ("host_read", "host_write", "internal"):
            assert self.total_wait(breakdown, klass) == pytest.approx(
                stats[klass]["total_wait_us"], abs=1e-9)

    def test_aggregate_across_resources(self, engine):
        from repro.sim.resources import aggregate_wait_breakdown

        first = Resource(engine, "die0", kind="die", index=0)
        second = Resource(engine, "die1", kind="die", index=1)
        for resource in (first, second):
            resource.enable_wait_profile()
            resource.submit(IoPriority.HOST_WRITE, 100.0, lambda s, e: None)
            resource.submit(IoPriority.HOST_READ, 10.0, lambda s, e: None)
        engine.run()
        merged = aggregate_wait_breakdown([first, second])
        # Each die exposed its read to a 100 us in-flight write.
        assert merged["host_read"]["host_write"]["inflight_us"] == 200.0
        assert merged["host_read"]["host_write"]["behind_us"] == 0.0


class TestCompletedOpRelease:
    """A resource must not keep its last served op alive: the op holds
    the completion callback, and through it a whole pipeline, request
    and span graph."""

    @pytest.mark.parametrize("queued", (False, True), ids=("idle", "queued"))
    def test_completion_callback_is_released(self, engine, resource, queued):
        gc.disable()
        try:
            if queued:
                # Occupy the resource so the watched op waits in a queue.
                resource.submit(IoPriority.INTERNAL, 5.0, lambda s, e: None)
            calls = []

            def on_done(start_us: float, end_us: float) -> None:
                calls.append(end_us)

            watched = weakref.ref(on_done)
            resource.submit(IoPriority.HOST_READ, 10.0, on_done)
            engine.run()
            del on_done
            assert calls == [15.0 if queued else 10.0]
            assert watched() is None
        finally:
            gc.enable()


class TestCredit:
    """``credit_run`` accounts a quiet run's stages exactly as idle fast
    starts do."""

    def test_matches_fast_start_accounting_without_an_event(self):
        served, credited = SimEngine(), SimEngine()
        a = Resource(served, "a")
        b = Resource(credited, "b")
        a.enable_wait_profile()
        b.enable_wait_profile()
        for klass, durations in (
            (IoPriority.INTERNAL, (2.5, 0.3, 1.7)),
            (IoPriority.HOST_READ, (0.1,)),
        ):
            busy_us, class_busy_us = b.busy_us, b.busy_us_by_class[klass]
            for duration in durations:
                start_us = served.now
                a.submit(klass, duration, lambda s, e: None)
                served.run()
                busy_us += duration
                class_busy_us += duration
            b.credit_run(
                klass, busy_us, class_busy_us, len(durations), start_us, served.now
            )
            credited.now = b._end_us
        assert credited.pending == 0 and credited.processed == 0
        assert b.busy_us == a.busy_us
        assert b.busy_us_by_class == a.busy_us_by_class
        assert b.queue_wait_stats() == a.queue_wait_stats()
        assert (b._klass, b._start_us, b._end_us) == (a._klass, a._start_us, a._end_us)
        # A later queued op sees the credited window as the last service.
        for engine, resource in ((served, a), (credited, b)):
            resource.submit(IoPriority.INTERNAL, 1.0, lambda s, e: None)
            resource.submit(IoPriority.HOST_READ, 1.0, lambda s, e: None)
            engine.run()
        assert b.wait_class_breakdown() == a.wait_class_breakdown()
