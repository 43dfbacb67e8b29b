"""Tests for the hardened sweep executor (worker crashes, keep-going).

Worker misbehaviour is injected by monkeypatching
``repro.experiments.parallel.execute_unit`` *before* the pool forks:
with the default fork start method the children inherit the patched
module, so a unit whose workload is named ``crash`` can take its worker
down with ``os._exit`` — exactly the failure mode the executor must
contain and attribute.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

import repro.experiments.parallel as parallel
from repro.experiments.artifacts import ARTIFACTS, plan_artifacts, run_plans
from repro.experiments.config import RunScale
from repro.experiments.parallel import (
    RunUnit,
    SweepError,
    SweepExecutor,
    warm_key_for_unit,
)
from repro.experiments.runner import RunResultPayload
from repro.experiments.systems import baseline, ida

SCALE = RunScale.tiny()

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="crash injection relies on fork inheriting the patched module",
)


def _unit(workload: str) -> RunUnit:
    # The fake worker never resolves the workload, so any name works.
    return RunUnit(baseline(), workload, SCALE)


def _fake_execute_unit(unit, warm=None):
    name = unit.workload
    if name == "crash":
        os._exit(1)
    if name.startswith("fail"):
        raise ValueError(f"deterministic failure in {name}")
    return f"ok:{name}"


@pytest.fixture
def fake_worker(monkeypatch):
    monkeypatch.setattr(parallel, "execute_unit", _fake_execute_unit)


class TestWorkerCrash:
    def test_crash_is_contained_and_attributed(self, fake_worker):
        executor = SweepExecutor(jobs=2, keep_going=True)
        results = executor.map([_unit("a"), _unit("crash"), _unit("b")])
        assert results[0] == "ok:a"
        assert isinstance(results[1], SweepError)
        assert "crash" in str(results[1])
        assert results[2] == "ok:b"

    def test_crash_raises_without_keep_going(self, fake_worker):
        executor = SweepExecutor(jobs=2)
        with pytest.raises(SweepError, match="crash"):
            executor.map([_unit("a"), _unit("crash")])

    def test_pool_is_cleaned_up_after_crash(self, fake_worker):
        executor = SweepExecutor(jobs=2, keep_going=True)
        executor.map([_unit("crash"), _unit("a")])
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestSharedMemoryRelease:
    # Queue depth is invisible to the warm-up, so every unit below shares
    # one warm key (one published segment) while the fake worker can
    # still single one out to crash.  The crashing unit comes first: the
    # executor charges a broken pool to the unit it is waiting on, and
    # the healthy units then re-run on a fresh pool from the same
    # segment.
    CRASH_DEPTH = 13

    def test_segments_are_released_after_a_crashed_sweep(self, monkeypatch):
        from multiprocessing import shared_memory

        real_execute_unit = parallel.execute_unit
        real_publish = parallel.publish_warm_state
        published: list[str] = []

        def crash_on_depth(unit, warm=None):
            if unit.queue_depth == self.CRASH_DEPTH:
                os._exit(1)
            return real_execute_unit(unit, warm=warm)

        def recording_publish(warm):
            ref, shm = real_publish(warm)
            published.append(shm.name)
            return ref, shm

        monkeypatch.setattr(parallel, "execute_unit", crash_on_depth)
        monkeypatch.setattr(parallel, "publish_warm_state", recording_publish)
        units = [
            RunUnit(baseline(), "hm_1", SCALE, queue_depth=depth)
            for depth in (self.CRASH_DEPTH, 32, 16)
        ]
        assert len({warm_key_for_unit(unit) for unit in units}) == 1

        executor = SweepExecutor(jobs=2, snapshots=True, keep_going=True)
        results = executor.map(units)

        assert isinstance(results[0], SweepError)
        assert isinstance(results[1], RunResultPayload)
        assert isinstance(results[2], RunResultPayload)
        assert len(published) == 1
        for name in published:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestDeterministicFailures:
    def test_deterministic_exception_is_reported_with_worker_traceback(
        self, fake_worker
    ):
        executor = SweepExecutor(jobs=2, keep_going=True)
        results = executor.map([_unit("fail-1"), _unit("a")])
        assert isinstance(results[0], SweepError)
        assert isinstance(results[0].__cause__, ValueError)
        assert "deterministic failure" in str(results[0].details)
        assert results[1] == "ok:a"

    def test_inline_keep_going_collects_errors(self, fake_worker):
        executor = SweepExecutor(jobs=1, keep_going=True)
        results = executor.map([_unit("a"), _unit("fail-2"), _unit("b")])
        assert results[0] == "ok:a"
        assert isinstance(results[1], SweepError)
        assert isinstance(results[1].__cause__, ValueError)
        assert results[2] == "ok:b"

    def test_inline_raises_without_keep_going(self, fake_worker):
        executor = SweepExecutor(jobs=1)
        with pytest.raises(SweepError, match="fail-3"):
            executor.map([_unit("fail-3")])


class TestConstructorValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)


class TestPruneHelpers:
    """Keep-going through ``run_plans``: a failed unit drops its workload."""

    FAILING = RunUnit(ida(0.2), "usr_1", SCALE)

    @pytest.fixture
    def sweep(self, monkeypatch):
        def execute(unit, warm=None):
            if unit == self.FAILING:
                raise ValueError("boom")
            return f"ok:{unit.workload}"

        monkeypatch.setattr(parallel, "execute_unit", execute)
        monkeypatch.setitem(ARTIFACTS, "fig8", ARTIFACTS["fig8"]._replace(reduce=dict))
        plans = plan_artifacts(["fig8"], SCALE, ["hm_1", "usr_1"])
        messages: list[str] = []
        executor = SweepExecutor(keep_going=True, progress=messages.append)
        return plans["fig8"], run_plans(plans, executor)["fig8"], messages

    def test_failed_workloads(self, sweep):
        plan, kept, messages = sweep
        assert {u.workload_name for u in plan} == {"hm_1", "usr_1"}
        assert {u.workload_name for u in kept} == {"hm_1"}
        assert [m for m in messages if m.startswith("keep-going")] == [
            "keep-going: dropping workload 'usr_1' (unit failed)"
        ]

    def test_prune_drops_whole_workload_groups(self, sweep):
        plan, kept, _ = sweep
        # Every usr_1 unit goes — the failed one *and* its healthy
        # siblings — while each hm_1 unit keeps its own payload.
        assert list(kept) == [u for u in plan if u.workload_name == "hm_1"]
        assert len(kept) == 7
        assert all(payload == "ok:hm_1" for payload in kept.values())
