"""Tests for the hardened sweep executor (timeouts, crashes, keep-going).

Worker misbehaviour is injected by monkeypatching
``repro.experiments.parallel.execute_unit`` *before* the pool forks:
with the default fork start method the children inherit the patched
module, so a unit whose workload is named ``crash`` can take its worker
down with ``os._exit`` — exactly the failure mode the executor must
contain, attribute and retry.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

import repro.experiments.parallel as parallel
from repro.experiments.config import RunScale
from repro.experiments.parallel import (
    RunUnit,
    SweepError,
    SweepExecutor,
    failed_workloads,
    prune_failed,
)
from repro.experiments.systems import baseline

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
    if name == "hang":
        time.sleep(60.0)
    if name.startswith("fail"):
        raise ValueError(f"deterministic failure in {name}")
    if name.startswith("flaky:"):
        marker = name.split(":", 1)[1]
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write("crashed once\n")
            os._exit(1)
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

    def test_crashed_unit_is_retried_on_fresh_pool(self, fake_worker, tmp_path):
        marker = tmp_path / "crashed-once"
        executor = SweepExecutor(jobs=2, max_retries=2, backoff_s=0.0)
        results = executor.map([_unit(f"flaky:{marker}"), _unit("b")])
        assert results[0] == f"ok:flaky:{marker}"
        assert results[1] == "ok:b"
        assert marker.exists()

    def test_retries_exhaust_into_sweep_error(self, fake_worker):
        executor = SweepExecutor(
            jobs=2, max_retries=1, backoff_s=0.0, keep_going=True
        )
        results = executor.map([_unit("crash"), _unit("a")])
        assert isinstance(results[0], SweepError)
        assert "gave up after 2 attempt(s)" in results[0].details
        assert results[1] == "ok:a"


class TestTimeout:
    def test_hung_worker_times_out(self, fake_worker):
        executor = SweepExecutor(
            jobs=2, timeout_s=1.0, keep_going=True, backoff_s=0.0
        )
        start = time.monotonic()
        results = executor.map([_unit("hang"), _unit("a")])
        assert time.monotonic() - start < 30.0
        assert isinstance(results[0], SweepError)
        assert "timed out" in str(results[0])
        assert results[1] == "ok:a"

    def test_fast_units_unaffected_by_timeout(self, fake_worker):
        executor = SweepExecutor(jobs=2, timeout_s=30.0)
        assert executor.map([_unit("a"), _unit("b")]) == ["ok:a", "ok:b"]


class TestDeterministicFailures:
    def test_deterministic_exception_is_never_retried(self, fake_worker):
        # A unit that *raises* (rather than crashing the process) fails
        # the same way every time; retrying would waste the budget.
        executor = SweepExecutor(
            jobs=2, max_retries=5, backoff_s=0.0, keep_going=True
        )
        start = time.monotonic()
        results = executor.map([_unit("fail-1"), _unit("a")])
        assert time.monotonic() - start < 30.0
        assert isinstance(results[0], SweepError)
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
        with pytest.raises(ValueError):
            SweepExecutor(timeout_s=0.0)
        with pytest.raises(ValueError):
            SweepExecutor(max_retries=-1)
        with pytest.raises(ValueError):
            SweepExecutor(backoff_s=-0.1)


class TestPruneHelpers:
    def _outcomes(self):
        units = [_unit("w1"), _unit("w2"), _unit("w1"), _unit("w2")]
        outcomes = [
            "r0",
            SweepError(units[1], "boom"),
            "r2",
            "r3",
        ]
        return units, outcomes

    def test_failed_workloads(self):
        units, outcomes = self._outcomes()
        assert failed_workloads(outcomes) == {"w2"}
        assert failed_workloads(["a", "b"]) == set()

    def test_failed_workloads_reports_each_drop_once(self):
        units, outcomes = self._outcomes()
        messages: list[str] = []
        outcomes.append(SweepError(units[3], "boom again"))
        assert failed_workloads(outcomes, messages.append) == {"w2"}
        assert messages == [
            "keep-going: dropping workload 'w2' (unit failed)"
        ]

    def test_prune_drops_whole_workload_groups(self):
        units, outcomes = self._outcomes()
        names = ["w1", "w2", "w1", "w2"]
        messages: list[str] = []
        kept_names, kept_units, kept_outcomes, errors = prune_failed(
            names, units, outcomes, messages.append
        )
        # Both w2 slots go — the failed one *and* its healthy sibling —
        # so fixed-stride group slicing downstream stays aligned.
        assert kept_names == ["w1", "w1"]
        assert [u.workload for u in kept_units] == ["w1", "w1"]
        assert kept_outcomes == ["r0", "r2"]
        assert len(errors) == 1 and isinstance(errors[0], SweepError)
        assert any("w2" in message for message in messages)

    def test_prune_noop_when_all_succeed(self):
        units = [_unit("w1"), _unit("w2")]
        names = ["w1", "w2"]
        outcomes = ["r0", "r1"]
        kept = prune_failed(names, units, outcomes)
        assert kept == (names, units, outcomes, [])
