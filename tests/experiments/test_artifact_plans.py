"""Tests for the artifact plans (repro.experiments.artifacts).

No simulation runs here: a recording executor stands in for
:class:`SweepExecutor`, the recovery plan's census probe is patched, and
reduces that would need real payloads are swapped for the identity, so
each test sees exactly which payload reached which artifact.
"""

from __future__ import annotations

import re

import pytest

import repro.experiments.recovery_artifact as recovery_artifact
from repro.cli import main
from repro.experiments.config import RunScale
from repro.experiments.artifacts import (
    ARTIFACTS,
    plan_artifacts,
    run_plans,
    unit_union,
)
from repro.experiments.parallel import RunUnit, SweepError
from repro.experiments.systems import baseline, ida

SCALE = RunScale.tiny()


class RecordingExecutor:
    """Records every ``map`` call; a unit fails when ``fails(unit)``."""

    def __init__(self, fails=lambda unit: False, **options):
        self.fails = fails
        self.progress = options.get("progress")
        self.snapshots = False
        self.calls: list[list[RunUnit]] = []

    def map(self, units):
        self.calls.append(list(units))
        return [
            SweepError(unit, "injected") if self.fails(unit) else ("payload", unit)
            for unit in units
        ]


@pytest.fixture
def no_census(monkeypatch):
    # Long enough that every cut share is met, as the real probe's is.
    monkeypatch.setattr(
        recovery_artifact, "probe_census", lambda *args, **kwargs: ["write"] * 1000
    )


@pytest.fixture
def identity_reduce(monkeypatch):
    for name in ("fig8", "table4", "fig10"):
        monkeypatch.setitem(
            ARTIFACTS, name, ARTIFACTS[name]._replace(reduce=dict)
        )


class TestOneSweep:
    @pytest.mark.parametrize(
        "extra, units", [([], 565), (["--workloads", "hm_1"], 248)]
    )
    def test_repro_all_maps_each_distinct_unit_once(
        self, extra, units, no_census, monkeypatch, capsys
    ):
        executors = []

        def executor(**options):
            # Every unit fails, so each artifact reduces an empty result.
            executors.append(RecordingExecutor(lambda unit: True, **options))
            return executors[-1]

        monkeypatch.setattr("repro.cli.SweepExecutor", executor)
        assert main(["all", "--scale", "tiny"] + extra) == 0
        (recorder,) = executors
        (mapped,) = recorder.calls
        assert len(mapped) == units
        assert len(set(mapped)) == units
        out = capsys.readouterr().out
        assert re.search(rf"\[all: \d+\.\ds, {units} unit\(s\)\]", out), out

    def test_shared_unit_runs_once_and_reaches_both_reduces(self, identity_reduce):
        plans = plan_artifacts(["fig8", "table4"], SCALE, ["hm_1"])
        shared = RunUnit(ida(0.2), "hm_1", SCALE)
        assert shared in plans["fig8"] and shared in plans["table4"]
        executor = RecordingExecutor()
        results = run_plans(plans, executor)
        (mapped,) = executor.calls
        assert mapped.count(shared) == 1
        assert results["fig8"][shared] is results["table4"][shared]

    def test_fig9_default_dtr_column_reuses_fig8_units(self):
        plans = plan_artifacts(["fig8", "fig9"], SCALE, ["hm_1"])
        assert RunUnit(baseline(), "hm_1", SCALE) in plans["fig9"]
        # 7 Fig. 8 units + 10 Fig. 9 units, two of them Fig. 8's.
        assert len(unit_union(plans)) == 15

    def test_ablation_adjust_plans_one_baseline_per_workload(self):
        plans = plan_artifacts(["ablation-adjust"], SCALE)
        assert len(plans["ablation-adjust"]) == 12
        executor = RecordingExecutor(lambda unit: True)
        run_plans(plans, executor)
        (mapped,) = executor.calls
        assert len(mapped) == 9


class TestKeepGoing:
    @staticmethod
    def _run(fails):
        plans = plan_artifacts(["fig8", "table4", "fig10"], SCALE, ["hm_1", "usr_1"])
        messages: list[str] = []
        results = run_plans(plans, RecordingExecutor(fails, progress=messages.append))
        return plans, results, messages

    def test_failed_unit_drops_workload_where_planned(
        self, identity_reduce
    ):
        failing = RunUnit(ida(0.2), "usr_1", SCALE)
        plans, results, messages = self._run(lambda unit: unit == failing)
        # fig8 loses its healthy usr_1 units too, not just the failed one.
        for name in ("fig8", "table4"):
            assert {u.workload_name for u in results[name]} == {"hm_1"}
        assert len(results["fig8"]) == 7
        # fig10's closed-loop usr_1 units did not fail: it keeps usr_1.
        assert list(results["fig10"]) == plans["fig10"]
        assert messages == ["keep-going: dropping workload 'usr_1' (unit failed)"]

    def test_each_drop_is_reported_once(self, identity_reduce):
        _, results, messages = self._run(lambda unit: unit.workload == "usr_1")
        for result in results.values():
            assert {u.workload_name for u in result} == {"hm_1"}
        assert messages == ["keep-going: dropping workload 'usr_1' (unit failed)"]

    def test_nothing_dropped_when_every_unit_succeeds(self, identity_reduce):
        plans, results, messages = self._run(lambda unit: False)
        for name, plan in plans.items():
            assert list(results[name]) == plan
            assert all(payload == ("payload", u) for u, payload in results[name].items())
        assert messages == []
