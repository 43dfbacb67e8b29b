"""Tests for the one instrumentation attach point (repro.obs.instruments)."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.config import RunScale
from repro.experiments.parallel import RunUnit, SweepExecutor
from repro.experiments.runner import run_workload
from repro.experiments.systems import ida
from repro.obs import (
    DEFAULT_READ_P99_SLO,
    HealthMonitor,
    Instruments,
    IntervalCollector,
    NullTracer,
    SimProfiler,
    Telemetry,
)
from repro.workloads import workload

SCALE = RunScale.tiny()


class TestBoundaryChecks:
    def test_slo_requires_health(self):
        with pytest.raises(ValueError, match="health"):
            Instruments(slo=(DEFAULT_READ_P99_SLO,))

    @pytest.mark.parametrize("interval_us", [0.0, -5.0])
    def test_interval_must_be_positive(self, interval_us):
        with pytest.raises(ValueError, match="interval_us"):
            Instruments(interval_us=interval_us)

    def test_duplicate_trace_path_rejected(self, tmp_path):
        traced = Instruments(trace_path=str(tmp_path / "t.jsonl"))
        units = [
            RunUnit(ida(0.2), name, SCALE, instruments=traced)
            for name in ("usr_1", "hm_1")
        ]
        with pytest.raises(ValueError, match="trace_path"):
            SweepExecutor(jobs=2).map(units)
        assert not (tmp_path / "t.jsonl").exists()

    def test_health_needs_a_collector(self):
        with pytest.raises(ValueError, match="collector"):
            Telemetry(health=HealthMonitor())

    def test_capacity_units_take_no_instruments(self):
        with pytest.raises(ValueError, match="instruments"):
            RunUnit(
                ida(0.2), "usr_1", SCALE, mode="capacity",
                instruments=Instruments(profile=True),
            )


class TestSpec:
    def test_pickle_round_trip(self):
        spec = Instruments(
            trace_path="/tmp/run.jsonl",
            interval_us=20_000.0,
            profile=True,
            health=True,
            slo=(DEFAULT_READ_P99_SLO,),
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_health_without_interval_samples_sixteen_times(self):
        telemetry = Instruments(health=True).build(1_600.0)
        assert telemetry.collector.interval_us == 100.0
        assert telemetry.health.slo is None
        # The cadence collector serves the monitor only: no series.
        assert telemetry.payload()["time_series"] is None

    def test_empty_spec_builds_bare_telemetry(self):
        payload = Instruments().build(1_000.0).payload()
        assert payload == {
            "profile": None,
            "health": None,
            "time_series": None,
            "trace_path": None,
        }

    def test_explicit_interval_publishes_series(self):
        telemetry = Telemetry(collector=IntervalCollector(100.0))
        assert telemetry.payload()["time_series"] == {
            "summary": telemetry.collector.summary(),
            "intervals": [],
        }


class TestInlineVsPooled:
    def test_same_payload_and_trace_bytes(self, tmp_path):
        def unit(name: str) -> RunUnit:
            return RunUnit(
                ida(0.2),
                "usr_1",
                SCALE,
                instruments=Instruments(
                    trace_path=str(tmp_path / name),
                    interval_us=20_000.0,
                    profile=True,
                    health=True,
                    slo=(DEFAULT_READ_P99_SLO,),
                ),
            )

        (inline,) = SweepExecutor(jobs=1).map([unit("inline.jsonl")])
        (pooled,) = SweepExecutor(jobs=2).map([unit("pooled.jsonl")])
        assert inline.telemetry["trace_path"] == str(tmp_path / "inline.jsonl")
        assert pooled.telemetry["trace_path"] == str(tmp_path / "pooled.jsonl")
        for key in ("profile", "health", "time_series"):
            assert inline.telemetry[key] is not None
            assert pooled.telemetry[key] == inline.telemetry[key]
        inline_trace = (tmp_path / "inline.jsonl").read_bytes()
        assert inline_trace
        assert (tmp_path / "pooled.jsonl").read_bytes() == inline_trace


class TestPassiveHooksFoldReads:
    """The passive variants CI's overhead gate times against a bare run
    (``benchmarks/bench_obs_overhead.py``) must take the same folded read
    path, or the gate would compare unlike work: a null tracer or a
    health monitor leaves read requests folded, a profiler unfolds them."""

    @staticmethod
    def _events(monkeypatch, telemetry) -> int:
        """Events the run fired, not counting interval-collector ticks."""
        seen: dict[str, int] = {"ticks": 0}
        end_run = Telemetry.end_run
        tick = IntervalCollector._tick

        def counted_tick(collector):
            seen["ticks"] += 1
            tick(collector)

        def recorded_end(self, sim):
            seen["processed"] = sim.engine.processed
            end_run(self, sim)

        monkeypatch.setattr(IntervalCollector, "_tick", counted_tick)
        monkeypatch.setattr(Telemetry, "end_run", recorded_end)
        spec = workload("usr_1")
        run_workload(ida(0.2), spec, SCALE, seed=11, telemetry=telemetry)
        monkeypatch.undo()
        return seen["processed"] - seen["ticks"]

    def test_passive_variants_fire_the_bare_runs_events(self, monkeypatch):
        bare = self._events(monkeypatch, None)
        null = self._events(monkeypatch, Telemetry(tracer=NullTracer()))
        duration_us = workload("usr_1").scaled(
            SCALE.num_requests, SCALE.footprint_pages
        ).duration_us
        health = self._events(
            monkeypatch,
            Instruments(health=True, slo=(DEFAULT_READ_P99_SLO,)).build(duration_us),
        )
        profiled = self._events(
            monkeypatch, Telemetry(profiler=SimProfiler(keep_events=False))
        )
        assert null == bare
        assert health == bare
        assert profiled > bare
