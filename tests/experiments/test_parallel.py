"""Unit tests for the parallel sweep executor and its payload transport."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.experiments.config import RunScale
from repro.experiments.parallel import (
    RunUnit,
    SweepError,
    SweepExecutor,
    execute_unit,
)
from repro.experiments.runner import (
    CapacityCensus,
    RunResultPayload,
    run_workload,
    run_workload_closed_loop,
)
from repro.experiments.systems import baseline, ida
from repro.obs import Instruments
from repro.workloads import TABLE3_WORKLOADS

SCALE = RunScale.tiny()


def _unit(workload: str = "hm_1", **kwargs) -> RunUnit:
    return RunUnit(baseline(), workload, SCALE, **kwargs)


class TestRunUnit:
    def test_rejects_unknown_mode(self) -> None:
        with pytest.raises(ValueError, match="mode"):
            _unit(mode="sideways")

    def test_resolves_catalog_workload_by_name(self) -> None:
        unit = _unit("usr_1")
        assert unit.workload_name == "usr_1"
        assert unit.resolve_workload() == TABLE3_WORKLOADS["usr_1"]

    def test_accepts_inline_spec(self) -> None:
        spec = TABLE3_WORKLOADS["usr_1"]
        unit = RunUnit(ida(0.2), spec, SCALE)
        assert unit.workload_name == spec.name
        assert unit.resolve_workload() is spec

    def test_describe_names_system_and_workload(self) -> None:
        assert _unit("proj_1").describe() == "baseline/proj_1"

    def test_is_picklable(self) -> None:
        unit = _unit(seed=7, mode="closed", queue_depth=8)
        assert pickle.loads(pickle.dumps(unit)) == unit

    @pytest.mark.parametrize("depth", [0, -1])
    def test_rejects_queue_depth_below_one(self, depth) -> None:
        with pytest.raises(ValueError, match="queue_depth"):
            _unit(mode="closed", queue_depth=depth)

    def test_slo_requires_health(self) -> None:
        from repro.obs.slo import DEFAULT_READ_P99_SLO

        with pytest.raises(ValueError, match="health"):
            _unit(instruments=Instruments(slo=(DEFAULT_READ_P99_SLO,)))

    def test_health_unit_is_picklable_and_builds_monitor(self) -> None:
        from repro.obs.slo import DEFAULT_READ_P99_SLO

        unit = _unit(
            instruments=Instruments(health=True, slo=(DEFAULT_READ_P99_SLO,))
        )
        assert pickle.loads(pickle.dumps(unit)) == unit
        monitor = unit.instruments.build(unit.scaled_workload().duration_us).health
        assert monitor.slo.objectives == (DEFAULT_READ_P99_SLO,)
        assert Instruments().build(1.0).health is None


class TestPayloadRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return run_workload(
            ida(0.2), TABLE3_WORKLOADS["hm_1"], SCALE, seed=11
        )

    def test_payload_matches_source_result(self, result) -> None:
        payload = result.to_payload()
        metrics = result.metrics
        assert payload.system == result.system
        assert payload.seed == result.seed
        assert payload.read_response == metrics.read_response.summary()
        assert payload.write_response == metrics.write_response.summary()
        assert payload.elapsed_us == metrics.elapsed_us
        assert payload.throughput_mb_s == metrics.throughput_mb_s()
        assert payload.read_mix == metrics.read_mix
        assert payload.counters["block_erases"] == metrics.block_erases
        assert payload.refresh["blocks_refreshed"] == len(result.refresh_reports)
        assert payload.in_use_blocks == result.in_use_blocks
        assert payload.utilisation == result.utilisation

    def test_pickle_round_trip_is_exact(self, result) -> None:
        payload = result.to_payload()
        clone = pickle.loads(pickle.dumps(payload))
        assert isinstance(clone, RunResultPayload)
        assert clone == payload

    def test_payload_pickles_smaller_than_result(self, result) -> None:
        assert len(pickle.dumps(result.to_payload())) < len(pickle.dumps(result))


class TestInlineExecution:
    def test_matches_direct_run(self) -> None:
        unit = RunUnit(ida(0.2), "hm_1", SCALE, seed=11)
        direct = run_workload(
            ida(0.2), TABLE3_WORKLOADS["hm_1"], SCALE, seed=11
        ).to_payload()
        assert execute_unit(unit) == direct
        assert SweepExecutor(jobs=1).map([unit]) == [direct]

    def test_closed_loop_mode(self) -> None:
        unit = RunUnit(baseline(), "hm_1", SCALE, mode="closed", queue_depth=4)
        direct = run_workload_closed_loop(
            baseline(), TABLE3_WORKLOADS["hm_1"], SCALE, seed=11, queue_depth=4
        ).to_payload()
        assert execute_unit(unit) == direct

    def test_capacity_mode_returns_census(self) -> None:
        census = execute_unit(_unit(mode="capacity"))
        assert isinstance(census, CapacityCensus)
        assert 0 < census.in_use_blocks <= census.total_blocks

    def test_results_follow_submission_order(self) -> None:
        units = [_unit("usr_1"), RunUnit(ida(0.2), "hm_1", SCALE)]
        payloads = SweepExecutor().map(units)
        assert [p.system.name for p in payloads] == ["baseline", "ida-e20"]
        assert [p.workload.name for p in payloads] == ["usr_1", "hm_1"]

    def test_progress_called_per_unit(self) -> None:
        lines: list[str] = []
        units = [_unit("hm_1"), _unit("usr_1")]
        SweepExecutor(jobs=1, progress=lines.append).map(units)
        assert len(lines) == len(units)
        assert "baseline/hm_1" in lines[0]

    def test_unknown_workload_raises_sweep_error(self) -> None:
        unit = _unit("no_such_trace")
        with pytest.raises(SweepError) as info:
            SweepExecutor().map([unit])
        assert info.value.unit == unit
        assert "no_such_trace" in str(info.value)
        assert isinstance(info.value.__cause__, KeyError)

    def test_rejects_non_unit_items(self) -> None:
        with pytest.raises(TypeError):
            SweepExecutor(jobs=1).map(["hm_1"])  # type: ignore[list-item]


class TestPoolExecution:
    def test_worker_failure_propagates_with_unit_context(self) -> None:
        units = [_unit("hm_1"), _unit("no_such_trace")]
        with pytest.raises(SweepError) as info:
            SweepExecutor(jobs=2).map(units)
        assert info.value.unit == units[1]
        assert "no_such_trace" in str(info.value)

    def test_pool_shuts_down_cleanly(self) -> None:
        with pytest.raises(SweepError):
            SweepExecutor(jobs=2).map([_unit("no_such_trace")])
        SweepExecutor(jobs=2).map([_unit("hm_1")])
        assert multiprocessing.active_children() == []

    def test_rejects_bad_job_count(self) -> None:
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)
