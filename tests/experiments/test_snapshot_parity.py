"""Warm-state snapshots are a pure wall-clock knob: exact-equality pins.

A run restored from a snapshot must be *byte-identical* to a cold run —
same metrics, same counters, same fault-event streams, same trace — for
every (system x policy x fault-plan) cell, inline and pooled.  The
fig8 cells are additionally pinned against the sequential golden file,
so snapshot-enabled sweeps are transitively pinned to the pre-pipeline
float.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.config import RunScale
from repro.experiments.parallel import (
    RunUnit,
    SweepExecutor,
    warm_key_for_unit,
)
from repro.experiments.reporting import manifest_for_payload
from repro.experiments.runner import (
    build_simulator,
    capture_warm_state,
    generate_workload,
    prepare_warm_state,
    run_workload,
    warm_device,
)
from repro.experiments.systems import baseline, ida
from repro.faults import FaultPlan
from repro.obs import JsonlSink, Telemetry, Tracer
from repro.sim.snapshot import SnapshotStore, WarmHandle
from repro.workloads import TABLE3_WORKLOADS

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fig8_tiny.json"
SEED = 11
SCALE = RunScale.tiny()


def _canon(payload) -> str:
    """Canonical JSON of everything a payload carries downstream."""
    return json.dumps(
        {
            "metrics": payload.metrics_summary(),
            "counters": payload.counters,
            "refresh": payload.refresh,
            "blocks": [payload.in_use_blocks, payload.ida_blocks],
            "utilisation": payload.utilisation,
            "queue_wait": payload.queue_wait,
            "throughput": [
                payload.throughput_mb_s,
                payload.read_throughput_mb_s,
            ],
            "bytes": [payload.bytes_read, payload.bytes_written],
            "elapsed_us": payload.elapsed_us,
            "faults": payload.faults,
            "health": payload.telemetry["health"],
        },
        sort_keys=True,
    )


def _fault_plan() -> FaultPlan:
    return FaultPlan.generate(
        seed=23,
        duration_us=50_000.0,
        total_blocks=SCALE.blocks_per_plane * SCALE.channels * 4,
        program_fails=2,
        grown_bad=2,
        uncorrectable_reads=3,
        adjust_interrupts=1,
        max_program_ordinal=SCALE.num_requests // 2,
        max_read_ordinal=SCALE.num_requests,
        read_reclaim_threshold=12,
        name="snap-parity",
    )


def _restoring_handle(system, spec) -> WarmHandle:
    """A handle on a store that already holds the prepared warm state."""
    store = SnapshotStore()
    store.put("warm", prepare_warm_state(system, spec, SCALE, seed=SEED))
    return WarmHandle(store, "warm")


class TestRestoredRunEquivalence:
    """restore_warm_state(fresh sim) == the cold warm-up, exactly."""

    @pytest.mark.parametrize("policy", ("read-first", "fcfs"))
    def test_policy_cells(self, policy: str) -> None:
        system = ida(0.2).with_policy(policy)
        spec = TABLE3_WORKLOADS["usr_1"]
        cold = run_workload(system, spec, SCALE, seed=SEED).to_payload()
        warm = _restoring_handle(system, spec)
        restored = run_workload(
            system, spec, SCALE, seed=SEED, warm=warm
        ).to_payload()
        assert warm.outcome == "hit"
        assert _canon(restored) == _canon(cold)

    def test_fault_plan_cell(self) -> None:
        # The warm key ignores fault plans (warm-up precedes every fault
        # window), so a faulted run restores from an unfaulted capture —
        # and must still reproduce the cold faulted run event-for-event.
        system = ida(0.2)
        spec = TABLE3_WORKLOADS["hm_1"]
        plan = _fault_plan()
        cold = run_workload(
            system, spec, SCALE, seed=SEED, faults=plan
        ).to_payload()
        warm = _restoring_handle(system, spec)
        restored = run_workload(
            system, spec, SCALE, seed=SEED, faults=plan, warm=warm
        ).to_payload()
        assert _canon(restored) == _canon(cold)
        assert restored.faults == cold.faults

    def test_baseline_system_cell(self) -> None:
        system = baseline()
        spec = TABLE3_WORKLOADS["usr_1"]
        cold = run_workload(system, spec, SCALE, seed=SEED).to_payload()
        warm = _restoring_handle(system, spec)
        restored = run_workload(
            system, spec, SCALE, seed=SEED, warm=warm
        ).to_payload()
        assert _canon(restored) == _canon(cold)

    def test_traced_run_ignores_the_cache_and_matches(self, tmp_path):
        # Warm-up GC can emit trace events, so traced runs must warm up
        # cold even when handed a warm state — and their trace streams
        # must match a run that never saw the snapshot layer.
        system = ida(0.2)
        spec = TABLE3_WORKLOADS["usr_1"]
        paths = [tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"]
        handles = (None, _restoring_handle(system, spec))
        for path, warm in zip(paths, handles):
            telemetry = Telemetry(tracer=Tracer(JsonlSink(str(path))))
            run_workload(
                system, spec, SCALE, seed=SEED, telemetry=telemetry, warm=warm
            )
            telemetry.close()
        assert paths[0].read_text() == paths[1].read_text()
        assert paths[0].stat().st_size > 0


class TestWarmDeviceHelper:
    def test_cold_path_matches_the_manual_ritual(self) -> None:
        # ``warm_device`` replaced three copy-pasted preload/age blocks;
        # this pins that the consolidated fill behaviour is unchanged.
        system = ida(0.2)
        spec = TABLE3_WORKLOADS["usr_1"].scaled(
            SCALE.num_requests, SCALE.footprint_pages
        )
        generated = generate_workload(spec)
        helper = build_simulator(system, SCALE, spec.duration_us, seed=SEED)
        warm_device(helper, generated)
        manual = build_simulator(system, SCALE, spec.duration_us, seed=SEED)
        period_us = manual.ftl.refresh_policy.period_us
        manual.preload(
            generated.fill_lpns,
            start_us=-1.4 * period_us,
            end_us=-0.4 * period_us,
        )
        manual.age(generated.aging_lpns, pseudo_now_us=-0.35 * period_us)
        a = capture_warm_state(helper)
        b = capture_warm_state(manual)
        assert [field.name for field in dataclasses.fields(a)] == [
            "schema",
            "device",
            "map_forward",
            "alloc_strategy",
            "alloc_cursor",
            "planes",
            "counters",
        ]
        assert a.device.columns == b.device.columns
        assert dataclasses.replace(a, device=None) == dataclasses.replace(
            b, device=None
        )


def _uncaptured(sim) -> tuple:
    """The simulator state a WarmState does not carry."""
    ftl = sim.ftl
    return (
        ftl.rng.bit_generator.state,
        sim._host_retry_rng.bit_generator.state,
        ftl.refresh_reports,
        ftl._retry_pressure,
        ftl.allocator.order,
    )


class TestWarmUpLeavesUncapturedStateFresh:
    """The premise for what a WarmState leaves out: the warm-up never
    changes it.  If a future warm-up draws randomness, refreshes, or
    drops a plane, this fails instead of restored runs drifting."""

    @pytest.mark.parametrize(
        "scale", (RunScale.tiny(), RunScale.quick()), ids=("tiny", "quick")
    )
    @pytest.mark.parametrize(
        "system", (baseline(), ida(0.2)), ids=("baseline", "ida-e20")
    )
    def test_warm_device_matches_a_fresh_simulator(self, system, scale) -> None:
        spec = TABLE3_WORKLOADS["usr_1"].scaled(
            scale.num_requests, scale.footprint_pages
        )
        generated = generate_workload(spec)
        warmed = build_simulator(system, scale, spec.duration_us, seed=SEED)
        warm_device(warmed, generated)
        fresh = build_simulator(system, scale, spec.duration_us, seed=SEED)
        assert warmed.ftl.table.state.write_seq > fresh.ftl.table.state.write_seq
        assert _uncaptured(warmed) == _uncaptured(fresh)


class TestExecutorParity:
    """snapshots=True is invisible in the results, inline and pooled."""

    @pytest.fixture(scope="class")
    def units(self) -> list[RunUnit]:
        # A fig9-style fan: every unit shares one (workload, seed, scale)
        # warm-up, so the whole list restores from a single snapshot.
        return [
            RunUnit(baseline(), "usr_1", SCALE, seed=SEED),
            RunUnit(ida(0.0), "usr_1", SCALE, seed=SEED),
            RunUnit(ida(0.2), "usr_1", SCALE, seed=SEED),
            RunUnit(ida(0.2).with_dtr(0.3), "usr_1", SCALE, seed=SEED),
            RunUnit(
                ida(0.2), "usr_1", SCALE, seed=SEED, faults=_fault_plan()
            ),
            RunUnit(ida(0.2), "usr_1", SCALE, seed=SEED, mode="capacity"),
        ]

    @pytest.fixture(scope="class")
    def cold(self, units):
        return SweepExecutor(jobs=1).map(units)

    def test_units_share_one_warm_key(self, units) -> None:
        assert len({warm_key_for_unit(u) for u in units}) == 1

    def test_inline_snapshots_match_cold(self, units, cold) -> None:
        executor = SweepExecutor(jobs=1, snapshots=True)
        results = executor.map(units)
        for a, b in zip(cold, results):
            if isinstance(a, dict) or not hasattr(a, "metrics_summary"):
                assert a == b  # capacity census
            else:
                assert _canon(a) == _canon(b)
        assert executor.snapshot_stats["hits"] == len(units) - 1
        assert executor.snapshot_stats["misses"] == 1
        assert executor.snapshot_stats["fallbacks"] == 0

    def test_pooled_snapshots_match_cold(self, units, cold) -> None:
        executor = SweepExecutor(jobs=4, snapshots=True)
        results = executor.map(units)
        for a, b in zip(cold, results):
            if isinstance(a, dict) or not hasattr(a, "metrics_summary"):
                assert a == b
            else:
                assert _canon(a) == _canon(b)
        # Every unit restored from the one parent-written spill file;
        # the parent's single cold preload is the lone miss.
        assert executor.snapshot_stats["hits"] == len(units)
        assert executor.snapshot_stats["misses"] == 1

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_spill_dir_reuses_across_executors(
        self, units, tmp_path, jobs
    ) -> None:
        first = SweepExecutor(jobs=1, snapshot_dir=str(tmp_path))
        first.map(units[:2])
        assert first.snapshot_stats["misses"] == 1
        second = SweepExecutor(jobs=jobs, snapshot_dir=str(tmp_path))
        second.map(units[:2])
        assert second.snapshot_stats["misses"] == 0
        assert second.snapshot_stats["hits"] == 2


class TestFig8GoldenWithSnapshots:
    """Snapshot-enabled sweeps stay pinned to the sequential golden."""

    TRACES = ("hm_1", "proj_1", "usr_1")
    SYSTEMS = {"baseline": baseline(), "ida-e20": ida(0.2)}

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        with GOLDEN_PATH.open() as fh:
            return json.load(fh)

    def _check(self, payloads, golden) -> None:
        cells = [
            (trace, name)
            for trace in self.TRACES
            for name in sorted(self.SYSTEMS)
        ]
        for (trace, name), payload in zip(cells, payloads):
            expected = golden[trace][name]
            actual = json.loads(
                json.dumps(
                    {
                        "read": payload.read_response,
                        "write": payload.write_response,
                        "elapsed_us": payload.elapsed_us,
                        "block_erases": payload.counters["block_erases"],
                        "refresh_page_moves": payload.counters[
                            "refresh_page_moves"
                        ],
                        "read_retries": payload.counters["read_retries"],
                    }
                )
            )
            for field in actual:
                assert actual[field] == expected[field], (trace, name, field)

    def _units(self) -> list[RunUnit]:
        return [
            RunUnit(self.SYSTEMS[name], trace, SCALE, seed=SEED)
            for trace in self.TRACES
            for name in sorted(self.SYSTEMS)
        ]

    def test_inline(self, golden) -> None:
        self._check(
            SweepExecutor(jobs=1, snapshots=True).map(self._units()), golden
        )

    def test_pooled_jobs_4(self, golden) -> None:
        self._check(
            SweepExecutor(jobs=4, snapshots=True).map(self._units()), golden
        )


class TestManifestRecording:
    def test_snapshot_stats_land_under_execution(self) -> None:
        executor = SweepExecutor(jobs=1, snapshots=True)
        payloads = executor.map([RunUnit(ida(0.2), "usr_1", SCALE, seed=SEED)])
        stats = executor.snapshot_stats
        manifest = manifest_for_payload(
            payloads[0], jobs=1, snapshots=stats
        )
        recorded = manifest["execution"]["snapshots"]
        assert recorded == {"hits": 0, "misses": 1, "fallbacks": 0}

    def test_snapshot_stats_stay_out_of_the_config_hash(self) -> None:
        payload = SweepExecutor(jobs=1).map(
            [RunUnit(ida(0.2), "usr_1", SCALE, seed=SEED)]
        )[0]
        without = manifest_for_payload(payload, jobs=1)
        with_stats = manifest_for_payload(
            payload, jobs=1, snapshots={"hits": 5, "misses": 1, "fallbacks": 0}
        )
        assert with_stats["config_hash"] == without["config_hash"]
