"""Golden pin of the per-event stage machine's event order.

``tests/golden/fig8_tiny.json`` covers only read-first, open-loop runs.
This pin widens the net to every path through the resources, pipelines
and engine that a refactor of the hot path could reorder: all three
scheduling policies on both systems, closed-loop issue at QD8, a
profiled run (the wait-class breakdown depends on the exact service
order), a fault-injected run, and traced runs whose ``run_end`` event
reports the engine's processed-event count and queue high-water mark.

Every cell runs at ``RunScale.tiny()``, seed 11, and is compared with
exact equality.  If a deliberate behaviour change ever invalidates these
numbers, regenerate with
``python -m tests.sim.test_stage_machine_golden`` and say so loudly in
the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import RunScale
from repro.experiments.reporting import metrics_summary
from repro.experiments.runner import run_workload, run_workload_closed_loop
from repro.experiments.systems import baseline, ida
from repro.faults import FaultPlan
from repro.obs import SimProfiler
from repro.obs.tracer import MemorySink, Tracer
from repro.workloads import workload

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "stage_machine_tiny.json"
SEED = 11
SYSTEMS = {"baseline": baseline, "ida-e20": lambda: ida(0.2)}
POLICIES = ("read-first", "fcfs", "throttled")


def _fault_plan() -> FaultPlan:
    scale = RunScale.tiny()
    return FaultPlan.generate(
        seed=23,
        duration_us=50_000.0,
        total_blocks=scale.blocks_per_plane * 4,
        program_fails=2,
        grown_bad=1,
        uncorrectable_reads=3,
        adjust_interrupts=1,
        max_program_ordinal=scale.num_requests // 2,
        max_read_ordinal=scale.num_requests,
        read_reclaim_threshold=12,
        name="stage-machine-golden",
    )


def _cell_ids() -> list[str]:
    ids = [
        f"open/usr_1/{system}/{policy}"
        for system in sorted(SYSTEMS)
        for policy in POLICIES
    ]
    ids += [f"closed8/src1_0/ida-e20/{policy}" for policy in ("read-first", "fcfs")]
    ids += [
        "profiled/usr_1/ida-e20/read-first",
        "faults/usr_1/ida-e20/read-first",
        "traced/usr_1/ida-e20/read-first",
        "traced-closed8/src1_0/ida-e20/fcfs",
    ]
    return ids


def _run_cell(cell: str) -> dict:
    mode, trace, system_name, policy = cell.split("/")
    system = SYSTEMS[system_name]().with_policy(policy)
    kwargs: dict = {"scale": RunScale.tiny(), "seed": SEED}
    profiler = sink = None
    if mode == "profiled":
        profiler = SimProfiler(keep_events=False)
        kwargs["profiler"] = profiler
    elif mode == "faults":
        kwargs["faults"] = _fault_plan()
    elif mode.startswith("traced"):
        sink = MemorySink()
        kwargs["tracer"] = Tracer(sink)
    if mode.endswith("closed8"):
        result = run_workload_closed_loop(
            system, workload(trace), queue_depth=8, **kwargs
        )
    else:
        result = run_workload(system, workload(trace), **kwargs)
    snapshot: dict = {
        "metrics": metrics_summary(result.metrics),
        "phys_ops_dispatched": result.metrics.phys_ops_dispatched,
        "queue_wait": result.queue_wait,
    }
    if profiler is not None:
        snapshot["wait_classes"] = result.profile["resources"]["wait_classes"]
        snapshot["profile_stages"] = result.profile["stages"]
    if mode == "faults":
        snapshot["faults"] = result.faults
    if sink is not None:
        (run_end,) = sink.by_kind("run_end")
        snapshot["events_processed"] = run_end["events_processed"]
        snapshot["peak_pending_events"] = run_end["peak_pending_events"]
        stream = "\n".join(json.dumps(e, sort_keys=True) for e in sink.events)
        snapshot["trace_events"] = len(sink.events)
        snapshot["trace_sha256"] = hashlib.sha256(stream.encode()).hexdigest()
    # Canonicalise through JSON so tuples/ints compare as the file does.
    return json.loads(json.dumps(snapshot, sort_keys=True))


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def test_golden_covers_every_cell(golden: dict) -> None:
    assert sorted(golden) == sorted(_cell_ids())


@pytest.mark.parametrize("cell", _cell_ids())
def test_stage_machine_matches_golden_exactly(golden: dict, cell: str) -> None:
    assert _run_cell(cell) == golden[cell]


def _regenerate() -> None:
    payload = {cell: _run_cell(cell) for cell in _cell_ids()}
    with GOLDEN_PATH.open("w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
