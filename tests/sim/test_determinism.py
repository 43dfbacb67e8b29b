"""Determinism: same seed + config => bit-identical runs.

The whole experimental method rests on this property — paired
baseline/IDA comparisons, golden-parity pins, and regression bisection
all assume a run is a pure function of (config, seed).  Two full runs
must agree on every metric *and* on the complete trace event stream
(ordering included), traced or not.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import RunScale
from repro.experiments.reporting import metrics_summary
from repro.experiments.runner import run_workload
from repro.experiments.systems import baseline, ida
from repro.obs import MemorySink, Telemetry, Tracer
from repro.workloads import TABLE3_WORKLOADS


def _run(system, traced: bool):
    sink = MemorySink() if traced else None
    tracer = Tracer(sink) if traced else None
    result = run_workload(
        system,
        TABLE3_WORKLOADS["usr_1"],
        scale=RunScale.tiny(),
        seed=11,
        telemetry=Telemetry(tracer=tracer),
    )
    events = sink.events if sink is not None else []
    return metrics_summary(result.metrics), events


@pytest.mark.parametrize("system", [baseline(), ida(0.2)], ids=lambda s: s.name)
def test_identical_metrics_and_trace_across_runs(system):
    first_metrics, first_events = _run(system, traced=True)
    second_metrics, second_events = _run(system, traced=True)
    assert first_metrics == second_metrics
    assert first_events == second_events


def test_tracing_does_not_perturb_the_simulation():
    # Observability must be passive: the traced run's metrics match the
    # untraced run's exactly.
    traced, _ = _run(ida(0.2), traced=True)
    untraced, _ = _run(ida(0.2), traced=False)
    assert traced == untraced


def test_policies_are_deterministic_too():
    system = ida(0.2).with_policy("fcfs")
    first, _ = _run(system, traced=False)
    second, _ = _run(system, traced=False)
    assert first == second
