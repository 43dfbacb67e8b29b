"""The artifact registry: plan every artifact, run each unit once, reduce.

Every reproduced table and figure reduces one grid of independent
simulations, and the grids overlap: Table IV's IDA-E20 runs are Fig. 8's,
and Fig. 11's early phase is Fig. 8's baseline and IDA-E20 pair.  So no
artifact runs its own sweep.  Each artifact module exports three
functions instead:

* ``plan(scale, workload_names, seed, **axes) -> list[RunUnit]``;
* ``reduce(results) -> Result``, where ``results`` maps each planned
  unit to its payload in plan order, and the reduce reads its axes
  (workload, system, phase, ...) from the unit keys;
* ``format(result) -> str``.

:func:`run_plans` unions the plans of any number of artifacts.
:class:`RunUnit` is frozen, so equal units collapse to one key.  It runs
the union with a single :meth:`SweepExecutor.map` call and gives each
artifact the payloads of its own plan.  With ``keep_going``, each
artifact drops every workload with a failed unit in its own plan, so no
variant loses its baseline; each dropped workload is reported once.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple, Sequence

from . import (
    ablations,
    capacity_analysis,
    faults_artifact,
    fig4_motivation,
    fig8_response_time,
    fig9_dtr_sensitivity,
    fig10_throughput,
    fig11_read_retry,
    fig_breakdown,
    health_artifact,
    qlc_extension,
    recovery_artifact,
    table3_workloads,
    table4_refresh_overhead,
    table5_mlc,
)
from .config import RunScale
from .parallel import RunUnit, SweepError, SweepExecutor

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "plan_artifacts",
    "run_artifact",
    "run_plans",
    "unit_union",
]


class Artifact(NamedTuple):
    """How to plan, reduce and render one artifact."""

    plan: Callable[..., list[RunUnit]]
    reduce: Callable[[Mapping[RunUnit, Any]], Any]
    format: Callable[[Any], str]


def _module(module, format: Callable[[Any], str]) -> Artifact:
    return Artifact(module.plan, module.reduce, format)


#: artifact name -> (plan, reduce, format)
ARTIFACTS: dict[str, Artifact] = {
    "fig4": _module(fig4_motivation, fig4_motivation.format_fig4),
    "fig8": _module(fig8_response_time, fig8_response_time.format_fig8),
    "fig9": _module(fig9_dtr_sensitivity, fig9_dtr_sensitivity.format_fig9),
    "fig10": _module(fig10_throughput, fig10_throughput.format_fig10),
    "fig11": _module(fig11_read_retry, fig11_read_retry.format_fig11),
    "breakdown": _module(fig_breakdown, fig_breakdown.format_fig_breakdown),
    "table3": _module(table3_workloads, table3_workloads.format_table3),
    "table4": _module(table4_refresh_overhead, table4_refresh_overhead.format_table4),
    "table5": _module(table5_mlc, table5_mlc.format_table5),
    "qlc": _module(qlc_extension, qlc_extension.format_qlc),
    "faults": _module(faults_artifact, faults_artifact.format_faults),
    "health": _module(health_artifact, health_artifact.format_health),
    "recover": _module(recovery_artifact, recovery_artifact.format_recovery),
    "capacity": _module(capacity_analysis, capacity_analysis.format_capacity),
    "ablation-adjust": Artifact(
        ablations.plan_adjust_cost, ablations.reduce_adjust_cost, ablations.format_ablation
    ),
    "ablation-refresh": Artifact(
        ablations.plan_refresh_frequency,
        ablations.reduce_refresh_frequency,
        ablations.format_ablation,
    ),
    "ablation-alloc": Artifact(
        ablations.plan_allocation, ablations.reduce_allocation, ablations.format_ablation
    ),
}


def plan_artifacts(
    names: Sequence[str],
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    seed: int = 11,
    axes: Mapping[str, Mapping[str, Any]] | None = None,
) -> dict[str, list[RunUnit]]:
    """Each named artifact's plan; ``axes[name]`` are its plan keywords."""
    scale = scale or RunScale.bench()
    axes = axes or {}
    return {
        name: ARTIFACTS[name].plan(scale, workload_names, seed, **axes.get(name, {}))
        for name in names
    }


def unit_union(plans: Mapping[str, list[RunUnit]]) -> list[RunUnit]:
    """Every distinct unit of ``plans``, in first-planned order."""
    return list(dict.fromkeys(unit for plan in plans.values() for unit in plan))


def run_plans(
    plans: Mapping[str, list[RunUnit]], executor: SweepExecutor | None = None
) -> dict[str, Any]:
    """Run the union of ``plans`` once and reduce every artifact."""
    executor = executor or SweepExecutor()
    units = unit_union(plans)
    outcomes = dict(zip(units, executor.map(units)))
    failed = {
        unit.workload_name
        for unit, outcome in outcomes.items()
        if isinstance(outcome, SweepError)
    }
    if executor.progress is not None:
        for name in sorted(failed):
            executor.progress(f"keep-going: dropping workload {name!r} (unit failed)")
    results = {}
    for name, plan in plans.items():
        dropped = {
            unit.workload_name
            for unit in plan
            if isinstance(outcomes[unit], SweepError)
        }
        results[name] = ARTIFACTS[name].reduce(
            {unit: outcomes[unit] for unit in plan if unit.workload_name not in dropped}
        )
    return results


def run_artifact(
    name: str,
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    seed: int = 11,
    executor: SweepExecutor | None = None,
    **axes: Any,
) -> Any:
    """Plan, run and reduce one artifact; ``axes`` are its plan keywords."""
    plans = plan_artifacts([name], scale, workload_names, seed, {name: axes})
    return run_plans(plans, executor)[name]
