"""Ablations of the design choices DESIGN.md calls out.

Three knobs the paper argues about but does not sweep:

* **Adjustment cost** (Sec. III-B): the paper conservatively charges one
  full MSB program per wordline for the voltage adjustment, while arguing
  ~0.5x is achievable (half the ISPP range).  ``adjust_cost`` compares
  both charges.
* **Refresh frequency** (Sec. III-C): IDA rides on refresh, so a longer
  period means fewer conversion opportunities.  ``refresh_frequency``
  sweeps refresh cycles per trace.
* **Allocation strategy** [26]: CWDP vs the plane-first extreme, to show
  the IDA benefit is not an artifact of one striping order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .config import SUBSET_WORKLOADS, RunScale
from .parallel import RunUnit, ida_pairs
from .reporting import ascii_table
from .runner import RunResultPayload, improvement_pct
from .systems import SystemSpec, baseline, ida

__all__ = [
    "AblationResult",
    "plan_adjust_cost",
    "plan_refresh_frequency",
    "plan_allocation",
    "reduce_adjust_cost",
    "reduce_refresh_frequency",
    "reduce_allocation",
    "format_ablation",
]


@dataclass
class AblationResult:
    """``improvement_pct[setting][workload]`` for one swept knob."""

    knob: str
    improvement_pct: dict[str, dict[str, float]] = field(default_factory=dict)

    def average(self, setting: str) -> float:
        values = list(self.improvement_pct.get(setting, {}).values())
        return sum(values) / len(values) if values else 0.0


def _paired_plan(
    scale: RunScale,
    workload_names: list[str] | None,
    seed: int,
    settings: list[tuple[SystemSpec, SystemSpec, RunScale]],
) -> list[RunUnit]:
    """A baseline and a variant unit per (baseline, variant, scale) setting
    and workload.  A baseline shared by several settings is one unit."""
    return [
        RunUnit(system, name, run_scale, seed=seed)
        for base, variant, run_scale in settings
        for name in workload_names or SUBSET_WORKLOADS
        for system in (base, variant)
    ]


def _paired_reduce(
    knob: str, setting: Callable[[RunUnit], str]
) -> Callable[[dict[RunUnit, RunResultPayload]], AblationResult]:
    """A reduce that files each variant's improvement under its setting."""

    def reduce(results: dict[RunUnit, RunResultPayload]) -> AblationResult:
        result = AblationResult(knob=knob)
        for unit, variant, base in ida_pairs(results):
            result.improvement_pct.setdefault(setting(unit), {})[
                unit.workload_name
            ] = improvement_pct(variant, base)
        return result

    return reduce


def plan_adjust_cost(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    fractions: tuple[float, ...] = (0.5, 1.0),
) -> list[RunUnit]:
    """IDA benefit under proportional vs conservative adjustment cost."""
    settings = [
        (baseline(), replace(ida(0.2), adjust_program_fraction=fraction), scale)
        for fraction in fractions
    ]
    return _paired_plan(scale, workload_names, seed, settings)


def plan_refresh_frequency(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    cycles: tuple[float, ...] = (1.5, 3.0, 6.0),
) -> list[RunUnit]:
    """IDA benefit vs refresh cycles per trace (more cycles = fresher IDA)."""
    settings = [
        (baseline(), ida(0.2), replace(scale, refresh_cycles=value))
        for value in cycles
    ]
    return _paired_plan(scale, workload_names, seed, settings)


def plan_allocation(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    strategies: tuple[str, ...] = ("cwdp", "pdwc"),
) -> list[RunUnit]:
    """IDA benefit under different static allocation stripe orders."""
    settings = [
        (
            replace(baseline(), allocation=strategy),
            replace(ida(0.2), allocation=strategy),
            scale,
        )
        for strategy in strategies
    ]
    return _paired_plan(scale, workload_names, seed, settings)


reduce_adjust_cost = _paired_reduce(
    "adjust_program_fraction",
    lambda unit: f"adjust={unit.system.adjust_program_fraction:g}x",
)
reduce_refresh_frequency = _paired_reduce(
    "refresh_cycles", lambda unit: f"cycles={unit.scale.refresh_cycles:g}"
)
reduce_allocation = _paired_reduce(
    "allocation", lambda unit: f"alloc={unit.system.allocation}"
)


def format_ablation(result: AblationResult) -> str:
    settings = list(result.improvement_pct)
    names = sorted(
        {n for per in result.improvement_pct.values() for n in per}
    )
    headers = ["workload"] + settings
    rows = [
        [name]
        + [f"{result.improvement_pct[s].get(name, 0.0):.1f}%" for s in settings]
        for name in names
    ]
    rows.append(["average"] + [f"{result.average(s):.1f}%" for s in settings])
    return ascii_table(headers, rows, title=f"Ablation: {result.knob}")
