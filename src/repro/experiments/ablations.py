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

from .config import RunScale
from .parallel import RunUnit, SweepExecutor, failed_workloads
from .reporting import ascii_table
from .runner import improvement_pct
from .systems import SystemSpec, baseline, ida

__all__ = [
    "AblationResult",
    "run_adjust_cost_ablation",
    "run_refresh_frequency_ablation",
    "run_allocation_ablation",
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


def _workloads(workload_names: list[str] | None) -> list[str]:
    return workload_names or ["proj_1", "usr_1", "src2_0"]


def _run_paired_sweep(
    knob: str,
    cells: list[tuple[str, str, SystemSpec, SystemSpec, RunScale]],
    seed: int,
    executor: SweepExecutor | None,
) -> AblationResult:
    """Fan out (setting, workload, baseline, variant, scale) cells.

    Each cell becomes one baseline unit and one variant unit; the
    improvement is computed after the fan-out from the collected pairs.
    With a keep-going executor, a failure prunes its workload across every
    setting so the per-setting averages stay comparable.
    """
    units = []
    for _, name, base_system, variant_system, scale in cells:
        units.append(RunUnit(base_system, name, scale, seed=seed))
        units.append(RunUnit(variant_system, name, scale, seed=seed))
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    failed = failed_workloads(payloads, executor.progress)

    result = AblationResult(knob=knob)
    for index, (setting, name, *_) in enumerate(cells):
        if name in failed:
            continue
        base, variant = payloads[2 * index : 2 * index + 2]
        result.improvement_pct.setdefault(setting, {})[name] = improvement_pct(
            variant, base
        )
    return result


def run_adjust_cost_ablation(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    fractions: tuple[float, ...] = (0.5, 1.0),
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> AblationResult:
    """IDA benefit under proportional vs conservative adjustment cost."""
    scale = scale or RunScale.bench()
    cells = [
        (
            f"adjust={fraction:g}x",
            name,
            baseline(),
            replace(ida(0.2), adjust_program_fraction=fraction),
            scale,
        )
        for fraction in fractions
        for name in _workloads(workload_names)
    ]
    return _run_paired_sweep(
        "adjust_program_fraction",
        cells,
        seed,
        executor,
    )


def run_refresh_frequency_ablation(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    cycles: tuple[float, ...] = (1.5, 3.0, 6.0),
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> AblationResult:
    """IDA benefit vs refresh cycles per trace (more cycles = fresher IDA)."""
    scale = scale or RunScale.bench()
    cells = [
        (
            f"cycles={value:g}",
            name,
            baseline(),
            ida(0.2),
            replace(scale, refresh_cycles=value),
        )
        for value in cycles
        for name in _workloads(workload_names)
    ]
    return _run_paired_sweep(
        "refresh_cycles",
        cells,
        seed,
        executor,
    )


def run_allocation_ablation(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    strategies: tuple[str, ...] = ("cwdp", "pdwc"),
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> AblationResult:
    """IDA benefit under different static allocation stripe orders."""
    scale = scale or RunScale.bench()
    cells = [
        (
            f"alloc={strategy}",
            name,
            replace(baseline(), allocation=strategy),
            replace(ida(0.2), allocation=strategy),
            scale,
        )
        for strategy in strategies
        for name in _workloads(workload_names)
    ]
    return _run_paired_sweep(
        "allocation",
        cells,
        seed,
        executor,
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
