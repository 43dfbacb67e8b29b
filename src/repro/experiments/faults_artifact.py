"""Faults artifact — IDA read-latency gain as fault density rises.

The paper evaluates IDA-Coding on a healthy device.  Real high-density
flash spends most of its life degraded: blocks grow bad, programs fail,
retry ladders exhaust.  This artifact quantifies how IDA-E20's headline
read-response gain (Fig. 8 / Fig. 11) holds up as deterministic fault
plans of increasing density are injected into *both* systems, across the
early/late lifetime phases of Fig. 11.

Each grid cell runs baseline and IDA-E20 under the **same**
:class:`~repro.faults.FaultPlan` (same seed, same event schedule), so the
comparison isolates the coding scheme's response to faults rather than
fault-placement luck.  Density 0 passes ``faults=None`` — the true
zero-cost off-path — which keeps the artifact's healthy column
byte-comparable with Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.plan import FaultPlan
from ..workloads.msr import workload as _catalog_workload
from .config import RunScale
from .fig11_read_retry import DEFAULT_PHASES, LifetimePhase
from .parallel import RunUnit, SweepExecutor, failed_workloads
from .reporting import ascii_table
from .runner import _build_device, improvement_pct
from .systems import baseline, ida

__all__ = [
    "DEFAULT_DENSITIES",
    "FaultCell",
    "FaultsResult",
    "run_faults",
    "format_faults",
    "plan_for_cell",
]

#: Fault densities swept by default: a density ``d`` injects ``d`` grown
#: bad blocks, ``d`` program failures and ``2d`` uncorrectable reads
#: (plus one mid-refresh ADJUST interruption once faults are on at all).
DEFAULT_DENSITIES: tuple[int, ...] = (0, 2, 4)


@dataclass(frozen=True)
class FaultCell:
    """One (workload, phase, density) grid cell's paired measurement."""

    workload: str
    phase: str
    density: int
    baseline_rt_us: float
    ida_rt_us: float
    improvement_pct: float
    #: Fired-event counts by fault kind, baseline run / IDA run
    #: (``{}`` for the density-0 cells, which run without an injector).
    baseline_fired: dict = field(default_factory=dict)
    ida_fired: dict = field(default_factory=dict)
    #: Full fault-event streams (CI uploads these as the run artifact).
    baseline_events: list = field(default_factory=list)
    ida_events: list = field(default_factory=list)


@dataclass
class FaultsResult:
    """All cells of the faults grid plus the axes that generated them."""

    phases: tuple[LifetimePhase, ...]
    densities: tuple[int, ...]
    cells: list[FaultCell] = field(default_factory=list)

    def cell(self, workload: str, phase: str, density: int) -> FaultCell:
        for cell in self.cells:
            if (
                cell.workload == workload
                and cell.phase == phase
                and cell.density == density
            ):
                return cell
        raise KeyError(f"no cell ({workload}, {phase}, {density})")

    def average(self, phase: str, density: int) -> float:
        values = [
            c.improvement_pct
            for c in self.cells
            if c.phase == phase and c.density == density
        ]
        return sum(values) / len(values) if values else 0.0


def plan_for_cell(
    workload_name: str,
    phase_index: int,
    density: int,
    scale: RunScale,
    seed: int,
) -> FaultPlan | None:
    """The cell's shared fault plan (``None`` at density 0 = faults off).

    The plan seed folds in the cell coordinates so every cell gets an
    independent but reproducible event placement, while baseline and IDA
    within a cell share it exactly.
    """
    if density == 0:
        return None
    spec = _catalog_workload(workload_name).scaled(
        scale.num_requests, scale.footprint_pages
    )
    geometry = _build_device(baseline(), scale).geometry
    return FaultPlan.generate(
        seed=seed + 997 * (phase_index + 1) + 131 * density,
        duration_us=spec.duration_us,
        total_blocks=geometry.total_blocks,
        total_dies=geometry.total_dies,
        grown_bad=density,
        program_fails=density,
        uncorrectable_reads=2 * density,
        adjust_interrupts=1,
        max_program_ordinal=max(2, scale.num_requests // 2),
        max_read_ordinal=max(2, scale.num_requests),
        max_adjust_ordinal=8,
        read_reclaim_threshold=12,
        name=f"{workload_name}-p{phase_index}-d{density}",
    )


def run_faults(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    phases: tuple[LifetimePhase, ...] = DEFAULT_PHASES,
    densities: tuple[int, ...] = DEFAULT_DENSITIES,
    error_rate: float = 0.2,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> FaultsResult:
    """Sweep the (workload x lifetime phase x fault density) grid."""
    scale = scale or RunScale.bench()
    names = workload_names or ["proj_1", "usr_1", "src2_0"]
    cells = [
        (name, phase_index, density)
        for name in names
        for phase_index in range(len(phases))
        for density in densities
    ]
    units = []
    for name, phase_index, density in cells:
        phase = phases[phase_index]
        plan = plan_for_cell(name, phase_index, density, scale, seed)
        units.append(
            RunUnit(
                baseline().with_retry(phase.retry_fail_prob),
                name,
                scale,
                seed=seed,
                faults=plan,
            )
        )
        units.append(
            RunUnit(
                ida(error_rate).with_retry(phase.retry_fail_prob),
                name,
                scale,
                seed=seed,
                faults=plan,
            )
        )
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    failed = failed_workloads(payloads, executor.progress)

    result = FaultsResult(phases=phases, densities=densities)
    for index, (name, phase_index, density) in enumerate(cells):
        if name in failed:
            continue
        base, variant = payloads[2 * index : 2 * index + 2]
        base_faults = base.faults or {}
        variant_faults = variant.faults or {}
        result.cells.append(
            FaultCell(
                workload=name,
                phase=phases[phase_index].name,
                density=density,
                baseline_rt_us=base.mean_read_response_us,
                ida_rt_us=variant.mean_read_response_us,
                improvement_pct=improvement_pct(variant, base),
                baseline_fired=base_faults.get("fired", {}),
                ida_fired=variant_faults.get("fired", {}),
                baseline_events=base_faults.get("events", []),
                ida_events=variant_faults.get("events", []),
            )
        )
    return result


def format_faults(result: FaultsResult) -> str:
    """Improvement table: one row per (workload, phase), column per density."""
    headers = ["workload", "phase"] + [f"density={d}" for d in result.densities]
    rows = []
    seen = []
    for cell in result.cells:
        key = (cell.workload, cell.phase)
        if key in seen:
            continue
        seen.append(key)
        row = [cell.workload, cell.phase]
        for density in result.densities:
            try:
                row.append(f"{result.cell(*key, density).improvement_pct:.1f}%")
            except KeyError:
                row.append("-")
        rows.append(row)
    for phase in result.phases:
        rows.append(
            ["average", phase.name]
            + [
                f"{result.average(phase.name, d):.1f}%"
                for d in result.densities
            ]
        )
    return ascii_table(
        headers,
        rows,
        title="Faults: IDA-E20 read RT improvement vs fault density "
        "(density 0 = healthy device, faults fully off)",
    )
