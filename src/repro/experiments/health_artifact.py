"""Health artifact — device-health trajectories, Baseline vs IDA-E20.

The paper's figures report end-of-run latency aggregates; an operator
deciding whether to deploy IDA-Coding also wants to know what it does to
the *device*: wear spread, estimated RBER, E-state exposure, retry and
reclaim pressure — and whether service objectives hold as the device
degrades.  This artifact runs baseline and IDA-E20 with the health
monitor attached, healthy and under a late-lifetime fault plan (the
PR 5 injector), and reports the resulting trajectories plus SLO
accounting.

Within a workload the faulted cells of both systems share one
:class:`~repro.faults.FaultPlan` (same placement, same schedule), so the
health divergence isolates the coding scheme, mirroring the pairing
discipline of the faults artifact.  Every cell carries full health
payloads — snapshot series, SLO summary, and the run's metrics-registry
state — so the JSON export is a complete health record and the
Prometheus export is one merged scrape file distinguished by
``system`` / ``condition`` labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ftl.refresh import RefreshMode
from ..obs.instruments import Instruments
from ..obs.metrics import labeled_snapshots_to_prometheus
from ..obs.slo import SloObjective
from ..workloads.msr import workload as _catalog_workload
from .config import RunScale
from .faults_artifact import density_of, plan_for_cell
from .fig11_read_retry import DEFAULT_PHASES
from .parallel import RunUnit
from .reporting import ascii_table
from .runner import RunResultPayload
from .systems import baseline, ida

__all__ = [
    "DEFAULT_HEALTH_DENSITY",
    "HealthCell",
    "HealthArtifactResult",
    "health_objectives",
    "plan",
    "reduce",
    "format_health",
    "health_to_prometheus",
]

#: Fault density of the degraded cells (same scale as the faults
#: artifact's densities; 4 is its heaviest default column).
DEFAULT_HEALTH_DENSITY = 4

#: Late-lifetime phase index into :data:`DEFAULT_PHASES` used for the
#: faulted cells (index 1 = the high retry-fail-prob end of Fig. 11).
_LATE_PHASE_INDEX = 1


def health_objectives(duration_us: float) -> tuple[SloObjective, ...]:
    """The artifact's default SLOs, windowed to the trace duration.

    ``read-retry-rate`` is the discriminating objective: a healthy
    device retries (essentially) never, a late-lifetime faulted one
    retries on a large fraction of reads, so the faulted cells breach
    while the healthy cells keep their full error budget.  ``read-p99``
    rides along with a deliberately loose threshold as the latency
    guardrail.
    """
    window = duration_us / 4
    return (
        SloObjective(
            name="read-retry-rate",
            metric="read_retry_rate",
            threshold=0.05,
            window_us=window,
            budget=0.1,
        ),
        SloObjective(
            name="read-p99",
            metric="read_p99_us",
            threshold=6000.0,
            window_us=window,
            budget=0.25,
        ),
    )


@dataclass(frozen=True)
class HealthCell:
    """One (workload, system, condition) run's health record."""

    workload: str
    system: str
    condition: str  # "healthy" | "faulted"
    mean_read_us: float
    #: The run's full health payload: summary, snapshot series, SLO
    #: accounting and registry snapshot (see HealthMonitor.to_payload).
    health: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        return self.health.get("summary", {})

    @property
    def series(self) -> list:
        return self.health.get("series", [])

    @property
    def slo(self) -> dict:
        return self.health.get("slo", {})

    @property
    def breaches(self) -> int:
        return self.slo.get("breaches", 0)


@dataclass
class HealthArtifactResult:
    """All cells plus the axes that generated them."""

    workloads: list[str]
    error_rate: float = 0.2
    density: int = DEFAULT_HEALTH_DENSITY
    retry_fail_prob: float = DEFAULT_PHASES[_LATE_PHASE_INDEX].retry_fail_prob
    cells: list[HealthCell] = field(default_factory=list)

    def cell(self, workload: str, system: str, condition: str) -> HealthCell:
        for cell in self.cells:
            if (
                cell.workload == workload
                and cell.system == system
                and cell.condition == condition
            ):
                return cell
        raise KeyError(f"no cell ({workload}, {system}, {condition})")


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    error_rate: float = 0.2,
    density: int = DEFAULT_HEALTH_DENSITY,
) -> list[RunUnit]:
    """(workload x {baseline, ida} x {healthy, faulted}) with health on."""
    late = DEFAULT_PHASES[_LATE_PHASE_INDEX]
    units = []
    for name in workload_names or ["hm_1", "proj_1"]:
        spec = _catalog_workload(name).scaled(
            scale.num_requests, scale.footprint_pages
        )
        health = Instruments(health=True, slo=health_objectives(spec.duration_us))
        faults = plan_for_cell(name, _LATE_PHASE_INDEX, density, scale, seed)
        for system in (baseline(), ida(error_rate)):
            units.append(
                RunUnit(system, name, scale, seed=seed, instruments=health)
            )
            units.append(
                RunUnit(
                    system.with_retry(late.retry_fail_prob),
                    name,
                    scale,
                    seed=seed,
                    faults=faults,
                    instruments=health,
                )
            )
    return units


def reduce(results: dict[RunUnit, RunResultPayload]) -> HealthArtifactResult:
    """One health cell per run; a run with a fault plan is ``faulted``."""
    result = HealthArtifactResult(
        workloads=list(dict.fromkeys(unit.workload_name for unit in results))
    )
    for unit, payload in results.items():
        if unit.system.refresh_mode is RefreshMode.IDA:
            result.error_rate = unit.system.error_rate
        if unit.faults is not None:
            result.density = density_of(unit.faults)
            result.retry_fail_prob = unit.system.retry_fail_prob
        result.cells.append(
            HealthCell(
                workload=unit.workload_name,
                system=unit.system.name,
                condition="healthy" if unit.faults is None else "faulted",
                mean_read_us=payload.mean_read_response_us,
                health=payload.telemetry["health"],
            )
        )
    return result


_SPARK_RAMP = " .:-=+*#%@"


def _sparkline(values: list[float]) -> str:
    """ASCII sparkline: one ramp character per value, scaled to the max."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_RAMP[0] * len(values)
    scale = (len(_SPARK_RAMP) - 1) / top
    return "".join(_SPARK_RAMP[int(round(v * scale))] for v in values)


def format_health(result: HealthArtifactResult) -> str:
    """Summary table plus per-cell retry-rate / p99 trajectory sparklines."""
    headers = [
        "workload",
        "system",
        "condition",
        "mean read",
        "wear p99",
        "retired",
        "retries",
        "max RBER",
        "IDA exp",
        "SLO breaches",
    ]
    rows = []
    for cell in result.cells:
        summary = cell.summary
        wear = summary.get("wear", {})
        rows.append(
            [
                cell.workload,
                cell.system,
                cell.condition,
                f"{cell.mean_read_us:.0f}us",
                f"{wear.get('p99', 0):.0f}",
                summary.get("retired_blocks", 0),
                summary.get("read_retries", 0),
                f"{summary.get('max_est_rber', 0.0):.2e}",
                f"{summary.get('ida_exposure', 0.0) * 100:.1f}%",
                cell.breaches,
            ]
        )
    table = ascii_table(
        headers,
        rows,
        title=(
            "Health: device trajectories, baseline vs IDA-E20, healthy vs "
            f"faulted (density={result.density}, "
            f"retry_fail_prob={result.retry_fail_prob})"
        ),
    )
    lines = [table, "", "trajectories (per sampling interval):"]
    for cell in result.cells:
        retry = [s.get("read_retry_rate", 0.0) for s in cell.series]
        p99 = [s.get("read_latency", {}).get("p99_us", 0.0) for s in cell.series]
        label = f"{cell.workload}/{cell.system}/{cell.condition}"
        lines.append(f"  {label:<40} retry-rate [{_sparkline(retry)}]")
        lines.append(f"  {'':<40} read-p99   [{_sparkline(p99)}]")
    return "\n".join(lines)


def health_to_prometheus(result: HealthArtifactResult) -> str:
    """One Prometheus exposition for the whole sweep.

    Each cell's registry snapshot contributes its samples tagged with
    ``workload`` / ``system`` / ``condition`` labels; families are
    declared once.  Cells without a registry (shouldn't happen — health
    units always carry one) are skipped rather than failing the export.
    """
    labeled = [
        (
            {
                "workload": cell.workload,
                "system": cell.system,
                "condition": cell.condition,
            },
            cell.health["registry"],
        )
        for cell in result.cells
        if cell.health.get("registry")
    ]
    return labeled_snapshots_to_prometheus(labeled)
