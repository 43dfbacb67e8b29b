"""Stage attribution — where does the paper's ~28% actually come from?

Fig. 8 reports *that* IDA-E20 cuts mean read response; this artifact
reports *where*: it runs Baseline vs IDA-E20 across the Table III
workloads with the sim-time profiler attached and emits a stacked
per-stage attribution table (queue wait / sense / transfer / ECC / host
overhead, in microseconds of mean read response).  The sense row shrinks
*directly* (fewer senses per read on IDA-coded wordlines) and the queue-
wait row shrinks *indirectly* (shorter senses drain die queues faster —
the Sec. V-A queueing effect); transfer, ECC and host overhead are
invariant, which is exactly the paper's argument.

Self-check: each system's attributed components are summed and compared
against the *independently measured* mean read response from
``SimMetrics`` (accumulated by the completion path, not the profiler).
A mismatch beyond float tolerance raises — the table is only worth
printing if attribution is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.instruments import Instruments
from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit, SweepExecutor, prune_failed
from .reporting import ascii_table
from .systems import baseline, ida

__all__ = [
    "BreakdownCell",
    "BreakdownResult",
    "run_fig_breakdown",
    "format_fig_breakdown",
]

#: Attribution components, in display order.  ``queue_wait`` is the
#: critical op's total queue time across its stages; the stage names are
#: the read pipeline's service stages; ``host_overhead`` is the fixed
#: per-request constant.
COMPONENTS = ("queue_wait", "sense", "transfer", "ecc", "host_overhead")


@dataclass
class BreakdownCell:
    """Mean read-response attribution of one (workload, system) run."""

    workload: str
    system: str
    reads: int
    mean_response_us: float  # independently measured (SimMetrics)
    components_us: dict[str, float] = field(default_factory=dict)
    residual_us: float = 0.0  # |measured - attributed sum|

    @property
    def attributed_us(self) -> float:
        return sum(self.components_us.values())


@dataclass
class BreakdownResult:
    """Per-workload Baseline vs IDA attribution cells."""

    system_names: tuple[str, str]
    cells: dict[str, dict[str, BreakdownCell]] = field(default_factory=dict)
    tolerance_us: float = 1e-6

    def improvement_us(self, workload: str) -> dict[str, float]:
        """Per-component response-time saving (baseline - variant)."""
        base_name, variant_name = self.system_names
        base = self.cells[workload][base_name]
        variant = self.cells[workload][variant_name]
        return {
            comp: base.components_us.get(comp, 0.0)
            - variant.components_us.get(comp, 0.0)
            for comp in COMPONENTS
        }

    def mean_improvement_pct(self) -> float:
        """Mean normalized improvement across workloads (Fig. 8 style)."""
        base_name, variant_name = self.system_names
        ratios = [
            per[variant_name].mean_response_us / per[base_name].mean_response_us
            for per in self.cells.values()
            if per[base_name].mean_response_us > 0
        ]
        if not ratios:
            return 0.0
        return (1.0 - sum(ratios) / len(ratios)) * 100.0


def _attribution_cell(payload, workload: str, tolerance_us: float) -> BreakdownCell:
    profile = payload.telemetry.get("profile")
    if profile is None:
        raise ValueError(
            f"run {payload.system.name}/{workload} carried no profile; "
            "fig_breakdown units must set Instruments(profile=True)"
        )
    reads = profile["requests"].get("read")
    if reads is None:
        raise ValueError(f"run {payload.system.name}/{workload} saw no reads")
    components = {"queue_wait": reads["mean_queue_wait_us"]}
    components.update(reads["mean_service_us"])
    components["host_overhead"] = reads["mean_host_overhead_us"]
    measured = payload.read_response["mean_us"]
    cell = BreakdownCell(
        workload=workload,
        system=payload.system.name,
        reads=reads["count"],
        mean_response_us=measured,
        components_us=components,
    )
    cell.residual_us = abs(measured - cell.attributed_us)
    tolerance = max(tolerance_us, 1e-9 * abs(measured))
    if cell.residual_us > tolerance:
        raise AssertionError(
            f"attribution not conservative for {cell.system}/{workload}: "
            f"measured mean {measured:.6f} us vs attributed "
            f"{cell.attributed_us:.6f} us (residual {cell.residual_us:.3g} "
            f"> tolerance {tolerance:.3g})"
        )
    if payload.read_response["count"] != reads["count"]:
        raise AssertionError(
            f"profiler saw {reads['count']} reads but metrics recorded "
            f"{payload.read_response['count']} for {cell.system}/{workload}"
        )
    return cell


def run_fig_breakdown(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    error_rate: float = 0.2,
    seed: int = 11,
    executor: SweepExecutor | None = None,
    tolerance_us: float = 1e-6,
) -> BreakdownResult:
    """Run Baseline vs IDA with profiling and build the attribution table.

    Each run's per-stage attribution is self-checked against the
    independently measured mean read response (see module docstring);
    a pooled ``executor`` fans runs out with aggregate-only worker
    profilers.
    """
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    systems = (baseline(), ida(error_rate))
    profiled = Instruments(profile=True)
    units = [
        RunUnit(system, name, scale, seed=seed, instruments=profiled)
        for name in names
        for system in systems
    ]
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    names, units, payloads, _ = prune_failed(names, units, payloads, executor.progress)

    result = BreakdownResult(
        system_names=(systems[0].name, systems[1].name),
        tolerance_us=tolerance_us,
    )
    for index, name in enumerate(names):
        base_payload, variant_payload = payloads[2 * index : 2 * index + 2]
        result.cells[name] = {
            payload.system.name: _attribution_cell(payload, name, tolerance_us)
            for payload in (base_payload, variant_payload)
        }
    return result


def format_fig_breakdown(result: BreakdownResult) -> str:
    """Render the stacked attribution table plus the per-component delta."""
    headers = ["workload", "system", "reads"] + [
        f"{comp}_us" for comp in COMPONENTS
    ] + ["attributed_us", "measured_us"]
    rows = []
    for workload, per_system in result.cells.items():
        for system_name in result.system_names:
            cell = per_system[system_name]
            rows.append(
                [workload, system_name, cell.reads]
                + [f"{cell.components_us.get(c, 0.0):.1f}" for c in COMPONENTS]
                + [f"{cell.attributed_us:.1f}", f"{cell.mean_response_us:.1f}"]
            )
        saving = result.improvement_us(workload)
        total_saving = sum(saving.values())
        rows.append(
            [workload, "saved", ""]
            + [f"{saving[c]:.1f}" for c in COMPONENTS]
            + [f"{total_saving:.1f}", ""]
        )
    table = ascii_table(
        headers,
        rows,
        title="Read response attribution: where the improvement comes from "
        "(mean us per read; 'saved' = baseline - variant)",
    )
    return (
        f"{table}\n"
        f"mean improvement: {result.mean_improvement_pct():.1f}% "
        f"(paper: ~28% for E20); attribution residual <= "
        f"{result.tolerance_us:g} us on every run"
    )
