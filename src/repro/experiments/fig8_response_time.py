"""Fig. 8 — normalized read response times under IDA-E0 .. IDA-E80.

Paper result: IDA-Coding-E20 improves mean read response time by 28% on
average over the baseline (E0: 31%, E50: 20.2%, E80: < 7%); the benefit
decreases monotonically as the voltage-adjustment error rate grows, since
more disturbed pages must be written back and fewer stay IDA-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit, SweepExecutor, prune_failed
from .reporting import ascii_table
from .runner import normalized_read_response
from .systems import baseline, ida

__all__ = ["Fig8Result", "run_fig8", "format_fig8", "DEFAULT_ERROR_RATES"]

#: The paper's Fig. 8 sweep points.
DEFAULT_ERROR_RATES: tuple[float, ...] = (0.0, 0.1, 0.2, 0.4, 0.5, 0.8)


@dataclass
class Fig8Result:
    """Normalized read response per (workload, system).

    ``normalized[workload][system_name]`` is mean read response time
    divided by the baseline's (< 1.0 means IDA wins).
    """

    error_rates: tuple[float, ...]
    normalized: dict[str, dict[str, float]] = field(default_factory=dict)
    baseline_rt_us: dict[str, float] = field(default_factory=dict)

    def system_names(self) -> list[str]:
        return [f"ida-e{int(round(rate * 100))}" for rate in self.error_rates]

    def average(self, system_name: str) -> float:
        missing = sorted(
            name
            for name, per_wl in self.normalized.items()
            if system_name not in per_wl
        )
        if missing:
            raise KeyError(
                f"system {system_name!r} has no result for workload(s) "
                f"{', '.join(missing)}; this Fig8Result holds "
                f"{sorted({s for per in self.normalized.values() for s in per})}"
            )
        values = [per_wl[system_name] for per_wl in self.normalized.values()]
        return sum(values) / len(values) if values else 1.0

    def average_improvement_pct(self, system_name: str) -> float:
        return (1.0 - self.average(system_name)) * 100.0


def run_fig8(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    error_rates: tuple[float, ...] = DEFAULT_ERROR_RATES,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> Fig8Result:
    """Run the Fig. 8 sweep; ``executor`` may fan the runs out over processes."""
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    units = []
    for name in names:
        units.append(RunUnit(baseline(), name, scale, seed=seed))
        units.extend(
            RunUnit(ida(rate), name, scale, seed=seed) for rate in error_rates
        )
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    names, units, payloads, _ = prune_failed(names, units, payloads, executor.progress)

    result = Fig8Result(error_rates=error_rates)
    stride = 1 + len(error_rates)
    for index, name in enumerate(names):
        base, *variants = payloads[index * stride : (index + 1) * stride]
        result.baseline_rt_us[name] = base.mean_read_response_us
        result.normalized[name] = {
            variant.system.name: normalized_read_response(variant, base)
            for variant in variants
        }
    return result


def format_fig8(result: Fig8Result) -> str:
    """Render the Fig. 8 series as a table (baseline = 1.0)."""
    systems = result.system_names()
    headers = ["workload", "base RT(us)"] + systems
    rows = []
    for name, per_system in result.normalized.items():
        rows.append(
            [name, f"{result.baseline_rt_us[name]:.0f}"]
            + [f"{per_system[s]:.3f}" for s in systems]
        )
    rows.append(
        ["average", ""]
        + [f"{result.average(s):.3f}" for s in systems]
    )
    return ascii_table(
        headers,
        rows,
        title="Fig. 8: read response time normalized to baseline "
        "(paper: E20 avg 0.72, E0 avg 0.69)",
    )
