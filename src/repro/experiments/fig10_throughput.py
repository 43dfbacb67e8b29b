"""Fig. 10 — device throughput under IDA-E20.

Paper result: every tested workload gains throughput, 10% on average.
The gain comes from the reduced read service times (more requests per
unit time) and survives the refresh-overhead increase.  Measured here
closed-loop (fixed queue depth), which is the device-bound regime where
throughput can actually move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit, SweepExecutor, prune_failed
from .reporting import ascii_table
from .systems import baseline, ida

__all__ = ["Fig10Result", "run_fig10", "format_fig10"]


@dataclass
class Fig10Result:
    """``normalized[workload]`` = IDA-E20 throughput / baseline throughput."""

    normalized: dict[str, float] = field(default_factory=dict)
    baseline_mb_s: dict[str, float] = field(default_factory=dict)

    def average(self) -> float:
        values = list(self.normalized.values())
        return sum(values) / len(values) if values else 1.0


def run_fig10(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    error_rate: float = 0.2,
    queue_depth: int = 32,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> Fig10Result:
    """Closed-loop throughput comparison, baseline vs IDA-E{error_rate}."""
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    units = []
    for name in names:
        for system in (baseline(), ida(error_rate)):
            units.append(
                RunUnit(
                    system,
                    name,
                    scale,
                    seed=seed,
                    mode="closed",
                    queue_depth=queue_depth,
                )
            )
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    names, units, payloads, _ = prune_failed(names, units, payloads, executor.progress)

    result = Fig10Result()
    for index, name in enumerate(names):
        base, variant = payloads[2 * index : 2 * index + 2]
        base_tp = base.throughput_mb_s
        result.baseline_mb_s[name] = base_tp
        result.normalized[name] = (
            variant.throughput_mb_s / base_tp if base_tp > 0 else 1.0
        )
    return result


def format_fig10(result: Fig10Result) -> str:
    headers = ["workload", "baseline MB/s", "IDA-E20 / baseline"]
    rows = [
        [name, f"{result.baseline_mb_s[name]:.1f}", f"{ratio:.3f}"]
        for name, ratio in result.normalized.items()
    ]
    rows.append(["average", "", f"{result.average():.3f}"])
    return ascii_table(
        headers,
        rows,
        title="Fig. 10: normalized device throughput (paper avg: 1.10)",
    )
