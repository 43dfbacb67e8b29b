"""Table V — IDA-E20 on an MLC device.

Paper result: 14.9% average read response-time improvement on an MLC SSD
(65 / 115 us LSB / MSB reads) — significant, but lower than TLC's 28%
because MLC has only one slow page type and a smaller latency spread.
The same harness also drives the QLC projection (Sec. V-G leaves a QLC
evaluation as future work; see ``qlc_extension``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit, ida_pairs
from .reporting import ascii_table
from .runner import RunResultPayload, improvement_pct
from .systems import baseline, ida

__all__ = ["Table5Result", "plan", "reduce", "format_table5"]


@dataclass
class Table5Result:
    """``improvement_pct[workload]`` for the chosen device family."""

    device: str
    improvement_pct: dict[str, float] = field(default_factory=dict)

    def average(self) -> float:
        values = list(self.improvement_pct.values())
        return sum(values) / len(values) if values else 0.0


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    device: str = "mlc",
    error_rate: float = 0.2,
) -> list[RunUnit]:
    """Baseline and IDA-E{error_rate} on ``device``, per workload."""
    return [
        RunUnit(system, name, scale, seed=seed)
        for name in workload_names or TABLE3_WORKLOADS
        for system in (baseline(device), ida(error_rate, device))
    ]


def reduce(results: dict[RunUnit, RunResultPayload]) -> Table5Result:
    """Each IDA run's improvement over its workload's baseline."""
    result = Table5Result(device="mlc")
    for unit, variant, base in ida_pairs(results):
        result.device = unit.system.device
        result.improvement_pct[unit.workload_name] = improvement_pct(variant, base)
    return result


def format_table5(result: Table5Result) -> str:
    headers = ["workload", "resp. time improvement"]
    rows = [
        [name, f"{pct:.1f}%"] for name, pct in result.improvement_pct.items()
    ]
    rows.append(["average", f"{result.average():.1f}%"])
    return ascii_table(
        headers,
        rows,
        title=f"Table V: IDA-E20 on an {result.device.upper()} device "
        "(paper MLC avg: 14.9%)",
    )
