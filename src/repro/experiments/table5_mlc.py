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
from .parallel import RunUnit, SweepExecutor, prune_failed
from .reporting import ascii_table
from .runner import improvement_pct
from .systems import baseline, ida

__all__ = ["Table5Result", "run_table5", "format_table5"]


@dataclass
class Table5Result:
    """``improvement_pct[workload]`` for the chosen device family."""

    device: str
    improvement_pct: dict[str, float] = field(default_factory=dict)

    def average(self) -> float:
        values = list(self.improvement_pct.values())
        return sum(values) / len(values) if values else 0.0


def run_table5(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    device: str = "mlc",
    error_rate: float = 0.2,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> Table5Result:
    """Measure IDA-E{error_rate} improvements on the given device family."""
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    units = []
    for name in names:
        units.append(RunUnit(baseline(device), name, scale, seed=seed))
        units.append(RunUnit(ida(error_rate, device), name, scale, seed=seed))
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    names, units, payloads, _ = prune_failed(names, units, payloads, executor.progress)

    result = Table5Result(device=device)
    for index, name in enumerate(names):
        base, variant = payloads[2 * index : 2 * index + 2]
        result.improvement_pct[name] = improvement_pct(variant, base)
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
