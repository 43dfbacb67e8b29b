"""QLC extension — the paper's Sec. V-G future work, executed.

The paper predicts IDA will help QLC devices more than TLC because QLC's
1/2/4/8-sense reads spread latencies even wider (and the Fig. 6 merge
collapses Bit 4 from 8 senses to 2 and Bit 3 from 4 to 1).  This module
runs that evaluation on the projected QLC device of
:func:`repro.experiments.config.device` and, for context, the
vendor-alternate 2-3-2 TLC coding the paper mentions has milder variation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit, ida_pairs
from .reporting import ascii_table
from .runner import RunResultPayload, improvement_pct
from .systems import baseline, ida

__all__ = ["QlcResult", "plan", "reduce", "format_qlc"]


@dataclass
class QlcResult:
    """Per-device-family average improvements."""

    improvement_pct: dict[str, dict[str, float]] = field(default_factory=dict)

    def average(self, device: str) -> float:
        values = list(self.improvement_pct.get(device, {}).values())
        return sum(values) / len(values) if values else 0.0


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    devices: tuple[str, ...] = ("tlc", "qlc", "tlc232"),
    error_rate: float = 0.2,
) -> list[RunUnit]:
    """Baseline and IDA-E{error_rate} per device family and workload."""
    return [
        RunUnit(system, name, scale, seed=seed)
        for dev in devices
        for name in workload_names or TABLE3_WORKLOADS
        for system in (baseline(dev), ida(error_rate, dev))
    ]


def reduce(results: dict[RunUnit, RunResultPayload]) -> QlcResult:
    """Each IDA run's improvement over the same family's baseline."""
    result = QlcResult()
    for unit, variant, base in ida_pairs(results):
        result.improvement_pct.setdefault(unit.system.device, {})[
            unit.workload_name
        ] = improvement_pct(variant, base)
    return result


def format_qlc(result: QlcResult) -> str:
    devices = list(result.improvement_pct)
    headers = ["workload"] + devices
    names = sorted(
        {n for per_dev in result.improvement_pct.values() for n in per_dev}
    )
    rows = [
        [name]
        + [f"{result.improvement_pct[dev].get(name, 0.0):.1f}%" for dev in devices]
        for name in names
    ]
    rows.append(["average"] + [f"{result.average(dev):.1f}%" for dev in devices])
    return ascii_table(
        headers,
        rows,
        title="QLC extension: IDA-E20 improvement by device family "
        "(expected ordering: qlc > tlc > tlc232)",
    )
