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
from .parallel import RunUnit, SweepExecutor, failed_workloads
from .reporting import ascii_table
from .runner import improvement_pct
from .systems import baseline, ida

__all__ = ["QlcResult", "run_qlc_extension", "format_qlc"]


@dataclass
class QlcResult:
    """Per-device-family average improvements."""

    improvement_pct: dict[str, dict[str, float]] = field(default_factory=dict)

    def average(self, device: str) -> float:
        values = list(self.improvement_pct.get(device, {}).values())
        return sum(values) / len(values) if values else 0.0


def run_qlc_extension(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    devices: tuple[str, ...] = ("tlc", "qlc", "tlc232"),
    error_rate: float = 0.2,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> QlcResult:
    """Compare IDA benefit across cell densities / codings."""
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    cells = [(dev, name) for dev in devices for name in names]
    units = []
    for dev, name in cells:
        units.append(RunUnit(baseline(dev), name, scale, seed=seed))
        units.append(RunUnit(ida(error_rate, dev), name, scale, seed=seed))
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    # A failure prunes the workload across every device family so the
    # cross-family comparison always covers one consistent workload set.
    failed = failed_workloads(payloads, executor.progress)

    result = QlcResult()
    for index, (dev, name) in enumerate(cells):
        if name in failed:
            continue
        base, variant = payloads[2 * index : 2 * index + 2]
        result.improvement_pct.setdefault(dev, {})[name] = improvement_pct(
            variant, base
        )
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
