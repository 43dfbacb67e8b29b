"""Sec. III-C capacity / GC-cost analysis ("After the Data Refresh").

The paper's claims, reproduced here:

* IDA keeps refresh target blocks alive instead of letting GC erase
  them, so the in-use block census grows — by a *bounded* amount
  (the paper reports 2-4% of device blocks, 14-30% over the workload's
  own footprint), because IDA blocks are force-reclaimed next cycle and
  are attractive GC victims;
* when a write-intensive phase follows the read-intensive one on the
  same device, GC invocations and block erases rise by only a few
  percent versus a device that never ran IDA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import SUBSET_WORKLOADS, RunScale
from .parallel import RunUnit
from .reporting import ascii_table
from .runner import CapacityCensus
from .systems import baseline, ida

__all__ = ["CapacityResult", "plan", "reduce", "format_capacity"]


@dataclass
class CapacityRow:
    """Census and wear accounting for one system on one workload."""

    system: str
    in_use_blocks: int
    ida_blocks: int
    total_blocks: int
    gc_invocations: int
    block_erases: int

    @property
    def in_use_fraction(self) -> float:
        return self.in_use_blocks / self.total_blocks


@dataclass
class CapacityResult:
    workload: str
    rows: list[CapacityRow] = field(default_factory=list)

    def row(self, system: str) -> CapacityRow:
        for row in self.rows:
            if row.system == system:
                return row
        raise KeyError(system)

    def in_use_increase_fraction(self) -> float:
        """Extra in-use blocks under IDA, as a fraction of the device."""
        base = self.row("baseline")
        variant = self.row("ida-e20")
        return (variant.in_use_blocks - base.in_use_blocks) / base.total_blocks

    def erase_increase_fraction(self) -> float:
        """Extra erases under IDA across both phases (>= -eps)."""
        base = self.row("baseline")
        variant = self.row("ida-e20")
        if base.block_erases == 0:
            return 0.0
        return (variant.block_erases - base.block_erases) / base.block_erases


def _row_from_census(system_name: str, census: CapacityCensus) -> CapacityRow:
    return CapacityRow(
        system=system_name,
        in_use_blocks=census.in_use_blocks,
        ida_blocks=census.ida_blocks,
        total_blocks=census.total_blocks,
        gc_invocations=census.gc_invocations,
        block_erases=census.block_erases,
    )


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
) -> list[RunUnit]:
    """Baseline and IDA-E20 read-then-write phase pairs, per workload."""
    return [
        RunUnit(system, name, scale, seed=seed, mode="capacity")
        for name in workload_names or SUBSET_WORKLOADS
        for system in (baseline(), ida(0.2))
    ]


def reduce(results: dict[RunUnit, CapacityCensus]) -> list[CapacityResult]:
    """Compare block census and GC cost, baseline vs IDA-E20."""
    per_workload: dict[str, CapacityResult] = {}
    for unit, census in results.items():
        name = unit.workload_name
        result = per_workload.setdefault(name, CapacityResult(workload=name))
        result.rows.append(_row_from_census(unit.system.name, census))
    return list(per_workload.values())


def format_capacity(results: list[CapacityResult]) -> str:
    headers = [
        "workload",
        "system",
        "in-use blocks",
        "IDA blocks",
        "GC runs",
        "erases",
        "in-use +%dev",
        "erase +%",
    ]
    rows = []
    for result in results:
        for row in result.rows:
            rows.append(
                [
                    result.workload,
                    row.system,
                    f"{row.in_use_blocks} ({row.in_use_fraction:.1%})",
                    row.ida_blocks,
                    row.gc_invocations,
                    row.block_erases,
                    f"{result.in_use_increase_fraction():+.1%}"
                    if row.system != "baseline"
                    else "",
                    f"{result.erase_increase_fraction():+.1%}"
                    if row.system != "baseline"
                    else "",
                ]
            )
    return ascii_table(
        headers,
        rows,
        title="Sec. III-C capacity analysis "
        "(paper: in-use +2-4% of device, erases +<=3% after write phase)",
    )
