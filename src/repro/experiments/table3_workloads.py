"""Table III — workload characteristics, paper vs synthetic clones.

For every catalog workload: read-request ratio, mean read size (KB),
read-data ratio (all from the generated trace), and the fraction of MSB
reads with invalid lower pages (measured on the baseline system).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_REFERENCE, TABLE3_WORKLOADS
from ..workloads.synthetic import generate_workload
from .config import RunScale
from .parallel import RunUnit
from .reporting import ascii_table
from .runner import RunResultPayload
from .systems import baseline

__all__ = ["Table3Row", "Table3Result", "plan", "reduce", "format_table3"]


@dataclass(frozen=True)
class Table3Row:
    """Measured vs paper characteristics for one workload."""

    workload: str
    read_ratio_pct: float
    read_size_kb: float
    read_data_pct: float
    msb_invalid_pct: float
    paper: tuple[float, float, float, float]


@dataclass
class Table3Result:
    rows: list[Table3Row] = field(default_factory=list)


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
) -> list[RunUnit]:
    """One baseline run per workload (for the MSB-invalid column)."""
    return [
        RunUnit(baseline(), name, scale, seed=seed)
        for name in workload_names or TABLE3_WORKLOADS
    ]


def reduce(results: dict[RunUnit, RunResultPayload]) -> Table3Result:
    """Measure the Table III columns for the synthetic clones."""
    result = Table3Result()
    for unit, payload in results.items():
        # Trace shape statistics come from the (deterministic) generator,
        # not the simulation, so they are recomputed here in the parent.
        trace = generate_workload(unit.scaled_workload()).trace
        result.rows.append(
            Table3Row(
                workload=unit.workload_name,
                read_ratio_pct=trace.read_ratio() * 100,
                read_size_kb=trace.mean_read_size_kb(),
                read_data_pct=trace.read_data_ratio() * 100,
                msb_invalid_pct=payload.read_mix.msb_invalid_fraction(2) * 100,
                paper=TABLE3_REFERENCE[unit.workload_name],
            )
        )
    return result


def format_table3(result: Table3Result) -> str:
    headers = [
        "workload",
        "read% (paper)",
        "read KB (paper)",
        "read-data% (paper)",
        "MSB-inv% (paper)",
    ]
    rows = [
        [
            r.workload,
            f"{r.read_ratio_pct:.1f} ({r.paper[0]:.1f})",
            f"{r.read_size_kb:.1f} ({r.paper[1]:.1f})",
            f"{r.read_data_pct:.1f} ({r.paper[2]:.1f})",
            f"{r.msb_invalid_pct:.1f} ({r.paper[3]:.1f})",
        ]
        for r in result.rows
    ]
    return ascii_table(headers, rows, title="Table III: workload characteristics")
