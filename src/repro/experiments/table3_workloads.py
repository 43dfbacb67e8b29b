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
from .parallel import RunUnit, SweepExecutor, prune_failed
from .reporting import ascii_table
from .systems import baseline

__all__ = ["Table3Row", "Table3Result", "run_table3", "format_table3"]


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


def run_table3(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> Table3Result:
    """Measure the Table III columns for the synthetic clones."""
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    units = [RunUnit(baseline(), name, scale, seed=seed) for name in names]
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    names, units, payloads, _ = prune_failed(names, units, payloads, executor.progress)

    result = Table3Result()
    for name, payload in zip(names, payloads):
        # Trace shape statistics come from the (deterministic) generator,
        # not the simulation, so they are recomputed here in the parent.
        spec = TABLE3_WORKLOADS[name].scaled(
            scale.num_requests, scale.footprint_pages
        )
        trace = generate_workload(spec).trace
        result.rows.append(
            Table3Row(
                workload=name,
                read_ratio_pct=trace.read_ratio() * 100,
                read_size_kb=trace.mean_read_size_kb(),
                read_data_pct=trace.read_data_ratio() * 100,
                msb_invalid_pct=payload.read_mix.msb_invalid_fraction(2) * 100,
                paper=TABLE3_REFERENCE[name],
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
