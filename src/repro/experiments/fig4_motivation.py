"""Fig. 4 — distribution of reads across page types and validity scenarios.

Paper result (baseline system, 11 read-intensive workloads): LSB/CSB/MSB
reads are roughly evenly distributed; on average 18% of CSB reads occur
while the associated LSB is invalid, and 30% of MSB reads occur while the
associated LSB and/or CSB is invalid.  Nine additional workloads (right
panel) confirm the opportunity across read-ratio classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import EXTRA_WORKLOADS, TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit
from .reporting import ascii_table, format_pct
from .runner import RunResultPayload
from .systems import baseline

__all__ = ["Fig4Row", "Fig4Result", "plan", "reduce", "format_fig4"]


@dataclass(frozen=True)
class Fig4Row:
    """Read-mix measurements for one workload under the baseline."""

    workload: str
    lsb_share: float
    csb_share: float
    msb_share: float
    csb_with_invalid_lsb: float
    msb_with_invalid_lower: float


@dataclass
class Fig4Result:
    """All Fig. 4 rows (main panel + extra panel)."""

    main: list[Fig4Row] = field(default_factory=list)
    extra: list[Fig4Row] = field(default_factory=list)

    @staticmethod
    def _avg(rows: list[Fig4Row], attr: str) -> float:
        if not rows:
            return 0.0
        return sum(getattr(r, attr) for r in rows) / len(rows)

    def average_csb_invalid(self) -> float:
        return self._avg(self.main, "csb_with_invalid_lsb")

    def average_msb_invalid(self) -> float:
        return self._avg(self.main, "msb_with_invalid_lower")


def _row_from_payload(name: str, payload: RunResultPayload) -> Fig4Row:
    mix = payload.read_mix
    return Fig4Row(
        workload=name,
        lsb_share=mix.fraction_of_type(0),
        csb_share=mix.fraction_of_type(1),
        msb_share=mix.fraction_of_type(2),
        csb_with_invalid_lsb=mix.csb_invalid_fraction(),
        msb_with_invalid_lower=mix.msb_invalid_fraction(2),
    )


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    include_extra: bool = True,
) -> list[RunUnit]:
    """One baseline run per workload of the main (and extra) panel."""
    names = list(workload_names or TABLE3_WORKLOADS)
    if include_extra and workload_names is None:
        names += EXTRA_WORKLOADS
    return [RunUnit(baseline(), name, scale, seed=seed) for name in names]


def reduce(results: dict[RunUnit, RunResultPayload]) -> Fig4Result:
    """One read-mix row per run; the nine extra workloads fill the right panel."""
    result = Fig4Result()
    for unit, payload in results.items():
        panel = result.extra if unit.workload_name in EXTRA_WORKLOADS else result.main
        panel.append(_row_from_payload(unit.workload_name, payload))
    return result


def format_fig4(result: Fig4Result) -> str:
    headers = [
        "workload",
        "LSB",
        "CSB",
        "MSB",
        "CSB w/ inv LSB",
        "MSB w/ inv lower",
    ]

    def rows_for(rows: list[Fig4Row]):
        return [
            [
                r.workload,
                format_pct(r.lsb_share),
                format_pct(r.csb_share),
                format_pct(r.msb_share),
                format_pct(r.csb_with_invalid_lsb),
                format_pct(r.msb_with_invalid_lower),
            ]
            for r in rows
        ]

    main_rows = rows_for(result.main)
    main_rows.append(
        [
            "average",
            "",
            "",
            "",
            format_pct(result.average_csb_invalid()),
            format_pct(result.average_msb_invalid()),
        ]
    )
    parts = [
        ascii_table(
            headers,
            main_rows,
            title="Fig. 4 (left): read mix, 11 workloads "
            "(paper avg: 18% CSB w/ invalid LSB, 30% MSB w/ invalid lower)",
        )
    ]
    if result.extra:
        parts.append(
            ascii_table(
                headers,
                rows_for(result.extra),
                title="Fig. 4 (right): 9 additional workloads",
            )
        )
    return "\n\n".join(parts)
