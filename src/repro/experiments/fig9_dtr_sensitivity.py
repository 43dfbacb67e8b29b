"""Fig. 9 — sensitivity to the device's read-latency step (dtR).

Paper result: with dtR = 30 us IDA-E20 still improves read response by
14% on average; at the default 50 us by 28%; at 70 us by 49% (up to 83%
for usr_1).  The benefit grows monotonically with dtR because IDA's whole
effect is collapsing multi-sense reads toward the single-sense latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale, device
from .parallel import RunUnit, ida_pairs
from .reporting import ascii_table
from .runner import RunResultPayload, normalized_read_response
from .systems import SystemSpec, baseline, ida

__all__ = ["Fig9Result", "plan", "reduce", "format_fig9", "DEFAULT_DTR_SWEEP"]

#: The paper's Fig. 9 sweep, in microseconds.
DEFAULT_DTR_SWEEP: tuple[float, ...] = (30.0, 40.0, 50.0, 60.0, 70.0)


@dataclass
class Fig9Result:
    """``normalized[workload][dtr]`` = IDA-E20 RT / baseline RT at that dtR."""

    dtr_values: tuple[float, ...]
    normalized: dict[str, dict[float, float]] = field(default_factory=dict)

    def average(self, dtr: float) -> float:
        values = [per_wl[dtr] for per_wl in self.normalized.values()]
        return sum(values) / len(values) if values else 1.0


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    dtr_values: tuple[float, ...] = DEFAULT_DTR_SWEEP,
    error_rate: float = 0.2,
) -> list[RunUnit]:
    """Baseline and IDA-E{error_rate} at each dtR, per workload."""
    return [
        RunUnit(system.with_dtr(dtr), name, scale, seed=seed)
        for name in workload_names or TABLE3_WORKLOADS
        for dtr in dtr_values
        for system in (baseline(), ida(error_rate))
    ]


def _dtr_us(system: SystemSpec) -> float:
    # ``with_dtr`` leaves ``dtr_us`` unset at the device's own step.
    if system.dtr_us is None:
        return device(system.device).timing.read_model.dtr_us
    return system.dtr_us


def reduce(results: dict[RunUnit, RunResultPayload]) -> Fig9Result:
    """Normalize each IDA run against the baseline at the same dtR."""
    pairs = list(ida_pairs(results))
    result = Fig9Result(
        dtr_values=tuple(dict.fromkeys(_dtr_us(unit.system) for unit, *_ in pairs))
    )
    for unit, variant, base in pairs:
        result.normalized.setdefault(unit.workload_name, {})[
            _dtr_us(unit.system)
        ] = normalized_read_response(variant, base)
    return result


def format_fig9(result: Fig9Result) -> str:
    headers = ["workload"] + [f"dtR={dtr:.0f}us" for dtr in result.dtr_values]
    rows = [
        [name] + [f"{per_dtr[dtr]:.3f}" for dtr in result.dtr_values]
        for name, per_dtr in result.normalized.items()
    ]
    rows.append(
        ["average"] + [f"{result.average(dtr):.3f}" for dtr in result.dtr_values]
    )
    return ascii_table(
        headers,
        rows,
        title="Fig. 9: IDA-E20 read RT normalized to baseline vs dtR "
        "(paper avg: 0.86 @30us, 0.72 @50us, 0.51 @70us)",
    )
