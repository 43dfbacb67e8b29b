"""Fig. 9 — sensitivity to the device's read-latency step (dtR).

Paper result: with dtR = 30 us IDA-E20 still improves read response by
14% on average; at the default 50 us by 28%; at 70 us by 49% (up to 83%
for usr_1).  The benefit grows monotonically with dtR because IDA's whole
effect is collapsing multi-sense reads toward the single-sense latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit, SweepExecutor, prune_failed
from .reporting import ascii_table
from .runner import normalized_read_response
from .systems import baseline, ida

__all__ = ["Fig9Result", "run_fig9", "format_fig9", "DEFAULT_DTR_SWEEP"]

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


def run_fig9(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    dtr_values: tuple[float, ...] = DEFAULT_DTR_SWEEP,
    error_rate: float = 0.2,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> Fig9Result:
    """Run the dtR sweep; baseline and IDA share each dtR setting."""
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    units = []
    for name in names:
        for dtr in dtr_values:
            units.append(RunUnit(baseline().with_dtr(dtr), name, scale, seed=seed))
            units.append(
                RunUnit(ida(error_rate).with_dtr(dtr), name, scale, seed=seed)
            )
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    names, units, payloads, _ = prune_failed(names, units, payloads, executor.progress)

    result = Fig9Result(dtr_values=dtr_values)
    pairs = iter(zip(payloads[::2], payloads[1::2]))
    for name in names:
        result.normalized[name] = {}
        for dtr in dtr_values:
            base, variant = next(pairs)
            result.normalized[name][dtr] = normalized_read_response(variant, base)
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
