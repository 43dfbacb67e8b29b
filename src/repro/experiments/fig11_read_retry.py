"""Fig. 11 — IDA effectiveness across the SSD lifetime (read retry).

Paper result: early in the device lifetime (no read-retries) IDA-E20
improves read response times by 28%; late in the lifetime, when the RBER
has grown enough that LDPC decodes fail and trigger re-sensing, the
improvement rises to 42.3% — every retry repeats the page's memory-access
time, so cutting that time compounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.msr import TABLE3_WORKLOADS
from .config import RunScale
from .parallel import RunUnit, SweepExecutor, prune_failed
from .reporting import ascii_table
from .runner import normalized_read_response
from .systems import baseline, ida

__all__ = ["LifetimePhase", "Fig11Result", "run_fig11", "format_fig11", "DEFAULT_PHASES"]


@dataclass(frozen=True)
class LifetimePhase:
    """One lifetime phase: a label and its per-attempt retry probability."""

    name: str
    retry_fail_prob: float


#: Early life: hard decodes always succeed.  Late life: reads frequently
#: need extra sensing passes (calibrated near [38]'s high-RBER regime).
DEFAULT_PHASES: tuple[LifetimePhase, ...] = (
    LifetimePhase("early", 0.0),
    LifetimePhase("late", 0.45),
)


@dataclass
class Fig11Result:
    """``normalized[workload][phase]`` = IDA RT / baseline RT in that phase."""

    phases: tuple[LifetimePhase, ...]
    normalized: dict[str, dict[str, float]] = field(default_factory=dict)

    def average(self, phase_name: str) -> float:
        values = [per_wl[phase_name] for per_wl in self.normalized.values()]
        return sum(values) / len(values) if values else 1.0


def run_fig11(
    scale: RunScale | None = None,
    workload_names: list[str] | None = None,
    phases: tuple[LifetimePhase, ...] = DEFAULT_PHASES,
    error_rate: float = 0.2,
    seed: int = 11,
    executor: SweepExecutor | None = None,
) -> Fig11Result:
    """Compare IDA-E20 vs baseline in each lifetime phase."""
    scale = scale or RunScale.bench()
    names = workload_names or list(TABLE3_WORKLOADS)
    units = []
    for name in names:
        for phase in phases:
            units.append(
                RunUnit(
                    baseline().with_retry(phase.retry_fail_prob),
                    name,
                    scale,
                    seed=seed,
                )
            )
            units.append(
                RunUnit(
                    ida(error_rate).with_retry(phase.retry_fail_prob),
                    name,
                    scale,
                    seed=seed,
                )
            )
    executor = executor or SweepExecutor()
    payloads = executor.map(units)
    names, units, payloads, _ = prune_failed(names, units, payloads, executor.progress)

    result = Fig11Result(phases=phases)
    pairs = iter(zip(payloads[::2], payloads[1::2]))
    for name in names:
        result.normalized[name] = {}
        for phase in phases:
            base, variant = next(pairs)
            result.normalized[name][phase.name] = normalized_read_response(
                variant, base
            )
    return result


def format_fig11(result: Fig11Result) -> str:
    headers = ["workload"] + [p.name for p in result.phases]
    rows = [
        [name] + [f"{per_phase[p.name]:.3f}" for p in result.phases]
        for name, per_phase in result.normalized.items()
    ]
    rows.append(
        ["average"] + [f"{result.average(p.name):.3f}" for p in result.phases]
    )
    return ascii_table(
        headers,
        rows,
        title="Fig. 11: normalized read RT by lifetime phase "
        "(paper avg: 0.72 early, 0.577 late)",
    )
