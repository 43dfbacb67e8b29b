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
from .parallel import RunUnit, ida_pairs
from .reporting import ascii_table
from .runner import RunResultPayload, normalized_read_response
from .systems import baseline, ida

__all__ = [
    "LifetimePhase",
    "Fig11Result",
    "lifetime_phase",
    "plan",
    "reduce",
    "format_fig11",
    "DEFAULT_PHASES",
]


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


def lifetime_phase(retry_fail_prob: float) -> LifetimePhase:
    """The phase a run's retry probability places it in.

    A probability outside :data:`DEFAULT_PHASES` gets a phase named
    after it.
    """
    for phase in DEFAULT_PHASES:
        if phase.retry_fail_prob == retry_fail_prob:
            return phase
    return LifetimePhase(f"retry={retry_fail_prob:g}", retry_fail_prob)


def plan(
    scale: RunScale,
    workload_names: list[str] | None = None,
    seed: int = 11,
    phases: tuple[LifetimePhase, ...] = DEFAULT_PHASES,
    error_rate: float = 0.2,
) -> list[RunUnit]:
    """Baseline and IDA-E{error_rate} in each lifetime phase, per workload."""
    return [
        RunUnit(system.with_retry(phase.retry_fail_prob), name, scale, seed=seed)
        for name in workload_names or TABLE3_WORKLOADS
        for phase in phases
        for system in (baseline(), ida(error_rate))
    ]


def reduce(results: dict[RunUnit, RunResultPayload]) -> Fig11Result:
    """Normalize each IDA run against the baseline in the same phase."""
    pairs = list(ida_pairs(results))
    result = Fig11Result(
        phases=tuple(
            dict.fromkeys(lifetime_phase(u.system.retry_fail_prob) for u, *_ in pairs)
        )
    )
    for unit, variant, base in pairs:
        phase = lifetime_phase(unit.system.retry_fail_prob)
        result.normalized.setdefault(unit.workload_name, {})[phase.name] = (
            normalized_read_response(variant, base)
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
