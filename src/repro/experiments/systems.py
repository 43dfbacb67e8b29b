"""Evaluated systems (Sec. IV-C): Baseline, IDA-E0..E80, and variants.

A :class:`SystemSpec` captures everything that distinguishes one evaluated
system from another: refresh flow, disturb error rate, device family,
dtR override, lifetime phase (read-retry probability), allocation
strategy, and the adjustment-cost ablation knob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..flash.errors import ReadRetryModel
from ..ftl.refresh import RefreshMode
from ..sim.policy import make_policy
from .config import device

__all__ = ["SystemSpec", "baseline", "ida", "error_rate_sweep"]


@dataclass(frozen=True)
class SystemSpec:
    """One evaluated system configuration.

    Attributes:
        name: Display name ("baseline", "ida-e20", ...).
        refresh_mode: Baseline or IDA-modified refresh flow.
        error_rate: Voltage-adjustment disturb rate (the E-knob).
        device: Device family name ("tlc", "mlc", "qlc", "tlc232").
        dtr_us: Read-latency step override (Fig. 9), or None for default.
        retry_fail_prob: Per-attempt decode failure probability (Fig. 11
            lifetime phase; 0 = early life, no retries).
        allocation: Static allocation strategy.
        adjust_program_fraction: Voltage-adjustment cost as a fraction of
            a program (1.0 = the paper's conservative charge).
        policy: Scheduling policy name from the
            :data:`repro.sim.policy.POLICIES` registry ("read-first" =
            the paper's Table II default, "fcfs", "throttled").
    """

    name: str
    refresh_mode: RefreshMode
    error_rate: float = 0.2
    device: str = "tlc"
    dtr_us: float | None = None
    retry_fail_prob: float = 0.0
    allocation: str = "cwdp"
    adjust_program_fraction: float = 1.0
    policy: str = "read-first"

    def retry_model(self) -> ReadRetryModel:
        return ReadRetryModel(fail_prob=self.retry_fail_prob)

    def with_retry(self, fail_prob: float) -> "SystemSpec":
        return replace(self, retry_fail_prob=fail_prob)

    def with_dtr(self, dtr_us: float) -> "SystemSpec":
        """Same system at read-latency step ``dtr_us``.

        The device's own step clears the override, so a sweep point at
        the default builds (and compares equal to) the default system.
        """
        if dtr_us == device(self.device).timing.read_model.dtr_us:
            return replace(self, dtr_us=None)
        return replace(self, dtr_us=dtr_us)

    def with_policy(self, policy: str) -> "SystemSpec":
        """Same system under a different scheduling policy.

        Validates eagerly so a typo fails at configuration time, not
        half-way into a run.
        """
        make_policy(policy)
        return replace(self, policy=policy)


def baseline(device: str = "tlc") -> SystemSpec:
    """The Sec. IV-C baseline: conventional coding, default refresh."""
    return SystemSpec(
        name="baseline", refresh_mode=RefreshMode.BASELINE, device=device
    )


def ida(error_rate: float = 0.2, device: str = "tlc") -> SystemSpec:
    """IDA-Coding-E{x}: IDA refresh with the given disturb rate."""
    pct = int(round(error_rate * 100))
    return SystemSpec(
        name=f"ida-e{pct}",
        refresh_mode=RefreshMode.IDA,
        error_rate=error_rate,
        device=device,
    )


def error_rate_sweep() -> list[SystemSpec]:
    """The Fig. 8 sweep: IDA-E0, E10, E20, E40, E50, E80."""
    return [ida(rate) for rate in (0.0, 0.1, 0.2, 0.4, 0.5, 0.8)]
