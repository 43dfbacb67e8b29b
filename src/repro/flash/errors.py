"""Error models: raw bit errors, program disturb, and read retry.

Three stochastic effects matter to the paper's evaluation:

* **Adjustment disturb** (Sec. V-B): the ISPP pulses of a voltage
  adjustment disturb neighbouring wordlines; the paper sweeps the fraction
  of reprogrammed pages that come out corrupted from 0% to 80%
  (IDA-E0 .. IDA-E80).  :class:`AdjustDisturbModel` is that knob.
* **RBER growth over the device lifetime** (Sec. V-F): raw bit error rate
  rises with program/erase wear and retention age; late in life reads
  start to need LDPC read-retries.  :class:`RberModel` provides a standard
  exponential wear curve calibrated so the paper's "early" and "late"
  lifetime phases land below and above the retry threshold.
* **Read retry** (Sec. V-F, after [38]): when a decode fails, the page is
  re-sensed with shifted voltages — every retry repeats the page's full
  memory-access time, so slow (many-sense) pages pay the most.
  :class:`ReadRetryModel` samples per-read retry counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["AdjustDisturbModel", "RberModel", "ReadRetryModel"]

#: RBER at which a hard decode fails half the time (after [38]).
DECODE_THRESHOLD_RBER = 2e-3
#: Steepness of the logistic decode-failure ramp around that threshold.
DECODE_SHARPNESS = 1500.0


@dataclass(frozen=True)
class AdjustDisturbModel:
    """The IDA-E{x} knob: fraction of adjusted pages that get corrupted.

    Attributes:
        error_rate: Probability that a page kept through a voltage
            adjustment is disturbed badly enough that its (error-free,
            ECC-corrected) copy must be written to the new block instead
            (step 8 of Fig. 7).
    """

    error_rate: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be within [0, 1]")

    def corrupted_pages(
        self, rng: np.random.Generator, pages: list[int]
    ) -> list[int]:
        """Subset of ``pages`` disturbed by an adjustment, sampled i.i.d."""
        if not pages or self.error_rate == 0.0:
            return []
        if self.error_rate == 1.0:
            return list(pages)
        draws = rng.random(len(pages))
        return [page for page, draw in zip(pages, draws) if draw < self.error_rate]


@dataclass(frozen=True)
class RberModel:
    """Raw bit error rate as a function of wear and retention.

    ``rber = base * exp(wear_exponent * pe_fraction) * (1 + retention_slope
    * retention_days)`` — the standard empirical shape (Cai et al. [23]).

    Attributes:
        base_rber: RBER of a fresh block immediately after program.
        wear_exponent: Exponential growth factor over the rated life.
        retention_slope: Linear RBER growth per day of retention.
        rated_pe_cycles: Erase-cycle limit the wear fraction is taken
            against.
    """

    base_rber: float = 4e-4
    wear_exponent: float = 2.3
    retention_slope: float = 0.25
    rated_pe_cycles: int = 3000

    def __post_init__(self) -> None:
        if self.base_rber <= 0:
            raise ValueError("base_rber must be positive")
        if self.wear_exponent < 0:
            raise ValueError("wear_exponent must be non-negative")
        if self.retention_slope < 0:
            raise ValueError("retention_slope must be non-negative")
        if self.rated_pe_cycles < 1:
            raise ValueError("rated_pe_cycles must be >= 1")

    def rber(self, pe_cycles: int, retention_days: float = 0.0) -> float:
        """RBER of a block with the given wear and retention age."""
        if pe_cycles < 0 or retention_days < 0:
            raise ValueError("wear and retention must be non-negative")
        wear_fraction = min(1.0, pe_cycles / self.rated_pe_cycles)
        wear_term = math.exp(self.wear_exponent * wear_fraction)
        retention_term = 1.0 + self.retention_slope * retention_days
        return self.base_rber * wear_term * retention_term


@dataclass(frozen=True)
class ReadRetryModel:
    """Per-read retry counts for the Fig. 11 lifetime experiment.

    Following the LDPC-in-SSD characterisation [38], the probability that
    a hard decode fails grows with RBER past a correction threshold; each
    failed attempt triggers one extra sensing pass.  We model the retry
    count as a truncated geometric with per-attempt failure probability
    ``fail_prob``.

    A page's raw errors accumulate per *sense boundary* (each read
    voltage contributes its misclassification tail), so a page read with
    fewer senses fails its decode less often.  ``fail_prob`` is
    calibrated for a ``reference_senses``-sense page (the TLC MSB); an
    ``s``-sense page fails with ``1 - (1 - p1)**s`` where ``p1`` is the
    per-sense failure contribution.  This is the second half of the
    paper's Fig. 11 mechanism: IDA-coded pages retry less often *and*
    each retry re-runs a cheaper memory access.

    Attributes:
        fail_prob: Probability each decode attempt fails for a
            reference-sense-count page (0 early in the device lifetime;
            the late-lifetime phase of Fig. 11 uses values around
            0.4-0.6).
        max_retries: Hard cap on extra sensing passes (LDPC soft-decode
            levels are finite; [38] uses up to 7 extra levels).
        reference_senses: The sense count ``fail_prob`` is quoted for.
    """

    fail_prob: float = 0.0
    max_retries: int = 7
    reference_senses: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.fail_prob < 1.0:
            raise ValueError("fail_prob must be within [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.reference_senses < 1:
            raise ValueError("reference_senses must be >= 1")

    def page_fail_prob(self, senses: int) -> float:
        """Per-attempt decode-failure probability of an ``senses``-sense page."""
        if senses < 1:
            raise ValueError("senses must be >= 1")
        if self.fail_prob == 0.0:
            return 0.0
        per_sense = 1.0 - (1.0 - self.fail_prob) ** (1.0 / self.reference_senses)
        return 1.0 - (1.0 - per_sense) ** senses

    @classmethod
    def for_rber(cls, rber: float) -> "ReadRetryModel":
        """Retry model induced by an RBER level.

        A logistic ramp around the hard-decode correction threshold
        (:data:`DECODE_THRESHOLD_RBER`): well below it decodes always
        succeed; well above it most reads need retries.  The failure
        probability is capped at 0.95, since ``fail_prob`` must stay below 1.
        """
        if rber < 0:
            raise ValueError("rber must be non-negative")
        x = DECODE_SHARPNESS * (rber - DECODE_THRESHOLD_RBER)
        fail = 1.0 / (1.0 + math.exp(-x))
        return cls(fail_prob=min(0.95, fail))

    def sample_retries(self, rng: np.random.Generator, senses: int | None = None) -> int:
        """Number of extra sensing passes one page read needs.

        Always consumes exactly ``max_retries`` uniforms, so paired
        simulation runs that read the same host pages in the same order
        stay on common random numbers even when their sense counts
        differ (baseline vs IDA).
        """
        if self.fail_prob == 0.0:
            return 0
        p = self.page_fail_prob(senses if senses is not None else self.reference_senses)
        draws = rng.random(self.max_retries)
        retries = 0
        for u in draws:
            if u < p:
                retries += 1
            else:
                break
        return retries

    def expected_retries(self, senses: int | None = None) -> float:
        """Mean of :meth:`sample_retries` (for closed-form checks)."""
        p = self.page_fail_prob(senses if senses is not None else self.reference_senses)
        if p == 0.0:
            return 0.0
        # Truncated geometric: E = sum_{k=1..max} p^k.
        return sum(p**k for k in range(1, self.max_retries + 1))
