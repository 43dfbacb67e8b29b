"""Flash timing parameters (Table II) and derived operation latencies.

All times are in microseconds.  The Table II baseline:

* page reads: 50 / 100 / 150 us for LSB / CSB / MSB (1 / 2 / 4 senses);
* page program: 2.3 ms; block erase: 3 ms;
* channel: 333 MT/s, 48 us per 8 KiB page transfer;
* ECC decode: 20 us per page;
* IDA voltage adjustment: conservatively one MSB page-program time per
  wordline (Sec. III-B, "Voltage Adjustment Feasibility").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.readpath import ReadLatencyModel

__all__ = ["TimingSpec"]


@dataclass(frozen=True)
class TimingSpec:
    """Operation latencies of one flash device, all in microseconds.

    Attributes:
        read_model: Sense-count to memory-access-latency mapping.
        program_us: Full page-program (ISPP) time.
        erase_us: Block-erase time.
        transfer_us: Channel time to move one page between chip and DRAM.
        ecc_decode_us: ECC-engine time to decode one page.
        adjust_program_fraction: IDA voltage-adjustment time for one
            wordline, as a fraction of ``program_us``.  The paper argues
            ~0.5 is achievable (half the ISPP voltage range) but
            *conservatively charges 1.0*; we default to the conservative
            choice and expose the knob for ablation.
        host_overhead_us: Fixed host-interface cost per request (PCIe 3.0
            x4 is far faster than the flash path, so this is small).
    """

    read_model: ReadLatencyModel = ReadLatencyModel(tr_base_us=50.0, dtr_us=50.0)
    program_us: float = 2300.0
    erase_us: float = 3000.0
    transfer_us: float = 48.0
    ecc_decode_us: float = 20.0
    adjust_program_fraction: float = 1.0
    host_overhead_us: float = 5.0

    def __post_init__(self) -> None:
        for name in ("program_us", "erase_us", "transfer_us", "ecc_decode_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.adjust_program_fraction <= 2.0:
            raise ValueError("adjust_program_fraction must be in (0, 2]")
        if self.host_overhead_us < 0:
            raise ValueError("host_overhead_us must be non-negative")

    # ------------------------------------------------------------------
    # Derived latencies
    # ------------------------------------------------------------------
    def read_us(self, senses: int) -> float:
        """Memory-access time of a read needing ``senses`` senses."""
        return self.read_model.latency_us(senses)

    def adjust_us(self) -> float:
        """Voltage-adjustment time for one wordline."""
        return self.program_us * self.adjust_program_fraction

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_dtr(self, dtr_us: float) -> "TimingSpec":
        """Same device with a different read-latency step (Fig. 9 sweep)."""
        return replace(self, read_model=self.read_model.with_dtr(dtr_us))

    @classmethod
    def tlc_table2(cls) -> "TimingSpec":
        """The Table II TLC baseline (50/100/150 us reads)."""
        return cls()

    @classmethod
    def mlc_spec(cls) -> "TimingSpec":
        """The Sec. V-G MLC device: 65 / 115 us LSB / MSB reads [39]."""
        return cls(read_model=ReadLatencyModel(tr_base_us=65.0, dtr_us=50.0))

    @classmethod
    def qlc_spec(cls) -> "TimingSpec":
        """A projected QLC device: 1/2/4/8-sense reads at 50 us steps.

        QLC parts are slower than TLC across the board; we keep the TLC
        base/step so the *relative* QLC benefit is attributable to the
        sense-count structure alone (the paper's future-work argument).
        """
        return cls(read_model=ReadLatencyModel(tr_base_us=60.0, dtr_us=50.0))
