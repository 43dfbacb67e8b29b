"""Experiment configuration: devices (Table II) and run scales.

A :class:`DeviceConfig` bundles the geometry, timing and coding of one
device family; :class:`RunScale` sets how large a simulation is (request
count, footprint, refresh cycles).  The paper's full 512 GB device is
expressible but experiments default to a proportionally scaled device so
the Python simulator finishes in seconds per run — every effect measured
is per-block / per-queue, so the scaling leaves the comparisons intact
(see DESIGN.md section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.coding import GrayCoding
from ..core.mlc import conventional_mlc
from ..core.qlc import conventional_qlc
from ..core.tlc import conventional_tlc, tlc_232
from ..flash.geometry import Geometry
from ..flash.timing import TimingSpec

__all__ = ["DeviceConfig", "RunScale", "SUBSET_WORKLOADS", "device"]


@dataclass(frozen=True)
class DeviceConfig:
    """One device family: geometry + timing + coding.

    Attributes:
        name: Family identifier ("tlc", "mlc", "qlc", "tlc232").
        geometry: Topology (bits/cell must match the coding).
        timing: Operation latencies.
        coding: Conventional cell coding.
    """

    name: str
    geometry: Geometry
    timing: TimingSpec
    coding: GrayCoding

    def __post_init__(self) -> None:
        if self.coding.bits != self.geometry.bits_per_cell:
            raise ValueError(
                f"device {self.name!r}: coding bits {self.coding.bits} != "
                f"geometry bits {self.geometry.bits_per_cell}"
            )

    def with_dtr(self, dtr_us: float) -> "DeviceConfig":
        """Same device with a different read-latency step (Fig. 9)."""
        return replace(self, timing=self.timing.with_dtr(dtr_us))


def device(name: str, blocks_per_plane: int = 64) -> DeviceConfig:
    """Build a named device family at the given scale.

    ``"tlc"`` is the Table II baseline (50/100/150 us reads, 192-page
    blocks); ``"mlc"`` the Sec. V-G device (65/115 us, 128-page blocks);
    ``"qlc"`` the projected future-work device (256-page blocks);
    ``"tlc232"`` the vendor-alternate 2-3-2 TLC coding on Table II timing.
    """
    base = Geometry()
    if name == "tlc":
        geometry = replace(base, blocks_per_plane=blocks_per_plane)
        return DeviceConfig("tlc", geometry, TimingSpec.tlc_table2(), conventional_tlc())
    if name == "tlc232":
        geometry = replace(base, blocks_per_plane=blocks_per_plane)
        return DeviceConfig("tlc232", geometry, TimingSpec.tlc_table2(), tlc_232())
    if name == "mlc":
        geometry = replace(
            base,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=128,
            bits_per_cell=2,
        )
        return DeviceConfig("mlc", geometry, TimingSpec.mlc_spec(), conventional_mlc())
    if name == "qlc":
        geometry = replace(
            base,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=256,
            bits_per_cell=4,
        )
        return DeviceConfig("qlc", geometry, TimingSpec.qlc_spec(), conventional_qlc())
    raise ValueError(f"unknown device {name!r}; choose tlc/tlc232/mlc/qlc")


#: The workloads the ablations and the capacity, faults and recovery
#: sweeps default to: the paper's best cases (proj_1, usr_1) and a
#: median one (src2_0).
SUBSET_WORKLOADS: tuple[str, ...] = ("proj_1", "usr_1", "src2_0")


@dataclass(frozen=True)
class RunScale:
    """How large one simulation run is.

    The footprint must be several blocks *per plane* for refresh (which
    targets full blocks) to have anything to work on — the paper's traces
    occupy 20-110 GB of a 512 GB device, hundreds of blocks per plane.

    Attributes:
        num_requests: Timed requests per workload.
        footprint_pages: Logical footprint (pages).
        blocks_per_plane: Device scale.
        refresh_cycles: Refresh periods within the trace duration (the
            paper refreshes every 3 days to 3 months over multi-day
            traces; we keep the same cycles-per-trace ratio).
        gc_low_watermark / gc_target_free: GC thresholds.
        channels / chips_per_channel / dies_per_chip / planes_per_die:
            Topology overrides; ``None`` keeps the Table II value.  Quick
            test scales shrink the plane count so a small footprint still
            fills whole blocks.
    """

    num_requests: int = 6000
    footprint_pages: int = 45_000
    blocks_per_plane: int = 64
    refresh_cycles: float = 3.0
    gc_low_watermark: int = 2
    gc_target_free: int = 4
    channels: int | None = None
    chips_per_channel: int | None = None
    dies_per_chip: int | None = None
    planes_per_die: int | None = None

    def __post_init__(self) -> None:
        if self.refresh_cycles <= 0:
            raise ValueError("refresh_cycles must be positive")

    def apply_topology(self, geometry: Geometry) -> Geometry:
        """Geometry with this scale's topology overrides applied."""
        from dataclasses import replace as _replace

        kwargs = {"blocks_per_plane": self.blocks_per_plane}
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
        ):
            value = getattr(self, name)
            if value is not None:
                kwargs[name] = value
        return _replace(geometry, **kwargs)

    @classmethod
    def tiny(cls) -> "RunScale":
        """Smallest viable scale: CI smoke runs and traced examples.

        Four planes of 12 blocks give refresh and GC whole blocks to
        work on while a full run (preload + trace + drain) stays well
        under a second.
        """
        return cls(
            num_requests=400,
            footprint_pages=2500,
            blocks_per_plane=12,
            channels=1,
            chips_per_channel=2,
            dies_per_chip=1,
            planes_per_die=2,
        )

    @classmethod
    def quick(cls) -> "RunScale":
        """Small scale for unit/integration tests (sub-second runs)."""
        return cls(
            num_requests=1200,
            footprint_pages=6000,
            blocks_per_plane=16,
            channels=2,
            chips_per_channel=2,
            dies_per_chip=1,
            planes_per_die=2,
        )

    @classmethod
    def bench(cls) -> "RunScale":
        """Medium scale for the benchmark harness (full Table II topology)."""
        return cls(num_requests=5000, footprint_pages=45_000, blocks_per_plane=48)

    @classmethod
    def full(cls) -> "RunScale":
        """The paper's full 512 GB device (Table II, 350,208 blocks).

        4 channels x 4 chips x 2 dies x 2 planes x 5472 blocks of 192
        pages at 8 KiB — no topology overrides.  The footprint matches
        the paper's trace occupancy band (~31 GB of the 512 GB device).
        Feasible in bounded memory because device state is columnar
        (~270 MB for the whole device, see ``repro.flash.state``) and
        every untimed write (preload, aging, background batches) goes
        through the FTL's columnar ``apply_untimed_batch`` segments.
        """
        return cls(
            num_requests=20_000,
            footprint_pages=4_000_000,
            blocks_per_plane=5472,
            gc_low_watermark=8,
            gc_target_free=16,
        )
