"""The paper's full 512 GB topology is buildable and runnable.

``RunScale.full()`` is the Table II device with no topology shrinkage:
64 planes x 5472 blocks = 350,208 blocks, 67 M physical pages.  The
per-object simulator could never hold that; the columnar
:class:`~repro.flash.state.DeviceState` must — in a few hundred MB of
flat buffers — and a short fig8 slice must run on it end to end.  These tests pin both the scale numbers and the memory
bound so a regression back toward per-page Python objects fails fast.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.experiments.config import RunScale
from repro.experiments.runner import build_simulator, run_workload
from repro.experiments.systems import ida
from repro.flash.geometry import Geometry
from repro.flash.state import DeviceState
from repro.ftl.recovery import mount_device
from repro.workloads import workload

FULL_BLOCKS = 350_208


class TestFullTopologyState:
    def test_full_scale_is_the_table2_device(self):
        scale = RunScale.full()
        geometry = scale.apply_topology(Geometry())
        assert geometry.total_planes == 64
        assert geometry.blocks_per_plane == 5472
        assert geometry.total_blocks == FULL_BLOCKS
        capacity_gib = geometry.total_pages * geometry.page_size_bytes / (1 << 30)
        assert 500 <= capacity_gib <= 520

    def test_columnar_state_fits_bounded_memory(self):
        geometry = RunScale.full().apply_topology(Geometry())
        state = DeviceState(
            geometry.total_blocks, geometry.pages_per_block, geometry.bits_per_cell
        )
        assert state.num_blocks == FULL_BLOCKS
        # 67 M page-state bytes + 22 M wordline modes + 8-byte wordline
        # read counters (~180 MB) + the 16-byte per-page OOB records
        # that make the device mountable after power loss (~1.0 GiB —
        # real drives spend far more spare area on the same metadata)
        # + per-block summary/journal columns: ~1.36 GiB for the whole
        # 512 GB device, still flat buffers with no per-page objects.
        assert state.memory_bytes() < 1536 * 1024 * 1024

    def test_full_device_mounts_in_bounded_time(self):
        # SPOR mount must stay a vectorized scan: rebuilding the map,
        # pools and validity for all 350,208 blocks from on-flash
        # metadata alone has to finish in seconds, not minutes.  An
        # empty device still walks every summary/journal/pool column,
        # so it exercises the full-scale code path without a preload.
        scale = RunScale.full()
        sim = build_simulator(ida(0.2), scale, duration_us=1e6, seed=11)
        start = time.monotonic()
        recovered, report = mount_device(
            sim.ftl.table.state,
            sim.geometry,
            sim.ftl.coding,
            sim.ftl.refresh_policy,
            gc_policy=sim.ftl.gc_policy,
            rng=np.random.default_rng(12),
        )
        elapsed = time.monotonic() - start
        assert report.free_blocks == FULL_BLOCKS
        assert recovered.table.state.num_blocks == FULL_BLOCKS
        # Generous CI bound; a per-page Python loop would take minutes.
        assert elapsed < 60.0

    def test_simulator_builds_at_full_topology(self):
        scale = RunScale.full()
        sim = build_simulator(ida(0.2), scale, duration_us=1e6, seed=11)
        assert sim.ftl.table.state.num_blocks == FULL_BLOCKS
        assert len(sim.dies) == 32


class TestFullTopologySlice:
    def test_short_fig8_slice_runs_on_full_device(self):
        # Full 350,208-block topology, shortened request stream and
        # footprint so the smoke test stays in CI time: the point is
        # that preload, refresh, GC and the host path all work against
        # the full-size columnar state, not the workload length.
        scale = replace(
            RunScale.full(), num_requests=150, footprint_pages=120_000
        )
        result = run_workload(ida(0.2), workload("usr_1"), scale, seed=11)
        metrics = result.metrics
        assert metrics.read_response.count > 0
        assert metrics.write_response.count > 0
        assert metrics.elapsed_us > 0
        assert result.in_use_blocks > 64  # footprint actually landed
