"""Columnar untimed writes equal the scalar path, byte for byte.

``Ftl.apply_untimed_batch`` is the only path preload, aging and the
background update batches take; ``Ftl.write_untimed`` is its oracle.
Seeded draws drive twin FTLs through the same sequence of untimed
batches (duplicate LPNs, scalar and per-write times) interleaved with
IDA refresh scans, on a geometry small enough that GC watermarks are
crossed and IDA blocks are live.  One twin takes every batch in one
call, the other as a ``write_untimed`` loop.  After every step both
must hold identical device columns, forward and reverse maps, plane
pools, allocator cursor and counters.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.core import conventional_tlc
from repro.flash.geometry import Geometry
from repro.ftl.ftl import Ftl
from repro.ftl.gc import GcPolicy
from repro.ftl.refresh import RefreshMode, RefreshPolicy

PERIOD_US = 1000.0
FOOTPRINT = 320


def _ftl() -> Ftl:
    geometry = Geometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=48,  # 16 TLC wordlines
    )
    return Ftl(
        geometry,
        conventional_tlc(),
        RefreshPolicy(mode=RefreshMode.IDA, period_us=PERIOD_US, error_rate=0.2),
        gc_policy=GcPolicy(low_watermark=2, target_free=3),
        rng=np.random.default_rng(5),
    )


def _fingerprint(ftl: Ftl) -> dict:
    return {
        "columns": ftl.table.state.snapshot().columns,
        "forward": bytes(ftl.map._forward),
        "pools": [
            (
                pool.active,
                list(pool.free),
                pool.in_use().tolist(),
                np.flatnonzero(~pool.in_rotation()).tolist(),
            )
            for pool in ftl.table.planes
        ],
        "cursor": ftl.allocator._cursor,
        "counters": dataclasses.asdict(ftl.counters),
    }


def _draw_batch(rng: random.Random, now: float) -> tuple[list[int], object]:
    """LPNs (often with duplicates) and either one time or one per write."""
    length = rng.choice((1, 5, 31, 33, 64, 150, 300))
    if rng.random() < 0.3:
        hot = rng.sample(range(FOOTPRINT), 8)
        lpns = [rng.choice(hot) for _ in range(length)]
    else:
        lpns = [rng.randrange(FOOTPRINT) for _ in range(length)]
    if rng.random() < 0.5:
        return lpns, now
    spread = rng.uniform(0.0, PERIOD_US)
    return lpns, now + np.sort(np.array([rng.uniform(0.0, spread) for _ in lpns]))


@pytest.mark.parametrize("seed", range(10))
def test_batch_equals_scalar_loop(seed: int) -> None:
    rng = random.Random(seed)
    batched, scalar = _ftl(), _ftl()
    segments = 0
    apply_segment = batched._apply_untimed_segment

    def counting_segment(lpns, times) -> None:
        nonlocal segments
        segments += 1
        apply_segment(lpns, times)

    batched._apply_untimed_segment = counting_segment
    now = 0.0
    saw_ida = False
    for _ in range(30):
        now += rng.uniform(100.0, 600.0)
        if rng.random() < 0.3:
            ops = batched.check_refresh(now)
            assert list(ops) == list(scalar.check_refresh(now))
        else:
            lpns, times = _draw_batch(rng, now)
            batched.apply_untimed_batch(lpns, times)
            if np.ndim(times) == 0:
                for lpn in lpns:
                    scalar.write_untimed(lpn, float(times))
            else:
                for lpn, time_us in zip(lpns, times):
                    scalar.write_untimed(lpn, float(time_us))
        assert _fingerprint(batched) == _fingerprint(scalar)
        saw_ida = saw_ida or batched.table.state.ida_blocks() > 0

    # The draw must reach every regime the batch path special-cases.
    assert segments > 0
    assert batched.counters.gc_invocations > 0
    assert saw_ida
