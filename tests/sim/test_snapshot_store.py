"""SnapshotStore: LRU, disk spill (also the pool transport), corruption hardening."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.experiments.config import RunScale
from repro.experiments.runner import prepare_warm_state
from repro.experiments.systems import ida
from repro.flash.state import DeviceStateSnapshot
from repro.sim.snapshot import (
    SNAPSHOT_SCHEMA,
    STORE_CAPACITY,
    PlaneSnapshot,
    SnapshotStore,
    WarmHandle,
    WarmState,
)
from repro.workloads import TABLE3_WORKLOADS


@pytest.fixture(scope="module")
def warm() -> WarmState:
    return prepare_warm_state(
        ida(0.2), TABLE3_WORKLOADS["usr_1"], RunScale.tiny()
    )


class TestLru:
    def test_capacity_evicts_least_recent(self, warm):
        store = SnapshotStore()
        keys = [f"k{i}" for i in range(STORE_CAPACITY)]
        for key in keys:
            store.put(key, warm)
        assert store.get(keys[0]) is warm  # refreshes the oldest key
        store.put("extra", warm)  # evicts keys[1], now least recent
        assert store.get(keys[1]) is None
        assert store.get(keys[0]) is warm
        assert store.get("extra") is warm
        assert all(store.get(key) is warm for key in keys[2:])

    def test_stats_count_hits_misses_stores(self, warm):
        store = SnapshotStore()
        assert store.get("k") is None
        store.put("k", warm)
        assert store.get("k") is warm
        assert store.stats.misses == 1
        assert store.stats.hits == 1


class TestSpill:
    def test_spill_survives_the_store(self, warm, tmp_path):
        SnapshotStore(spill_dir=tmp_path).put("key", warm)
        fresh = SnapshotStore(spill_dir=tmp_path)
        loaded = fresh.get("key")
        assert isinstance(loaded, WarmState)
        assert loaded.device.columns == warm.device.columns
        assert loaded.map_forward == warm.map_forward
        assert fresh.stats.hits == 1

    def test_unconfigured_store_never_touches_disk(self, warm, tmp_path):
        store = SnapshotStore()
        store.put("key", warm)
        assert list(tmp_path.iterdir()) == []

    def test_disk_hit_promotes_into_memory(self, warm, tmp_path):
        SnapshotStore(spill_dir=tmp_path).put("key", warm)
        fresh = SnapshotStore(spill_dir=tmp_path)
        first = fresh.get("key")
        fresh._spill_path("key").unlink()
        assert fresh.get("key") is first  # now served from memory


class TestSpillHardening:
    """Any bad spill file must mean cold preload, never a crash."""

    def _spilled(self, warm, tmp_path) -> SnapshotStore:
        SnapshotStore(spill_dir=tmp_path).put("key", warm)
        return SnapshotStore(spill_dir=tmp_path)

    def test_truncated_payload_falls_back(self, warm, tmp_path):
        store = self._spilled(warm, tmp_path)
        path = store._spill_path("key")
        path.write_bytes(path.read_bytes()[:-64])
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_truncated_header_falls_back(self, warm, tmp_path):
        store = self._spilled(warm, tmp_path)
        store._spill_path("key").write_bytes(b"IDA")
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_bad_magic_falls_back(self, warm, tmp_path):
        store = self._spilled(warm, tmp_path)
        path = store._spill_path("key")
        path.write_bytes(b"NOTASNAP" + path.read_bytes()[8:])
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_flipped_payload_bit_falls_back(self, warm, tmp_path):
        store = self._spilled(warm, tmp_path)
        path = store._spill_path("key")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_stale_schema_falls_back(self, warm, tmp_path):
        stale = dataclasses.replace(warm, schema=SNAPSHOT_SCHEMA + 1)
        store = self._spilled(stale, tmp_path)
        store._entries.clear()  # force the disk path
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_schema_2_layout_falls_back(self, warm, tmp_path):
        """A schema-2 state still carries the RAM ``grown_bad`` and
        ``journal`` fields; it loads as a stale schema, not a crash."""
        legacy = object.__new__(WarmState)
        fields = {f.name: getattr(warm, f.name) for f in dataclasses.fields(warm)}
        legacy.__dict__.update(
            fields,
            schema=2,
            grown_bad=(),
            journal=(),
        )
        store = self._spilled(legacy, tmp_path)
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_schema_3_layout_falls_back(self, warm, tmp_path):
        """A schema-3 device snapshot still carries the ``wl_read_count``
        column; it loads as a stale schema, not a failed restore."""
        device = warm.device
        columns = dict(device.columns)
        columns["wl_read_count"] = bytes(8 * len(columns["wl_mode"]))
        legacy = dataclasses.replace(
            warm,
            schema=3,
            device=DeviceStateSnapshot(
                device.num_blocks,
                device.pages_per_block,
                device.bits_per_cell,
                columns,
            ),
        )
        store = self._spilled(legacy, tmp_path)
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_schema_4_layout_falls_back(self, warm, tmp_path):
        """A schema-4 state still carries the pools' ``used`` / ``retired``
        sets and the fields the warm-up never changes; it loads as a
        stale schema, not a failed restore."""
        planes = []
        for plane in warm.planes:
            legacy_plane = object.__new__(PlaneSnapshot)
            legacy_plane.__dict__.update(
                dataclasses.asdict(plane), used=(), retired=()
            )
            planes.append(legacy_plane)
        legacy = object.__new__(WarmState)
        fields = {f.name: getattr(warm, f.name) for f in dataclasses.fields(warm)}
        legacy.__dict__.update(
            fields,
            schema=4,
            planes=tuple(planes),
            alloc_order=(),
            refresh_reports=(),
            retry_pressure=(),
            ftl_rng_state={},
            host_retry_rng_state={},
        )
        store = self._spilled(legacy, tmp_path)
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_non_warmstate_payload_falls_back(self, warm, tmp_path):
        import hashlib

        store = SnapshotStore(spill_dir=tmp_path)
        payload = pickle.dumps({"not": "a warm state"})
        tmp_path.mkdir(exist_ok=True)
        store._spill_path("key").write_bytes(
            b"IDASNAP1" + hashlib.sha256(payload).digest() + payload
        )
        assert store.get("key") is None
        assert store.stats.fallbacks == 1

    def test_missing_file_is_a_plain_miss_not_a_fallback(self, tmp_path):
        store = SnapshotStore(spill_dir=tmp_path)
        assert store.get("nothing") is None
        assert store.stats.fallbacks == 0
        assert store.stats.misses == 1


class TestWarmHandle:
    def test_cache_handle_miss_then_hit(self, warm):
        store = SnapshotStore()
        handle = WarmHandle(store=store, key="k")
        assert handle.fetch() is None
        assert handle.outcome == "miss"
        handle.publish(warm)
        again = WarmHandle(store=store, key="k")
        assert again.fetch() is warm
        assert again.outcome == "hit"

    def test_detached_handle_is_a_miss_and_publish_is_a_noop(self, warm):
        handle = WarmHandle()
        assert handle.fetch() is None
        handle.publish(warm)  # nowhere to go; must not raise

