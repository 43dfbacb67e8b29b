"""Tests for the SSD simulator (repro.sim.ssd)."""

from __future__ import annotations

import pytest

from repro.core import conventional_tlc
from repro.flash.errors import ReadRetryModel
from repro.flash.geometry import Geometry
from repro.flash.timing import TimingSpec
from repro.ftl.ops import OpKind
from repro.ftl.refresh import RefreshMode, RefreshPolicy
from repro.sim.scheduler import HostRequest
from repro.sim.ssd import SsdSimulator


def _geometry():
    return Geometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=12,
    )


def _simulator(refresh_mode=RefreshMode.BASELINE, retry=None, period_us=1e9):
    return SsdSimulator(
        geometry=_geometry(),
        timing=TimingSpec.tlc_table2(),
        coding=conventional_tlc(),
        refresh_policy=RefreshPolicy(mode=refresh_mode, period_us=period_us),
        retry_model=retry,
        seed=5,
    )


def _read(request_id, time, lpns, page_bytes=8192):
    return HostRequest(request_id, time, True, tuple(lpns), len(lpns) * page_bytes)


def _write(request_id, time, lpns, page_bytes=8192):
    return HostRequest(request_id, time, False, tuple(lpns), len(lpns) * page_bytes)


class TestSingleOpLatencies:
    def test_lsb_read_latency_is_exact(self):
        # LSB read on an idle device: 50 (sense) + 48 (transfer) +
        # 20 (ECC) + 5 (host) = 123 us.
        sim = _simulator()
        sim.preload([0, 1], -100.0, 0.0)
        metrics = sim.run_requests([_read(0, 0.0, [0])])
        assert metrics.read_response.mean_us == pytest.approx(123.0)

    def test_csb_and_msb_latencies(self):
        # With 2 planes, lpns 0-1 are LSB pages, 2-3 CSB, 4-5 MSB.
        sim = _simulator()
        sim.preload(range(6), -100.0, 0.0)
        metrics = sim.run_requests(
            [_read(0, 0.0, [2]), _read(1, 10_000.0, [4])]
        )
        latencies = sorted(
            (metrics.read_response.percentile(50), metrics.read_response.max_us)
        )
        assert latencies[0] == pytest.approx(173.0)  # CSB: 100+48+20+5
        assert latencies[1] == pytest.approx(223.0)  # MSB: 150+48+20+5

    def test_write_latency_is_exact(self):
        # Write: 48 (transfer) + 2300 (program) + 5 (host) = 2353 us.
        sim = _simulator()
        metrics = sim.run_requests([_write(0, 0.0, [0])])
        assert metrics.write_response.mean_us == pytest.approx(2353.0)

    def test_parallel_pages_across_planes_overlap(self):
        # Two LSB pages on different dies complete together.
        sim = _simulator()
        sim.preload([0, 1], -100.0, 0.0)
        metrics = sim.run_requests([_read(0, 0.0, [0, 1])])
        assert metrics.read_response.mean_us == pytest.approx(123.0)

    def test_same_die_pages_serialise_on_the_die(self):
        # lpns 0 and 2 share plane/die 0: second sense waits for first.
        sim = _simulator()
        sim.preload(range(4), -100.0, 0.0)
        metrics = sim.run_requests([_read(0, 0.0, [0, 2])])
        # die: 50 then 100 -> CSB transfer ends at 150+48, +20 +5 = 223.
        assert metrics.read_response.mean_us == pytest.approx(223.0)


class TestReadRetry:
    def test_retries_inflate_latency(self):
        # Read MSB pages (4 senses = the reference count, so the failure
        # probability is the configured 0.9) many times.
        requests = [_read(i, i * 10_000.0, [4]) for i in range(20)]
        slow = _simulator(retry=ReadRetryModel(fail_prob=0.9, max_retries=3))
        slow.preload(range(6), -100.0, 0.0)
        m_slow = slow.run_requests(list(requests))

        fast = _simulator(retry=ReadRetryModel(fail_prob=0.0))
        fast.preload(range(6), -100.0, 0.0)
        m_fast = fast.run_requests(list(requests))

        assert m_slow.read_response.mean_us > m_fast.read_response.mean_us
        assert m_slow.read_retries > 0
        assert m_fast.read_retries == 0

    def test_fewer_senses_retry_less_often(self):
        # The per-sense failure model: a 1-sense (LSB / IDA) page fails
        # its decode far less often than the 4-sense reference page.
        import numpy as np

        model = ReadRetryModel(fail_prob=0.6)
        assert model.page_fail_prob(1) < model.page_fail_prob(2)
        assert model.page_fail_prob(2) < model.page_fail_prob(4)
        assert model.page_fail_prob(4) == pytest.approx(0.6)
        rng = np.random.default_rng(0)
        lsb = sum(model.sample_retries(rng, senses=1) for _ in range(3000))
        rng = np.random.default_rng(0)
        msb = sum(model.sample_retries(rng, senses=4) for _ in range(3000))
        assert lsb < msb


class TestCompiledPlans:
    def test_fixed_plans_route_to_the_planes_die_and_channel(self):
        sim = _simulator()
        geometry = sim.geometry
        for plane in range(geometry.total_planes):
            die = sim.dies[geometry.die_of_plane(plane)]
            channel = sim.channels[geometry.channel_of_plane(plane)]
            plans = sim._fixed_plans[plane]
            assert [s.resource for s in plans[OpKind.WRITE]] == [channel, die]
            assert [s.resource for s in plans[OpKind.ADJUST]] == [die]
            assert [s.resource for s in plans[OpKind.ERASE]] == [die]

    def test_read_plan_compiled_once_per_shape(self):
        sim = _simulator()
        sim.preload(range(6), -100.0, 0.0)
        sim.run_requests([_read(0, 0.0, [0]), _read(1, 10_000.0, [0])])
        # Both reads hit the same page shape on one plane: one plan.
        ((plane, senses, retries), stages), = sim._read_plans.items()
        die = sim.dies[sim.geometry.die_of_plane(plane)]
        assert retries == 0
        assert [s.name for s in stages] == ["sense", "transfer", "ecc"]
        assert stages[0].resource is die
        assert stages[0].duration_us == sim.timing.read_us(senses)


class TestAccounting:
    def test_bytes_counted(self):
        sim = _simulator()
        sim.preload(range(4), -100.0, 0.0)
        metrics = sim.run_requests(
            [_read(0, 0.0, [0, 1]), _write(1, 100.0, [2])]
        )
        assert metrics.bytes_read == 2 * 8192
        assert metrics.bytes_written == 8192

    def test_read_mix_recorded(self):
        sim = _simulator()
        sim.preload(range(6), -100.0, 0.0)
        metrics = sim.run_requests([_read(0, 0.0, [0, 2, 4])])
        assert metrics.read_mix.total == 3
        assert metrics.read_mix.by_type == {0: 1, 1: 1, 2: 1}

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            _simulator().run_requests([])


class TestRefreshDaemonTiming:
    def test_refresh_runs_during_trace(self):
        sim = _simulator(RefreshMode.IDA, period_us=1000.0)
        # Fill one full block per plane, aged past the refresh period.
        sim.preload(range(24), -2000.0, -1500.0)
        requests = [_read(i, i * 500.0, [i % 24]) for i in range(20)]
        metrics = sim.run_requests(requests)
        assert metrics.refresh_invocations > 0
        assert metrics.refresh_adjusted_wordlines > 0

    def test_refresh_ops_occupy_resources(self):
        sim = _simulator(RefreshMode.BASELINE, period_us=1000.0)
        sim.preload(range(24), -2000.0, -1500.0)
        busy_before = sum(d.busy_us for d in sim.dies)
        requests = [_read(0, 0.0, [0]), _read(1, 50_000.0, [1])]
        sim.run_requests(requests)
        busy_after = sum(d.busy_us for d in sim.dies)
        # Refresh moved ~24 pages through reads+writes: serious die time.
        assert busy_after - busy_before > 24 * 2300 * 0.5


class TestClosedLoop:
    def test_closed_loop_completes_all(self):
        sim = _simulator()
        sim.preload(range(12), -100.0, 0.0)
        requests = [_read(i, 0.0, [i % 12]) for i in range(40)]
        metrics = sim.run_closed_loop(requests, queue_depth=4)
        assert metrics.read_response.count == 40
        assert metrics.throughput_mb_s() > 0

    def test_closed_loop_rejects_bad_depth(self):
        sim = _simulator()
        with pytest.raises(ValueError):
            sim.run_closed_loop([_read(0, 0.0, [0])], queue_depth=0)

    def test_deeper_queue_is_not_slower(self):
        def tput(depth):
            sim = _simulator()
            sim.preload(range(12), -100.0, 0.0)
            requests = [_read(i, 0.0, [i % 12]) for i in range(60)]
            return sim.run_closed_loop(requests, queue_depth=depth).throughput_mb_s()

        assert tput(8) >= tput(1) * 0.99


class TestUtilisationReport:
    def test_idle_device(self):
        sim = _simulator()
        assert sim.utilisation_report() == {"die": 0.0, "channel": 0.0}

    def test_after_reads(self):
        sim = _simulator()
        sim.preload(range(4), -100.0, 0.0)
        sim.run_requests([_read(0, 0.0, [0]), _read(1, 1000.0, [1])])
        report = sim.utilisation_report()
        assert 0.0 < report["die"] <= 1.0
        assert 0.0 < report["channel"] <= 1.0
        # Senses (50us) outweigh transfers (48us) per read on this load.
        assert report["die"] >= report["channel"] * 0.9


class TestQueueWaitReport:
    def test_shape(self):
        report = _simulator().queue_wait_report()
        assert set(report) == {"die", "channel"}
        for stats in report.values():
            assert set(stats) == {"host_read", "host_write", "internal"}
            for entry in stats.values():
                assert entry["ops"] == 0
                assert entry["mean_wait_us"] == 0.0

    def test_contended_reads_show_die_wait(self):
        sim = _simulator()
        sim.preload(range(4), -100.0, 0.0)
        # lpns 0 and 2 share a die: the second sense queues behind the first.
        sim.run_requests([_read(0, 0.0, [0, 2])])
        reads = sim.queue_wait_report()["die"]["host_read"]
        assert reads["ops"] == 2
        assert reads["total_wait_us"] == pytest.approx(50.0)  # one LSB sense


class TestTracedRuns:
    def test_traced_run_leaves_complete_spans(self):
        from repro.obs import MemorySink, Tracer

        sink = MemorySink()
        sim = SsdSimulator(
            geometry=_geometry(),
            timing=TimingSpec.tlc_table2(),
            coding=conventional_tlc(),
            refresh_policy=RefreshPolicy(mode=RefreshMode.BASELINE, period_us=1e9),
            seed=5,
            tracer=Tracer(sink),
        )
        sim.preload(range(4), -100.0, 0.0)
        sim.run_requests([_read(0, 0.0, [0]), _write(1, 1000.0, [1])])
        spans = sink.by_kind("read_span")
        assert len(spans) == 1
        critical = spans[0]["critical"]
        # Idle LSB read: no wait, 50 sense, 48 transfer, 20 ECC, 5 host.
        assert critical["queue_wait_us"] == pytest.approx(0.0)
        assert critical["sense_us"] == pytest.approx(50.0)
        assert critical["transfer_us"] == pytest.approx(48.0)
        assert critical["ecc_us"] == pytest.approx(20.0)
        assert spans[0]["response_us"] == pytest.approx(123.0)
        writes = sink.by_kind("write_span")
        assert len(writes) == 1
        assert writes[0]["critical"]["program_us"] == pytest.approx(2300.0)


class TestScheduler:
    def test_host_request_validation(self):
        with pytest.raises(ValueError):
            HostRequest(0, 0.0, True, (), 100)
        with pytest.raises(ValueError):
            HostRequest(0, 0.0, True, (1,), 0)

    def test_outstanding_completion_fires_once(self):
        from repro.sim.scheduler import OutstandingRequest

        fired = []
        req = _read(0, 0.0, [1, 2])
        tracker = OutstandingRequest(req, 2, lambda r, t: fired.append(t))
        tracker.page_done(10.0)
        assert fired == []
        tracker.page_done(20.0)
        assert fired == [20.0]
        with pytest.raises(RuntimeError):
            tracker.page_done(30.0)
