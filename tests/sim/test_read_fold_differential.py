"""Differential test: request-level ECC completion against per-page ECC.

A bare simulator *folds* a host read request whose pages all drew the
same retry count: its pages run only their sense and transfer stages,
and the last transfer posts the one ECC event that completes the
request.  A simulator carrying a :class:`~repro.obs.profiler.SimProfiler`
observes every page, so it keeps each page's own ECC stage; the profiler
is passive, so it is the oracle.  Twin simulators, one of each, run the
same seeded scenario:

* multi-page reads on a one-die device, where the pages queue behind
  each other;
* two-page reads across channels on an idle device, whose transfers end
  at the same instant;
* a :class:`~repro.flash.errors.ReadRetryModel` with ``fail_prob > 0``,
  where requests with mixed retry counts take the per-page path;
* closed-loop issue at queue depth 8;
* the ``usr_1`` cell at ``RunScale.quick()`` (IDA-E20), with its refresh
  chains.

Every host request's completion instant and the order of completions
(logged through ``on_host_request_complete``), ``metrics_summary``, the
queue waits and the utilisation must match exactly.  The spy sits on the
request's :class:`~repro.sim.scheduler.RequestCompletion`: a folded page
ends in ``transferred``, any other in ``page_done``.  The bare run fires
exactly one event fewer per folded non-final page; where internal chains
run, a folded request's missing decode events can also let a quiet run
serve more ops in one loop, so there it fires at least that many fewer.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import conventional_tlc
from repro.experiments.config import RunScale
from repro.experiments.reporting import metrics_summary
from repro.experiments.runner import run_workload
from repro.experiments.systems import ida
from repro.flash.errors import ReadRetryModel
from repro.flash.geometry import Geometry
from repro.flash.timing import TimingSpec
from repro.ftl.refresh import RefreshMode, RefreshPolicy
from repro.obs import Telemetry
from repro.obs.profiler import SimProfiler
from repro.sim.scheduler import HostRequest, RequestCompletion
from repro.sim.ssd import SsdSimulator
from repro.workloads import workload

PAGE = 8192
LPNS = 48


def _geometry(channels: int, dies: int) -> Geometry:
    return Geometry(
        channels=channels,
        chips_per_channel=1,
        dies_per_chip=dies,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=12,
    )


class _Log:
    """What one run did that the comparison and coverage checks read."""

    def __init__(self) -> None:
        #: ``(request_id, is_read, now)`` per completed host request.
        self.completions: list[tuple] = []
        #: Request ids of folded requests, and their page counts.
        self.folded: dict[int, int] = {}
        #: Retry counts drawn per read request, in dispatch order, and
        #: the sense counts of the pages they were drawn for.
        self.draws: list[list[int]] = []
        self.senses: list[list[int]] = []
        #: ``(request_id, now)`` of every completion-counter tick.
        self.ticks: list[tuple[int, float]] = []

    @property
    def folded_non_final(self) -> int:
        return sum(pages - 1 for pages in self.folded.values())


@pytest.fixture
def spy(monkeypatch):
    """Install logging wrappers; returns a factory of fresh logs."""
    logs: list[_Log] = []
    draw_retries = SsdSimulator._draw_retries
    page_done = RequestCompletion.page_done
    transferred = RequestCompletion.transferred
    init = SsdSimulator.__init__

    def current() -> _Log:
        return logs[-1]

    def logged_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        log = current()

        def complete(req, is_read):
            log.completions.append((req.request_id, is_read, sim.engine.now))

        sim.on_host_request_complete = complete
        log.sim = sim

    def logged_draws(sim, ops):
        drawn = draw_retries(sim, ops)
        current().draws.append(list(drawn))
        current().senses.append([op.senses for op in ops])
        return drawn

    def logged_page_done(completion, start_us, end_us):
        current().ticks.append((completion.request.request_id, end_us))
        page_done(completion, start_us, end_us)

    def logged_transferred(completion, start_us, end_us):
        request = completion.request
        current().folded[request.request_id] = len(request.lpns)
        current().ticks.append((request.request_id, end_us))
        transferred(completion, start_us, end_us)

    monkeypatch.setattr(SsdSimulator, "__init__", logged_init)
    monkeypatch.setattr(SsdSimulator, "_draw_retries", logged_draws)
    monkeypatch.setattr(RequestCompletion, "page_done", logged_page_done)
    monkeypatch.setattr(RequestCompletion, "transferred", logged_transferred)

    def fresh() -> _Log:
        logs.append(_Log())
        return logs[-1]

    return fresh


def _requests(rng: random.Random, count: int, pages: tuple[int, int]) -> list:
    requests = []
    t = 0.0
    for rid in range(count):
        t += rng.uniform(0.0, 300.0)
        is_read = rng.random() < 0.85
        lpns = tuple(rng.sample(range(LPNS), rng.randint(*pages)))
        requests.append(HostRequest(rid, t, is_read, lpns, len(lpns) * PAGE))
    return requests


def _simulate(
    fresh,
    profiled: bool,
    geometry: Geometry,
    requests: list,
    seed: int,
    retry: ReadRetryModel | None = None,
    queue_depth: int | None = None,
) -> tuple[_Log, dict]:
    log = fresh()
    sim = SsdSimulator(
        geometry=geometry,
        timing=TimingSpec.tlc_table2(),
        coding=conventional_tlc(),
        refresh_policy=RefreshPolicy(mode=RefreshMode.IDA, period_us=1e9),
        retry_model=retry,
        seed=seed,
        telemetry=Telemetry(profiler=SimProfiler() if profiled else None),
    )
    sim.preload(range(LPNS), -4000.0, -3000.0)
    sim.age(random.Random(seed).sample(range(LPNS), 16), -2500.0)
    if queue_depth is None:
        metrics = sim.run_requests(requests)
    else:
        metrics = sim.run_closed_loop(requests, queue_depth=queue_depth)
    return log, {
        "completions": log.completions,
        "metrics": metrics_summary(metrics),
        "waits": sim.queue_wait_report(),
        "utilisation": sim.utilisation_report(),
        "ops": sim.ops_dispatched,
        "processed": sim.engine.processed,
    }


def _assert_twins(bare: tuple[_Log, dict], oracle: tuple[_Log, dict], exact=True):
    (log, run), (oracle_log, expected) = bare, oracle
    assert not oracle_log.folded
    assert log.draws == oracle_log.draws
    for key in ("completions", "metrics", "waits", "utilisation", "ops"):
        assert run[key] == expected[key], key
    assert len(run["completions"]) > 0
    missing = expected["processed"] - run["processed"]
    if exact:
        assert missing == log.folded_non_final
    else:
        assert missing >= log.folded_non_final
    return log


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_page_reads_on_one_die(spy, seed):
    rng = random.Random(seed)
    requests = _requests(rng, 60, (1, 6))
    args = (_geometry(channels=1, dies=1), requests, seed)
    log = _assert_twins(_simulate(spy, False, *args), _simulate(spy, True, *args))
    assert log.folded_non_final > 30


@pytest.mark.parametrize("seed", SEEDS)
def test_transfers_ending_at_one_instant(spy, seed):
    # Arrivals 2 ms apart find the device idle: the two pages of a read
    # sense on their own dies at once, and when they have the same page
    # type their transfers on the two channels end at the same instant.
    rng = random.Random(seed)
    geometry = _geometry(channels=2, dies=1)
    requests = []
    for rid in range(40):
        lsb = rng.randrange(LPNS // 2) * 2
        lpns = (lsb, lsb + 1) if rid % 2 else tuple(rng.sample(range(LPNS), 2))
        requests.append(HostRequest(rid, rid * 2000.0, True, lpns, 2 * PAGE))
    args = (geometry, requests, seed)
    log = _assert_twins(_simulate(spy, False, *args), _simulate(spy, True, *args))
    ends: dict[int, list[float]] = {}
    for rid, now in log.ticks:
        if rid in log.folded:
            ends.setdefault(rid, []).append(now)
    assert sum(len(set(t)) < len(t) for t in ends.values()) >= 5


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_retries_take_the_per_page_path(spy, seed):
    rng = random.Random(seed)
    requests = _requests(rng, 60, (1, 4))
    retry = ReadRetryModel(fail_prob=0.5)
    args = (_geometry(channels=2, dies=2), requests, seed, retry)
    log = _assert_twins(_simulate(spy, False, *args), _simulate(spy, True, *args))
    # Pages draw in page order on the simulator's host-retry stream
    # (``seed + 101``), one ``sample_retries`` call each.
    rng = np.random.default_rng(seed + 101)
    assert log.draws == [
        [retry.sample_retries(rng, senses=senses) for senses in request]
        for request in log.senses
    ]
    mixed = [d for d in log.draws if len(set(d)) > 1]
    retried_folds = [d for d in log.draws if len(set(d)) == 1 and d[0]]
    assert mixed and retried_folds
    assert len(log.folded) == len(log.draws) - len(mixed)


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_loop_at_qd8(spy, seed):
    rng = random.Random(seed)
    requests = _requests(rng, 80, (1, 5))
    args = (_geometry(channels=2, dies=2), requests, seed)
    kwargs = {"queue_depth": 8}
    log = _assert_twins(
        _simulate(spy, False, *args, **kwargs), _simulate(spy, True, *args, **kwargs)
    )
    assert log.folded_non_final > 30


def test_usr_1_quick_cell(spy):
    runs = []
    for profiled in (False, True):
        log = spy()
        telemetry = Telemetry(profiler=SimProfiler(keep_events=False)) if profiled else None
        result = run_workload(
            ida(0.2), workload("usr_1"), RunScale.quick(), seed=11, telemetry=telemetry
        )
        runs.append(
            (
                log,
                {
                    "completions": log.completions,
                    "metrics": metrics_summary(result.metrics),
                    "waits": result.queue_wait,
                    "utilisation": result.utilisation,
                    "ops": result.metrics.phys_ops_dispatched,
                    "processed": log.sim.engine.processed,
                },
            )
        )
    log = _assert_twins(*runs, exact=False)
    assert log.folded_non_final > 100
