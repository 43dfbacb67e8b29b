"""Differential test: internal chains with quiet runs against the per-op chain.

An internal chain (a GC or refresh pass) is an
:class:`~repro.sim.pipeline.OpPipeline` re-armed for each of its ops,
and at a safe point it serves every next op that ends before the
engine's next pending event at once (a *quiet run*, served as arrays).
``_chain_oracle.py`` keeps the per-op design, where each op took the
simulator's op dispatch, a fresh pipeline and its own events.  Twin
simulators, one of each, run the same seeded scenario on a tiny
geometry:

* real IDA refresh passes (reads, re-programs, ADJUSTs, erases) and GC
  from host writes, plus scripted chains of random read / write /
  adjust / erase ops, several of them on one die at once;
* a callback that issues a chain and then a host read on the chain's
  die at the same instant (a chain's first op must take the per-op
  path);
* a chain whose erase ends on a die with a host read queued behind it,
  followed by reads on the other die of that channel (the finishing
  resource starts the queued read after the chain's callback returns);
* the read-first and fcfs queue mappings;
* the sim-time profiler on or off;
* a :class:`~repro.faults.FaultPlan` of program failures and adjust
  interrupts, or none (a bound plan keeps runs from starting).

Internal completions are logged from ``_InternalChain._complete`` (the
per-op path) and ``_InternalChain._complete_run`` (a quiet run, which
hands over its ops' instants).  A run commits its adjusts in one
``Ftl.commit_adjusts`` batch; the log places each batched commit just
before its own op's completion, after checking that the batch holds
exactly the run's ADJUST ops in order.  Everything observable must
match exactly — each internal op's ``(start, end)``, each
host request's arrival and completion and their interleaving with the
internal completions and ``commit_adjust`` calls, ``ops_dispatched``,
the resources' busy, queue-wait and wait-class accounting, the profiler
payload and the fault record — with three stated exceptions:

* ``processed`` is below the oracle's where a run served ops (a run
  posts one event, not two or three per op) and equal where none did;
* ``peak_pending`` is at most the oracle's;
* a run commits an adjust when it plans it, so a commit's clock stamp
  may precede the op's end; the order and ``(block, wordline)`` of the
  commits stay exact.
"""

from __future__ import annotations

import random

import pytest

from repro.core import conventional_tlc
from repro.experiments import runner
from repro.experiments.config import RunScale
from repro.experiments.reporting import metrics_summary
from repro.experiments.systems import baseline, ida
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.flash.geometry import Geometry
from repro.flash.timing import TimingSpec
from repro.ftl.ops import OpKind, PhysOp
from repro.ftl.refresh import RefreshMode, RefreshPolicy
from repro.obs import Telemetry
from repro.obs.profiler import SimProfiler
from repro.sim import ssd
from repro.sim.scheduler import HostRequest
from repro.sim.ssd import SsdSimulator
from repro.workloads import workload
from tests.sim._chain_oracle import OracleSimulator

PAGE = 8192
SEEDS = range(24)
LPNS = 64
GEOMETRY = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=1,
    blocks_per_plane=8,
    pages_per_block=12,
)
#: Host request ids of the reads the scenario hooks submit.
HOOK_RIDS = 1000


def _scenario(seed: int) -> dict:
    """Seeded inputs; the switches cycle so every combination occurs."""
    rng = random.Random(seed)
    fcfs = seed % 2 == 1
    profiled = seed % 3 == 0
    faulted = seed % 4 >= 2
    requests = []
    t = 0.0
    for rid in range(60):
        t += rng.uniform(0.0, 400.0)
        is_read = rng.random() < 0.8
        lpns = tuple(rng.sample(range(LPNS), rng.randint(1, 2)))
        requests.append(HostRequest(rid, t, is_read, lpns, len(lpns) * PAGE))
    # Scripted chains.  Under a fault plan they hold only reads and
    # erases, so every program failure and adjust interrupt lands on an
    # op the FTL planned and can recover.
    kinds = (OpKind.READ, OpKind.ERASE) if faulted else tuple(OpKind)
    chains = []
    for _ in range(rng.randint(4, 8)):
        ops = []
        for _ in range(rng.randint(3, 8)):
            kind = rng.choice(kinds)
            block = rng.randrange(GEOMETRY.total_blocks)
            if kind is OpKind.READ:
                ops.append(PhysOp(kind, block, rng.randrange(12), rng.randint(1, 3)))
            elif kind is OpKind.WRITE:
                ops.append(PhysOp(kind, block, rng.randrange(12)))
            else:
                ops.append(PhysOp(kind, block))
        chains.append((rng.uniform(0.0, t), ops))
    # One hook of each kind among the arrivals, and one after the
    # refresh passes the trace leaves behind have drained (they run for
    # about 0.5 s), where a run could start on an idle device.
    hooks = [
        (rng.uniform(0.0, t) + after, kind, rng.randrange(LPNS))
        for kind in ("issue_then_host", "queued_host")
        for after in (0.0, 1e6)
    ]
    plan = None
    if faulted:
        plan = FaultPlan(
            events=(
                FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=rng.randint(1, 6)),
                FaultEvent(kind=FaultKind.ADJUST_INTERRUPT, op_ordinal=rng.randint(1, 3)),
                FaultEvent(kind=FaultKind.ADJUST_INTERRUPT, op_ordinal=rng.randint(4, 8)),
            )
        )
    return {
        "policy": "fcfs" if fcfs else "read-first",
        "profiled": profiled,
        "plan": plan,
        "requests": requests,
        "chains": chains,
        "hooks": hooks,
        "aged": rng.sample(range(LPNS), 24),
    }


def _block_of(sim, lpn: int) -> int:
    return sim.ftl.map.lookup(lpn) // GEOMETRY.pages_per_block


def _neighbour_block(block: int) -> int:
    """A block on the other die of ``block``'s channel."""
    per_die = GEOMETRY.blocks_per_plane * GEOMETRY.planes_per_die
    die = block // per_die
    return (die ^ 1) * per_die + block % per_die


def _install_hook(sim, at_us: float, kind: str, lpn: int, rid: int) -> None:
    def host_read() -> None:
        now = sim.engine.now
        sim.dispatch_read(HostRequest(rid, now, True, (lpn,), PAGE))

    def fire() -> None:
        block = _block_of(sim, lpn)
        if kind == "issue_then_host":
            # Issue a chain, then a host read on the chain's die at the
            # same instant: the chain's first op must already hold the die.
            sim.issue_internal_sequence(
                [PhysOp(OpKind.READ, block, 0, 2), PhysOp(OpKind.ERASE, block)]
            )
            host_read()
        else:
            # A 3 ms erase with a host read queued behind it, then reads
            # on the other die of the channel, which could run quietly
            # if the queued read were overlooked.
            other = _neighbour_block(block)
            sim.issue_internal_sequence(
                [PhysOp(OpKind.ERASE, block)]
                + [PhysOp(OpKind.READ, other, page, 1) for page in range(6)]
            )
            sim.engine.at(sim.engine.now + 100.0, host_read)

    sim.engine.at(at_us, fire)


def _simulate(seed: int, simulator_cls, install_log, extra_read_at=None) -> dict:
    scenario = _scenario(seed)
    profiler = SimProfiler() if scenario["profiled"] else None
    sim = simulator_cls(
        geometry=GEOMETRY,
        timing=TimingSpec.tlc_table2(),
        coding=conventional_tlc(),
        refresh_policy=RefreshPolicy(mode=RefreshMode.IDA, period_us=2000.0),
        seed=seed,
        policy=scenario["policy"],
        faults=scenario["plan"],
        telemetry=Telemetry(profiler=profiler),
    )
    sim.preload(range(LPNS), -4000.0, -3000.0)
    sim.age(scenario["aged"], -2500.0)
    #: Every logged happening in call order; internal completions carry
    #: their own ``(start, end)``, host ones the clock.
    order: list = []
    commits: list = []
    commit_adjust = sim.ftl.commit_adjust

    def logged_commit(block_index, wordline):
        order.append(("commit", block_index, wordline))
        commits.append((block_index, wordline, sim.engine.now))
        commit_adjust(block_index, wordline)

    sim.ftl.commit_adjust = logged_commit
    #: ``(block, wordline)`` of a run's batched commits not yet logged.
    batched: list = []
    commit_adjusts = sim.ftl.commit_adjusts

    def logged_commits(blocks, wordlines):
        for block, wordline in zip(blocks.tolist(), wordlines.tolist()):
            wordline = None if wordline < 0 else wordline
            batched.append((block, wordline))
            commits.append((block, wordline, sim.engine.now))
        commit_adjusts(blocks, wordlines)

    sim.ftl.commit_adjusts = logged_commits
    for name in ("dispatch_read", "dispatch_write"):
        dispatch = getattr(sim, name)

        def logged_dispatch(request, on_request_done=None, dispatch=dispatch):
            order.append(("arrive", request.request_id, sim.engine.now))
            dispatch(request, on_request_done)

        setattr(sim, name, logged_dispatch)
    host: list = []

    def host_done(req, is_read):
        host.append((req.request_id, is_read, sim.engine.now))
        order.append(("host", req.request_id, sim.engine.now))

    sim.on_host_request_complete = host_done
    internal: list = []
    #: End times of the ops a quiet run served (the clock had not
    #: reached their end when they completed).
    quiet: list = []
    queued_host_at_end = 0

    def record(op, start_us, end_us):
        nonlocal queued_host_at_end
        if batched and op.kind is OpKind.ADJUST:
            assert batched.pop(0) == (op.block_index, op.wordline)
            order.append(("commit", op.block_index, op.wordline))
        internal.append((op, start_us, end_us))
        order.append(("internal", op, start_us, end_us))
        die = sim._plane_resources[op.block_index // GEOMETRY.blocks_per_plane][0]
        if sim.engine.now < end_us:
            quiet.append(end_us)
        elif die._queues[0]:
            queued_host_at_end += 1

    install_log(sim, record)
    for at_us, ops in scenario["chains"]:
        sim.engine.at(at_us, lambda ops=ops: sim.issue_internal_sequence(ops))
    for i, (at_us, kind, lpn) in enumerate(scenario["hooks"]):
        _install_hook(sim, at_us, kind, lpn, HOOK_RIDS + i)
    if extra_read_at is not None:
        # Scheduled up front (not streamed, which could move the refresh
        # daemon's last tick), so it is pending when any run is planned.
        sim.engine.at(
            extra_read_at,
            lambda: sim.dispatch_read(
                HostRequest(HOOK_RIDS - 1, extra_read_at, True, (0,), PAGE)
            ),
        )
    sim.run_requests(scenario["requests"])
    assert not batched
    resources = sim.dies + sim.channels
    return {
        "sim": sim,
        "quiet": quiet,
        "queued_host_at_end": queued_host_at_end,
        "internal": internal,
        "host": host,
        "order": order,
        "commits": commits,
        "ops_dispatched": sim.ops_dispatched,
        "processed": sim.engine.processed,
        "peak_pending": sim.engine.peak_pending,
        "now": sim.engine.now,
        "busy": [(r.busy_us, list(r.busy_us_by_class)) for r in resources],
        "waits": [r.queue_wait_stats() for r in resources],
        "wait_classes": [r.wait_class_breakdown() for r in resources],
        "profile": (
            None
            if profiler is None
            else (profiler.aggregate(), profiler.to_chrome_trace())
        ),
        "faults": sim.fault_summary(),
    }


def _run_chain(
    seed: int, monkeypatch, extra_read_at=None, simulator_cls=SsdSimulator
) -> dict:
    def install_log(sim, record):
        complete = ssd._InternalChain._complete
        complete_run = ssd._InternalChain._complete_run

        def logged(chain, index, start_us, end_us):
            complete(chain, index, start_us, end_us)
            record(chain.table.op(index), start_us, end_us)

        def logged_run(chain, lo, times):
            complete_run(chain, lo, times)
            start = sim.engine.now  # a run starts at the instant it is planned
            for index, (mid, _, end) in enumerate(times.tolist(), lo):
                # An op's window starts at its last resource stage.
                last_start = start if chain.plans[index].second is None else mid
                record(chain.table.op(index), last_start, end)
                start = end

        monkeypatch.setattr(ssd._InternalChain, "_complete", logged)
        monkeypatch.setattr(ssd._InternalChain, "_complete_run", logged_run)

    try:
        return _simulate(seed, simulator_cls, install_log, extra_read_at)
    finally:
        monkeypatch.undo()


def _run_oracle(seed: int, extra_read_at=None) -> dict:
    def install_log(sim, record):
        sim.on_internal_done = record

    return _simulate(seed, OracleSimulator, install_log, extra_read_at)


_EXEMPT = {"sim", "quiet", "queued_host_at_end", "processed", "peak_pending", "commits"}


def _assert_matches(chain: dict, oracle: dict) -> None:
    for key in oracle:
        if key not in _EXEMPT:
            assert chain[key] == oracle[key], key
    if chain["quiet"]:
        assert chain["processed"] < oracle["processed"]
    else:
        assert chain["processed"] == oracle["processed"]
    assert chain["peak_pending"] <= oracle["peak_pending"]
    assert [c[:2] for c in chain["commits"]] == [c[:2] for c in oracle["commits"]]
    assert all(
        mine[2] <= theirs[2]
        for mine, theirs in zip(chain["commits"], oracle["commits"])
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_rearmed_chain_matches_the_per_op_chain(seed, monkeypatch):
    chain = _run_chain(seed, monkeypatch)
    oracle = _run_oracle(seed)
    assert len(chain["internal"]) > 20
    _assert_matches(chain, oracle)


#: Unfaulted seeds (a fault plan keeps runs from starting).
UNFAULTED = [seed for seed in SEEDS if seed % 4 < 2][:6]


@pytest.mark.parametrize("seed", UNFAULTED)
def test_host_arrival_at_a_run_ops_end(seed, monkeypatch):
    """A host read arrives exactly when an op a run served would end.

    The arrival fires first at that instant on the per-op path, so the
    op must not be served by a run planned before it (``end`` must lie
    strictly before the horizon).
    """
    dry = _run_chain(seed, monkeypatch)
    assert dry["quiet"]
    end_us = dry["quiet"][len(dry["quiet"]) // 2]
    chain = _run_chain(seed, monkeypatch, extra_read_at=end_us)
    oracle = _run_oracle(seed, extra_read_at=end_us)
    assert ("arrive", HOOK_RIDS - 1, end_us) in oracle["order"]
    assert any(entry[-1] == end_us for entry in oracle["internal"])
    _assert_matches(chain, oracle)


@pytest.mark.parametrize("system", ["baseline", "ida-e20"])
def test_quick_usr_1_cell_matches_the_per_op_chain(system, monkeypatch):
    """The ``usr_1`` quick cell, seed 1, through both chains."""
    spec = {"baseline": baseline, "ida-e20": lambda: ida(0.2)}[system]()

    def run(simulator_cls):
        monkeypatch.setattr(runner, "SsdSimulator", simulator_cls)
        result = runner.run_workload(spec, workload("usr_1"), RunScale.quick(), seed=1)
        monkeypatch.undo()
        return result, result.metrics.phys_ops_dispatched

    (mine, ops), (theirs, oracle_ops) = run(SsdSimulator), run(OracleSimulator)
    assert ops == oracle_ops > 10_000
    assert metrics_summary(mine.metrics) == metrics_summary(theirs.metrics)
    assert mine.queue_wait == theirs.queue_wait
    assert mine.utilisation == theirs.utilisation


def test_scenarios_cover_kinds_policies_shared_dies_and_faults(monkeypatch):
    """The seeds reach every op kind, shared dies and fault kind, quiet
    runs on profiled and on fcfs seeds, and a chain op ending on a die
    with a host read queued behind it."""
    kinds = set()
    adjusts_committed = 0
    shared_die = False
    fired: dict[str, int] = {}
    profiled_stages = 0
    quiet_profiled = quiet_fcfs = queued_host_at_end = 0
    for seed in SEEDS:
        oracle = _run_oracle(seed)
        sim = oracle["sim"]
        kinds.update(op.kind for _, op, _, _ in sim.internal_log)
        adjusts_committed += len(oracle["commits"])
        scenario = _scenario(seed)
        # Two chains in flight at once with ops on one die.
        lifetimes = [
            (
                {die for _, die, _, _ in chain.done},
                chain.done[0][2],
                chain.done[-1][3],
            )
            for chain in sim.chains
        ]
        shared_die |= any(
            a is not b and a[0] & b[0] and a[1] < b[2] and b[1] < a[2]
            for a in lifetimes
            for b in lifetimes
        )
        if oracle["faults"] is not None:
            for kind, count in oracle["faults"]["fired"].items():
                fired[kind] = fired.get(kind, 0) + count
        if oracle["profile"] is not None:
            profiled_stages += len(oracle["profile"][0]["stages"].get("internal", {}))
        chain = _run_chain(seed, monkeypatch)
        if scenario["profiled"]:
            quiet_profiled += len(chain["quiet"])
        if scenario["policy"] == "fcfs":
            quiet_fcfs += len(chain["quiet"])
        queued_host_at_end += chain["queued_host_at_end"]
    assert kinds == set(OpKind)
    assert adjusts_committed > 0
    assert shared_die
    assert fired["program_fail"] > 0
    assert fired["adjust_interrupt"] > 0
    assert profiled_stages > 0
    assert quiet_profiled > 0
    assert quiet_fcfs > 0
    assert queued_host_at_end > 0
