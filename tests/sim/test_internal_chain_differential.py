"""Differential test: the re-armed internal chain against the per-op chain.

An internal chain (a GC or refresh pass) is an
:class:`~repro.sim.pipeline.OpPipeline` re-armed for each of its ops.
``_chain_oracle.py`` keeps the design it replaced, where each op took
the simulator's op dispatch and a fresh pipeline.  Twin simulators, one
of each, run the same seeded scenario on a tiny geometry:

* real IDA refresh passes (reads, re-programs, ADJUSTs, erases) and GC
  from host writes, plus scripted chains of random read / write /
  adjust / erase ops, several of them on one die at once;
* read-first with no gap, and the throttling policy's 500 us gap, with
  host reads arriving inside the gaps;
* the sim-time profiler on or off;
* a :class:`~repro.faults.FaultPlan` of program failures and adjust
  interrupts, or none.

Everything observable must match exactly: each internal op's completion
``(start, end)`` and order, each host request's completion, the order
of ``commit_adjust`` calls, ``ops_dispatched``, the engine's event count
and queue high-water mark, the resources' busy, queue-wait and
wait-class accounting, the profiler payload and the fault record.
"""

from __future__ import annotations

import random

import pytest

from repro.core import conventional_tlc
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


def _scenario(seed: int) -> dict:
    """Seeded inputs; the switches cycle so every combination occurs."""
    rng = random.Random(seed)
    throttled = seed % 2 == 1
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
        "policy": "throttled" if throttled else "read-first",
        "profiled": profiled,
        "plan": plan,
        "requests": requests,
        "chains": chains,
        "aged": rng.sample(range(LPNS), 24),
    }


def _simulate(seed: int, simulator_cls, log_chain_op) -> dict:
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
    commits: list = []
    commit_adjust = sim.ftl.commit_adjust

    def logged_commit(block_index, wordline):
        commits.append((block_index, wordline, sim.engine.now))
        commit_adjust(block_index, wordline)

    sim.ftl.commit_adjust = logged_commit
    host: list = []
    sim.on_host_request_complete = lambda req, is_read: host.append(
        (req.request_id, is_read, sim.engine.now)
    )
    internal: list = []
    log_chain_op(sim, internal)
    for at_us, ops in scenario["chains"]:
        sim.engine.at(at_us, lambda ops=ops: sim.issue_internal_sequence(ops))
    sim.run_requests(scenario["requests"])
    resources = sim.dies + sim.channels
    return {
        "sim": sim,
        "internal": internal,
        "host": host,
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


def _run_chain(seed: int, monkeypatch) -> dict:
    def log_chain_op(sim, internal):
        op_done = ssd._InternalChain._op_done

        def logged(chain, start_us, end_us):
            internal.append((chain.op, start_us, end_us))
            op_done(chain, start_us, end_us)

        monkeypatch.setattr(ssd._InternalChain, "_op_done", logged)

    result = _simulate(seed, SsdSimulator, log_chain_op)
    monkeypatch.undo()
    return result


def _run_oracle(seed: int) -> dict:
    result = _simulate(seed, OracleSimulator, lambda sim, internal: None)
    result["internal"] = [entry[1:] for entry in result["sim"].internal_log]
    return result


@pytest.mark.parametrize("seed", SEEDS)
def test_rearmed_chain_matches_the_per_op_chain(seed, monkeypatch):
    chain = _run_chain(seed, monkeypatch)
    oracle = _run_oracle(seed)
    assert len(chain["internal"]) > 20
    for key in oracle:
        if key != "sim":
            assert chain[key] == oracle[key], key


def test_scenarios_cover_kinds_gaps_shared_dies_and_faults():
    kinds = set()
    adjusts_committed = 0
    reads_in_gaps = 0
    shared_die = False
    fired: dict[str, int] = {}
    profiled_stages = 0
    for seed in SEEDS:
        oracle = _run_oracle(seed)
        sim = oracle["sim"]
        kinds.update(op.kind for _, op, _, _ in sim.internal_log)
        adjusts_committed += len(oracle["commits"])
        scenario = _scenario(seed)
        gaps = [gap for chain in sim.chains for gap in chain.gaps]
        reads_in_gaps += sum(
            1
            for request in scenario["requests"]
            if request.is_read
            and any(begin < request.arrival_us < end for begin, end in gaps)
        )
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
    assert kinds == set(OpKind)
    assert adjusts_committed > 0
    assert reads_in_gaps > 0
    assert shared_die
    assert fired["program_fail"] > 0
    assert fired["adjust_interrupt"] > 0
    assert profiled_stages > 0
