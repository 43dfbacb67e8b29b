"""The per-op internal chain, kept as an oracle.

Before internal chains ran their own stages, a GC or refresh pass was a
driver that handed each of its ops to the simulator's op dispatch one at
a time: every op went through the dispatch method, got a fresh
:class:`~repro.sim.pipeline.OpPipeline`, a completion closure that
committed a clean adjust (or ran fault recovery) and a hop back into the
chain to issue the next op.  :class:`OracleSimulator` is an
:class:`~repro.sim.ssd.SsdSimulator` whose ``issue_internal_sequence``
runs that design, so ``test_internal_chain_differential.py`` can run it
against the re-armed chain on a twin simulator.  Host ops take the
simulator's own path on both sides.  Nothing in ``src/`` imports it.

The oracle also notes what the differential test's coverage checks
need: each chain's ops with their dies and completion windows.  It
knows nothing of quiet runs: every internal op here fires its own
events.
"""

from __future__ import annotations

from collections import deque

from repro.ftl.ops import OpKind, PhysOp
from repro.sim.pipeline import OpPipeline, OpPlan, OpRecord, read_stages
from repro.sim.resources import IoPriority
from repro.sim.ssd import SsdSimulator

_INTERNAL = IoPriority.INTERNAL


class OracleChain:
    """One GC / refresh pass issuing its ops one after another."""

    def __init__(self, sim: "OracleSimulator", ops: list[PhysOp]) -> None:
        self.sim = sim
        self.ops = deque(ops)
        self.serial = len(sim.chains)
        self.current: PhysOp | None = None
        sim.chains.append(self)
        #: ``(op, die, start_us, end_us)`` of every completed op.
        self.done: list[tuple] = []

    def issue_next(self) -> None:
        self.current = self.ops.popleft()
        self.sim.issue_internal(self.current, self._op_done)

    def _op_done(self, start_us: float, end_us: float) -> None:
        op = self.current
        die = self.sim._plane_resources[op.block_index // self.sim._blocks_per_plane][0]
        self.done.append((op, die.index, start_us, end_us))
        self.sim.internal_log.append((self.serial, op, start_us, end_us))
        if self.sim.on_internal_done is not None:
            self.sim.on_internal_done(op, start_us, end_us)
        if self.ops:
            self.issue_next()


class OracleSimulator(SsdSimulator):
    """A simulator whose internal ops each take the per-op dispatch."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.chains: list[OracleChain] = []
        #: ``(chain serial, op, start_us, end_us)`` in completion order.
        self.internal_log: list[tuple] = []
        #: Optional ``fn(op, start_us, end_us)`` called at each internal
        #: op's completion, after its recovery or adjust commit.
        self.on_internal_done = None
        self._oracle_read_plans: dict[tuple[int, int], OpPlan] = {}

    def issue_internal_sequence(self, ops: list[PhysOp]) -> None:
        if ops:
            OracleChain(self, ops).issue_next()

    def issue_internal(self, op: PhysOp, on_done) -> None:
        """Dispatch one internal op as the per-op path did."""
        plane = op.block_index // self._blocks_per_plane
        fault = self.faults.on_dispatch(op, False) if self.faults is not None else None
        kind = op.kind
        if kind is OpKind.READ:
            # Internal reads never sample retries.
            key = (plane, op.senses)
            plan = self._oracle_read_plans.get(key)
            if plan is None:
                die, channel = self._plane_resources[plane]
                plan = self._oracle_read_plans[key] = OpPlan(
                    read_stages(die, channel, self.timing, op.senses, 1)
                )
        elif kind is OpKind.WRITE:
            plan = self._write_plans[plane]
        elif kind is OpKind.ADJUST:
            plan = self._adjust_plans[plane]
        else:
            plan = self._erase_plans[plane]
        self.ops_dispatched += 1
        obs = None
        if self.profiler is not None or fault is not None:
            obs = OpRecord(op, 0, _INTERNAL, None, self.profiler, fault)
        if fault is not None:
            on_done = self.faults.wrap_completion(obs, on_done)
        elif kind is OpKind.ADJUST:
            on_done = self._wrap_adjust_commit(op, on_done)
        OpPipeline(
            self.engine, plan, _INTERNAL, self._queue_of[_INTERNAL], on_done, obs
        ).start()

    def _wrap_adjust_commit(self, op: PhysOp, inner):
        def completion(start_us: float, end_us: float) -> None:
            self.ftl.commit_adjust(op.block_index, op.wordline)
            inner(start_us, end_us)

        return completion
