"""The fault injector: arms a :class:`FaultPlan` against a simulator.

The injector hooks the simulator at op dispatch — one ``is None`` check
per dispatched op — so a run without a plan pays nothing (the fig8
golden parity test pins this).
With a plan bound it does three things:

* **trigger** — counts dispatched ops per kind and matches them against
  the plan's ordinals, and schedules the timed events (grown bad, die
  loss) on the simulation engine at bind time;
* **recover** — when a faulted op *completes*, routes it to the FTL's
  graceful-degradation handler and issues whatever relocation work that
  returns as internal background ops;
* **record** — appends one JSON-able record per fired fault (including
  the faulted op's per-stage timing, read from the op's
  :class:`~repro.sim.pipeline.OpRecord`, which the tracer and profiler
  share) to a deterministic event stream that flows into run manifests
  and, when tracing is on, the structured tracer.

Everything here is duck-typed against the simulator (``bind(sim)``)
rather than imported from :mod:`repro.sim`, keeping the package free of
import cycles.
"""

from __future__ import annotations

from .plan import OP_KIND_OF, TIMED_KINDS, FaultEvent, FaultKind, FaultPlan

__all__ = ["FaultInjector", "FaultedOp", "PowerCutError"]


class PowerCutError(RuntimeError):
    """The simulated device lost power mid-run.

    Raised out of the event loop by a :data:`FaultKind.POWER_CUT` event.
    Unlike every other fault there is no in-run recovery: the simulator
    object is dead at this point and the caller remounts the surviving
    :class:`~repro.flash.state.DeviceState` via
    :func:`repro.ftl.recovery.mount_device`.

    Attributes:
        now_us: Simulated time the cut struck.
        ops_dispatched: Physical ops dispatched before the cut (the cut
            op itself, when ordinal-triggered, was *not* issued — its
            request is never acknowledged).
    """

    def __init__(self, now_us: float, ops_dispatched: int) -> None:
        super().__init__(
            f"power cut at t={now_us:.1f}us after "
            f"{ops_dispatched} dispatched ops"
        )
        self.now_us = now_us
        self.ops_dispatched = ops_dispatched


class FaultedOp:
    """The plan's verdict on one dispatched op: it fails with ``event``.

    The simulator puts it on the op's
    :class:`~repro.sim.pipeline.OpRecord`, whose stage timings become
    the fault record's, so the record shows exactly where the doomed op
    spent its time before the failure surfaced.
    """

    __slots__ = ("event", "op", "dispatch_us")

    def __init__(self, event: FaultEvent, op, dispatch_us: float) -> None:
        self.event = event
        self.op = op
        self.dispatch_us = dispatch_us


class FaultInjector:
    """Deterministic fault triggering, recovery routing and recording."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.sim = None
        #: Deterministic fault-event stream (JSON-able dicts, in firing
        #: order) — compared byte-for-byte by the parity tests.
        self.events: list[dict] = []
        self.fired: dict[str, int] = {kind.value: 0 for kind in FaultKind}
        self.fired["read_reclaim"] = 0
        # Op-coupled events keyed by (op-kind value, ordinal); power
        # cuts keyed by ordinal into the stream of ALL dispatched ops.
        self._pending: dict[str, dict[int, FaultEvent]] = {}
        self._power_cuts: dict[int, FaultEvent] = {}
        for event in plan.events:
            if event.kind is FaultKind.POWER_CUT:
                if event.op_ordinal is not None:
                    self._power_cuts[event.op_ordinal] = event
                continue
            if event.kind in TIMED_KINDS:
                continue
            op_kind = OP_KIND_OF[event.kind]
            self._pending.setdefault(op_kind, {})[event.op_ordinal] = event
        self._seen = {value: 0 for value in OP_KIND_OF.values()}
        #: Global dispatched-op counter (every kind), driving power-cut
        #: ordinals; only *timed* ops reach the dispatch path, so
        #: untimed warm-up and background writes never shift it.
        self.ops_seen = 0
        #: When a list, every dispatched op appends its kind value here.
        #: The crash-consistency harness arms this on a cut-free probe
        #: run to learn which ordinals fall in write / GC / refresh /
        #: ADJUST phases before choosing cut points.  ``None`` (default)
        #: costs one check per dispatch.
        self.census: list[str] | None = None

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Attach to a simulator: arm FTL recovery, schedule timed events."""
        self.sim = sim
        sim.ftl.enable_fault_recovery(self.plan.read_reclaim_threshold)
        for event in self.plan.events:
            if event.kind in TIMED_KINDS:
                sim.engine.at(event.at_us, lambda e=event: self._fire_timed(e))
            elif event.kind is FaultKind.POWER_CUT and event.at_us is not None:
                sim.engine.at(
                    event.at_us, lambda e=event: self._fire_power_cut(e)
                )

    # ------------------------------------------------------------------
    # Triggering (called at op dispatch, faults-enabled only)
    # ------------------------------------------------------------------
    def on_dispatch(self, op, host_read: bool) -> FaultedOp | None:
        """Count a dispatched op; return a context if the plan fails it.

        UNCORRECTABLE_READ ordinals index *host* reads only — internal
        (GC/refresh/recovery) reads pass through uncounted.  Power-cut
        ordinals index every dispatched op regardless of kind; a
        matching cut raises :class:`PowerCutError` *before* the op is
        issued, so the surviving device arrays reflect a clean event
        boundary (FTL transitions are eager and complete per request).
        """
        op_kind = op.kind.value
        self.ops_seen += 1
        if self.census is not None:
            self.census.append(op_kind)
        if self._power_cuts:
            cut = self._power_cuts.pop(self.ops_seen, None)
            if cut is not None:
                self._fire_power_cut(cut)
        if op_kind == "read" and not host_read:
            return None
        if op_kind not in self._seen:
            return None
        self._seen[op_kind] += 1
        pending = self._pending.get(op_kind)
        if not pending:
            return None
        event = pending.pop(self._seen[op_kind], None)
        if event is None:
            return None
        return FaultedOp(event, op, self.sim.engine.now)

    def wrap_completion(self, record, inner):
        """Completion callback running recovery before the original one.

        ``record`` is the faulted op's
        :class:`~repro.sim.pipeline.OpRecord`.
        """

        def completion(start_us: float, end_us: float) -> None:
            self.recover(record, end_us)
            inner(start_us, end_us)

        return completion

    def note_read_retries(self, op, retries: int) -> None:
        """Feed host-read retry counts into STRAW-style read reclaim."""
        now = self.sim.engine.now
        ops = self.sim.ftl.note_read_retries(op.block_index, retries, now)
        if ops:
            self._record(
                "read_reclaim",
                now,
                block=op.block_index,
                recovery_ops=len(ops),
            )
            self.sim.issue_internal_sequence(ops)

    # ------------------------------------------------------------------
    # Recovery routing
    # ------------------------------------------------------------------
    def recover(self, record, now_us: float) -> None:
        """A faulted op completed: hand it to the FTL's degradation
        handler, record the fault and issue the relocation work.

        ``record`` is the op's :class:`~repro.sim.pipeline.OpRecord`,
        carrying this injector's :class:`FaultedOp`.
        """
        event, op = record.fault.event, record.fault.op
        ftl = self.sim.ftl
        kind = event.kind
        if kind is FaultKind.PROGRAM_FAIL:
            ops = ftl.on_program_failure(op.block_index, op.page, now_us)
        elif kind is FaultKind.ERASE_FAIL:
            ops = ftl.on_erase_failure(op.block_index, now_us)
        elif kind is FaultKind.UNCORRECTABLE_READ:
            ops = ftl.on_uncorrectable_read(op.block_index, op.page, now_us)
        else:  # ADJUST_INTERRUPT
            ops = ftl.on_adjust_interrupted(op.block_index, op.wordline, now_us)
        self._record(
            kind.value,
            now_us,
            op_ordinal=event.op_ordinal,
            block=op.block_index,
            page=op.page,
            wordline=op.wordline,
            recovery_ops=len(ops),
            stages=[(stage.name, start, end) for stage, _, start, end in record.stages],
        )
        if ops:
            self.sim.issue_internal_sequence(ops)

    def _fire_power_cut(self, event: FaultEvent) -> None:
        """Record the cut, then kill the run — no in-sim recovery."""
        now = self.sim.engine.now
        self._record(
            event.kind.value,
            now,
            op_ordinal=event.op_ordinal,
            ops_dispatched=self.ops_seen,
        )
        raise PowerCutError(now, self.ops_seen)

    def _fire_timed(self, event: FaultEvent) -> None:
        now = self.sim.engine.now
        ftl = self.sim.ftl
        if event.kind is FaultKind.GROWN_BAD:
            # Hand-written plans may target blocks beyond a scaled-down
            # device; wrap rather than crash so plans port across scales.
            block = event.block % self.sim.geometry.total_blocks
            ops = ftl.retire_block(block, now)
            self._record(
                event.kind.value, now, block=block, recovery_ops=len(ops)
            )
        else:  # DIE_FAIL
            die = event.die % self.sim.geometry.total_dies
            ops = ftl.fail_die(die, now)
            self._record(event.kind.value, now, die=die, recovery_ops=len(ops))
        if ops:
            self.sim.issue_internal_sequence(ops)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, kind: str, now_us: float, **fields) -> None:
        self.fired[kind] += 1
        entry: dict = {"kind": kind, "t_us": now_us}
        entry.update({k: v for k, v in fields.items() if v is not None})
        self.events.append(entry)
        tracer = self.sim.tracer
        if tracer.enabled:
            payload = {k: v for k, v in entry.items() if k != "kind"}
            del payload["t_us"]
            tracer.emit(now_us, "fault", fault_kind=kind, **payload)

    def summary(self) -> dict:
        """JSON-able account of the plan and everything that fired."""
        return {
            "plan": self.plan.to_dict(),
            "fired": dict(self.fired),
            "events": [dict(event) for event in self.events],
        }
