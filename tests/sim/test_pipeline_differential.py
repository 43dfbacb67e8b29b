"""Differential test: compiled op programs against the generic walker.

Seeded random op mixes — every op kind and plan shape, read retries,
all three dispatch classes, read-first or FCFS queueing, bursts of equal
submit times, follow-up ops issued from completion callbacks, with and
without observers and wait-class profiling — run on twin engines.  One
side uses :class:`~repro.sim.pipeline.OpPipeline` over compiled
:class:`~repro.sim.pipeline.OpPlan` objects and the tuple queue records
of :class:`~repro.sim.resources.Resource`; the other the pre-compilation
stage walker and dataclass queue records kept in ``_walker_oracle.py``.
Everything observable must match exactly: each completion's
``(start, end)`` and firing order, the engine's event count and queue
high-water mark, every stage note, queue depths sampled mid-run, and the
resources' busy, queue-wait and wait-class accounting.
"""

from __future__ import annotations

import random

import pytest

from repro.flash.timing import TimingSpec
from repro.sim.engine import SimEngine
from repro.sim.pipeline import (
    OpPipeline,
    OpPlan,
    PageRecord,
    RequestSpan,
    Stage,
    StageObservers,
    adjust_stages,
    erase_stages,
    read_stages,
    write_stages,
)
from repro.sim.resources import IoPriority, Resource
from tests.sim._walker_oracle import WalkerPipeline, WalkerResource

TIMING = TimingSpec.tlc_table2()
CHANNELS = 2
DIES_PER_CHANNEL = 2
KINDS = ("read", "read", "read", "write", "write", "adjust", "erase", "sense_ecc")


class _Notes:
    """Profiler / fault op context stand-in: logs every boundary."""

    def __init__(self, log: list, op_id: int, tag: str) -> None:
        self.log = log
        self.op_id = op_id
        self.tag = tag

    def note_stage(self, stage, submit_us, start_us, end_us) -> None:
        resource = stage.resource.name if stage.resource is not None else None
        self.log.append(
            (self.tag, self.op_id, stage.name, resource, submit_us, start_us, end_us)
        )

    def complete(self, end_us) -> None:
        self.log.append((self.tag, self.op_id, "complete", end_us))


def _stages(kind: str, die: Resource, channel: Resource, senses: int, retries: int):
    if kind == "read":
        return read_stages(die, channel, TIMING, senses, 1 + retries)
    if kind == "write":
        return write_stages(die, channel, TIMING)
    if kind == "adjust":
        return adjust_stages(die, TIMING)
    if kind == "erase":
        return erase_stages(die, TIMING)
    # One resource stage plus a latency-only stage: a valid plan shape
    # no simulator op uses.
    return (
        Stage(die, TIMING.read_us(senses), "sense"),
        Stage(None, TIMING.ecc_decode_us * (1 + retries), "ecc"),
    )


def _mix(seed: int, n_ops: int = 400) -> tuple[list[dict], bool, bool, list[float]]:
    rng = random.Random(seed)
    fcfs = rng.random() < 0.5
    profile_waits = rng.random() < 0.5
    ops = []
    t = 0.0
    for _ in range(n_ops):
        # Bursts of equal submit times exercise the (time, seq) ties.
        if rng.random() < 0.6:
            t += rng.uniform(0.0, 120.0)
        ops.append(
            {
                "t": t,
                "kind": rng.choice(KINDS),
                "die": rng.randrange(CHANNELS * DIES_PER_CHANNEL),
                "senses": rng.randint(1, 3),
                "retries": rng.choice((0, 0, 0, 1, 3)),
                "klass": rng.choice(tuple(IoPriority)),
                "observed": rng.random() < 0.5,
                "follow_up": rng.random() < 0.2,
            }
        )
    samples = sorted(rng.uniform(0.0, t) for _ in range(8))
    return ops, fcfs, profile_waits, samples


def _simulate(seed: int, compiled: bool) -> dict:
    ops, fcfs, profile_waits, samples = _mix(seed)
    engine = SimEngine()
    resource_cls = Resource if compiled else WalkerResource
    channels = [
        resource_cls(engine, f"chan{c}", kind="channel", index=c)
        for c in range(CHANNELS)
    ]
    dies = [
        resource_cls(engine, f"die{d}", kind="die", index=d)
        for d in range(CHANNELS * DIES_PER_CHANNEL)
    ]
    resources = dies + channels
    if profile_waits:
        for resource in resources:
            resource.enable_wait_profile()
    plans: dict[tuple, OpPlan] = {}
    fired: list = []
    notes: list = []
    records: list = []
    depths: list = []

    def issue(op_id: int, spec: dict, klass: IoPriority) -> None:
        die = dies[spec["die"]]
        channel = channels[spec["die"] // DIES_PER_CHANNEL]
        shape = (spec["kind"], spec["die"], spec["senses"], spec["retries"])
        queue = IoPriority.HOST_READ if fcfs else klass

        def on_done(start_us: float, end_us: float) -> None:
            fired.append((op_id, start_us, end_us))
            if spec["follow_up"] and op_id >= 0:
                # Issued from inside a completion callback, like the
                # simulator's internal chains.
                issue(-1 - op_id, dict(spec, kind="adjust"), IoPriority.INTERNAL)

        span = record = profile = fault = None
        if spec["observed"]:
            span = RequestSpan(request=None)
            record = PageRecord(spec["die"], op_id, spec["senses"], spec["retries"], engine.now)
            records.append((op_id, span, record))
            profile = _Notes(notes, op_id, "profile")
            fault = _Notes(notes, op_id, "fault") if op_id % 3 == 0 else None
        if compiled:
            plan = plans.get(shape)
            if plan is None:
                plan = plans[shape] = OpPlan(
                    _stages(spec["kind"], die, channel, spec["senses"], spec["retries"])
                )
            obs = None
            if span is not None or profile is not None or fault is not None:
                obs = StageObservers(span, record, profile, fault)
            OpPipeline(engine, plan, klass, queue, on_done, obs).start()
        else:
            stages = _stages(spec["kind"], die, channel, spec["senses"], spec["retries"])
            WalkerPipeline(
                engine, stages, klass, queue, on_done, span, record, profile, fault
            ).start()

    for op_id, spec in enumerate(ops):
        engine.at(spec["t"], lambda i=op_id, s=spec: issue(i, s, s["klass"]))
    for t in samples:
        engine.at(
            t,
            lambda: depths.append(
                [(r.queued, r.is_busy, r.queued_by_class()) for r in resources]
            ),
        )
    engine.run()
    return {
        "fired": fired,
        "processed": engine.processed,
        "peak_pending": engine.peak_pending,
        "now": engine.now,
        "notes": notes,
        "records": [
            (op_id, [page.to_dict() for page in span.pages], record.to_dict())
            for op_id, span, record in records
        ],
        "depths": depths,
        "busy": [(r.busy_us, list(r.busy_us_by_class)) for r in resources],
        "waits": [r.queue_wait_stats() for r in resources],
        "wait_classes": [r.wait_class_breakdown() for r in resources],
    }


@pytest.mark.parametrize("seed", range(12))
def test_compiled_programs_match_the_walker(seed):
    compiled = _simulate(seed, compiled=True)
    walker = _simulate(seed, compiled=False)
    assert len(compiled["fired"]) > 400  # every op and its follow-ups ran
    assert compiled["notes"]
    for key in walker:
        assert compiled[key] == walker[key], key


def test_mixes_cover_contention_and_both_queueing_modes():
    seen_fcfs = set()
    seen_profile = set()
    waited = False
    for seed in range(12):
        _, fcfs, profile_waits, _ = _mix(seed)
        seen_fcfs.add(fcfs)
        seen_profile.add(profile_waits)
        result = _simulate(seed, compiled=True)
        waited |= any(
            stats["total_wait_us"] > 0.0
            for per_class in result["waits"]
            for stats in per_class.values()
        )
    assert seen_fcfs == {True, False}
    assert seen_profile == {True, False}
    assert waited
