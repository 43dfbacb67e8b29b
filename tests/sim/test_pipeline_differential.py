"""Differential test: compiled op programs against the generic walker.

Seeded random op mixes — every op kind and plan shape, read retries,
all three dispatch classes, read-first or FCFS queueing, bursts of equal
submit times, follow-up ops issued from completion callbacks, with and
without an op record (and a profiler it feeds) and wait-class profiling
— run on twin engines.  One
side uses :class:`~repro.sim.pipeline.OpPipeline` over compiled
:class:`~repro.sim.pipeline.OpPlan` objects and the tuple queue records
of :class:`~repro.sim.resources.Resource`; the other the pre-compilation
stage walker and dataclass queue records kept in ``_walker_oracle.py``.
Everything observable must match exactly: each completion's
``(start, end)`` and firing order, the engine's event count and queue
high-water mark, every stage tuple each op record holds and every
request record's op order, every stage the records hand the profiler,
queue depths sampled mid-run, and the resources' busy, queue-wait and
wait-class accounting.
"""

from __future__ import annotations

import random

import pytest

from repro.flash.timing import TimingSpec
from repro.ftl.ops import OpKind, PhysOp
from repro.sim.engine import SimEngine
from repro.sim.pipeline import (
    OpPipeline,
    OpPlan,
    OpRecord,
    RequestRecord,
    Stage,
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


REQUESTS = 7  # observed ops are spread over this many request records


def _stage_row(stage: Stage, submit_us: float, start_us: float, end_us: float):
    resource = stage.resource.name if stage.resource is not None else None
    return (stage.name, resource, submit_us, start_us, end_us)


class _Notes:
    """Profiler stand-in: logs every stage an op record hands it."""

    def __init__(self, log: list) -> None:
        self.log = log

    def on_stage(self, record, stage, submit_us, start_us, end_us) -> None:
        self.log.append(
            (record.op.page, *_stage_row(stage, submit_us, start_us, end_us))
        )


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
    profiler = _Notes(notes)
    requests = [RequestRecord(request=None) for _ in range(REQUESTS)]
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

        obs = None
        if spec["observed"]:
            op = PhysOp(OpKind.READ, spec["die"], op_id, spec["senses"])
            obs = OpRecord(
                op, spec["retries"], klass, requests[op_id % REQUESTS], profiler
            )
        if compiled:
            plan = plans.get(shape)
            if plan is None:
                plan = plans[shape] = OpPlan(
                    _stages(spec["kind"], die, channel, spec["senses"], spec["retries"])
                )
            OpPipeline(engine, plan, klass, queue, on_done, obs).start()
        else:
            stages = _stages(spec["kind"], die, channel, spec["senses"], spec["retries"])
            WalkerPipeline(engine, stages, klass, queue, on_done, obs).start()

    for op_id, spec in enumerate(ops):
        engine.at(spec["t"], lambda i=op_id, s=spec: issue(i, s, s["klass"]))
    for t in samples:
        engine.at(
            t,
            lambda: depths.append(
                [
                    (r.queued, r._on_done is not None, r.queued_by_class())
                    for r in resources
                ]
            ),
        )
    engine.run()
    return {
        "fired": fired,
        "processed": engine.processed,
        "peak_pending": engine.peak_pending,
        "now": engine.now,
        "notes": notes,
        "requests": [
            [
                (
                    record.op.page,
                    record.to_dict(),
                    [_stage_row(*row) for row in record.stages],
                )
                for record in request.ops
            ]
            for request in requests
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
    assert all(compiled["requests"])  # every request record collected ops
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
