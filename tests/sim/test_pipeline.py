"""Tests for the compiled op programs (repro.sim.pipeline)."""

from __future__ import annotations

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


@pytest.fixture
def engine():
    return SimEngine()


@pytest.fixture
def timing():
    return TimingSpec.tlc_table2()


class TestStageBuilders:
    def test_read_stages_shape(self, engine, timing):
        die = Resource(engine, "die")
        chan = Resource(engine, "chan")
        stages = read_stages(die, chan, timing, senses=2)
        assert [s.name for s in stages] == ["sense", "transfer", "ecc"]
        assert stages[0].resource is die
        assert stages[1].resource is chan
        assert stages[2].resource is None  # latency-only ECC stage
        assert stages[0].duration_us == timing.read_us(2)
        assert stages[1].duration_us == timing.transfer_us
        assert stages[2].duration_us == timing.ecc_decode_us

    def test_read_retry_repeats_sense_and_decode_not_transfer(
        self, engine, timing
    ):
        die = Resource(engine, "die")
        chan = Resource(engine, "chan")
        stages = read_stages(die, chan, timing, senses=1, passes=3)
        assert stages[0].duration_us == timing.read_us(1) * 3
        assert stages[1].duration_us == timing.transfer_us  # once
        assert stages[2].duration_us == timing.ecc_decode_us * 3

    def test_write_stages_shape(self, engine, timing):
        die = Resource(engine, "die")
        chan = Resource(engine, "chan")
        stages = write_stages(die, chan, timing)
        assert [s.name for s in stages] == ["transfer", "program"]
        assert stages[0].resource is chan
        assert stages[1].resource is die

    def test_internal_op_stages(self, engine, timing):
        die = Resource(engine, "die")
        (adjust,) = adjust_stages(die, timing)
        (erase,) = erase_stages(die, timing)
        assert adjust.name == "adjust"
        assert erase.name == "erase"
        assert erase.duration_us == timing.erase_us


def _resources(engine):
    return (
        Resource(engine, "die", kind="die"),
        Resource(engine, "chan", kind="channel"),
    )


class _Notes:
    """Stands in for the profiler an op record hands each stage to."""

    def __init__(self, log: list) -> None:
        self.log = log

    def on_stage(self, record, stage, submit_us, start_us, end_us) -> None:
        self.log.append(("profile", stage.name, submit_us, start_us, end_us))


def _record(
    kind=OpKind.READ,
    block=0,
    page=0,
    senses=1,
    klass=IoPriority.HOST_READ,
    request=None,
    profiler=None,
) -> OpRecord:
    return OpRecord(PhysOp(kind, block, page, senses), 0, klass, request, profiler)


def _run(engine, plan, klass=IoPriority.HOST_READ, obs=None):
    done: list[tuple[float, float]] = []
    OpPipeline(engine, plan, klass, klass, lambda s, e: done.append((s, e)), obs).start()
    engine.run()
    return done


class TestOpPlan:
    def test_read_plan_is_die_then_channel_then_latency(self, engine, timing):
        die, chan = _resources(engine)
        plan = OpPlan(read_stages(die, chan, timing, senses=2, passes=2))
        assert plan.first is die
        assert plan.first_us == timing.read_us(2) * 2
        assert plan.second is chan
        assert plan.second_us == timing.transfer_us
        assert plan.latency_us == timing.ecc_decode_us * 2
        assert [s.name for s in plan.stages] == ["sense", "transfer", "ecc"]

    def test_write_plan_is_channel_then_die(self, engine, timing):
        die, chan = _resources(engine)
        plan = OpPlan(write_stages(die, chan, timing))
        assert (plan.first, plan.second) == (chan, die)
        assert plan.second_us == timing.program_us
        assert plan.latency_us is None

    def test_adjust_and_erase_plans_are_die_only(self, engine, timing):
        die, _ = _resources(engine)
        for stages in (adjust_stages(die, timing), erase_stages(die, timing)):
            plan = OpPlan(stages)
            assert plan.first is die
            assert plan.first_us == stages[0].duration_us
            assert plan.second is None
            assert plan.latency_us is None

    def test_one_resource_stage_then_latency(self, engine):
        die, _ = _resources(engine)
        plan = OpPlan((Stage(die, 5.0, "sense"), Stage(None, 3.0, "ecc")))
        assert plan.second is None
        assert plan.latency_us == 3.0

    @pytest.mark.parametrize(
        "shape",
        [
            "",  # no stage at all
            "L",  # latency-only first
            "LR",
            "RLR",  # latency-only in the middle
            "RLL",  # two trailing latency stages
            "RRR",  # three resource stages
            "RRRL",
        ],
    )
    def test_unsupported_shape_raises(self, engine, shape):
        die, _ = _resources(engine)
        stages = tuple(
            Stage(die if c == "R" else None, 1.0, "sense" if c == "R" else "ecc")
            for c in shape
        )
        with pytest.raises(ValueError, match="op plan"):
            OpPlan(stages)


class TestOpPipeline:
    def test_read_walks_all_stages_on_idle_device(self, engine, timing):
        die, chan = _resources(engine)
        done = _run(engine, OpPlan(read_stages(die, chan, timing, senses=1)))
        # on_done start = service start of the last *resource* stage
        # (the channel transfer); end includes the trailing ECC latency.
        assert done == [
            (
                timing.read_us(1),
                timing.read_us(1) + timing.transfer_us + timing.ecc_decode_us,
            )
        ]

    def test_read_retries_repeat_sense_and_decode(self, engine, timing):
        die, chan = _resources(engine)
        plan = OpPlan(read_stages(die, chan, timing, senses=1, passes=3))
        sense = timing.read_us(1) * 3
        assert _run(engine, plan) == [
            (sense, sense + timing.transfer_us + timing.ecc_decode_us * 3)
        ]

    def test_write_transfers_then_programs(self, engine, timing):
        die, chan = _resources(engine)
        plan = OpPlan(write_stages(die, chan, timing))
        done = _run(engine, plan, IoPriority.HOST_WRITE)
        # start = the program's service start on the die.
        assert done == [
            (timing.transfer_us, timing.transfer_us + timing.program_us)
        ]
        assert die.busy_us == timing.program_us
        assert chan.busy_us == timing.transfer_us

    def test_adjust_and_erase_run_on_the_die(self, engine, timing):
        die, chan = _resources(engine)
        assert _run(engine, OpPlan(adjust_stages(die, timing)), IoPriority.INTERNAL) == [
            (0.0, timing.adjust_us())
        ]
        start = engine.now
        assert _run(engine, OpPlan(erase_stages(die, timing)), IoPriority.INTERNAL) == [
            (start, start + timing.erase_us)
        ]
        assert chan.busy_us == 0.0

    def test_resource_then_latency_reports_the_resource_start(self, engine):
        die, _ = _resources(engine)
        plan = OpPlan((Stage(die, 5.0, "sense"), Stage(None, 3.0, "ecc")))
        assert _run(engine, plan) == [(0.0, 8.0)]
        assert engine.now == 8.0

    def test_record_notes_each_stage(self, engine, timing):
        die, chan = _resources(engine)
        record = _record(block=1, page=2)
        plan = OpPlan(read_stages(die, chan, timing, senses=1))
        _run(engine, plan, obs=record)
        sense = timing.read_us(1)
        moved = sense + timing.transfer_us
        end = moved + timing.ecc_decode_us
        assert [(stage.name, *times) for stage, *times in record.stages] == [
            ("sense", 0.0, 0.0, sense),
            ("transfer", sense, sense, moved),
            ("ecc", moved, moved, end),
        ]
        entry = record.to_dict()
        assert (entry["block"], entry["page"], entry["senses"]) == (1, 2, 1)
        assert entry["sense_us"] == timing.read_us(1)
        assert entry["transfer_us"] == timing.transfer_us
        assert entry["ecc_us"] == timing.ecc_decode_us
        assert entry["queue_wait_us"] == 0.0  # idle device: no waiting
        assert entry["end_us"] == end

    def test_record_notes_write_stages(self, engine, timing):
        die, chan = _resources(engine)
        record = _record(OpKind.WRITE, senses=0, klass=IoPriority.HOST_WRITE)
        plan = OpPlan(write_stages(die, chan, timing))
        _run(engine, plan, IoPriority.HOST_WRITE, record)
        entry = record.to_dict()
        assert entry["transfer_us"] == timing.transfer_us
        assert entry["program_us"] == timing.program_us
        assert entry["end_us"] == timing.transfer_us + timing.program_us

    def test_record_accumulates_queue_wait_under_contention(
        self, engine, timing
    ):
        die, chan = _resources(engine)
        first = _record(page=0)
        second = _record(page=1)
        plan = OpPlan(read_stages(die, chan, timing, senses=1))
        done: list[float] = []
        for record in (first, second):
            OpPipeline(
                engine,
                plan,
                IoPriority.HOST_READ,
                IoPriority.HOST_READ,
                lambda s, e: done.append(e),
                record,
            ).start()
        engine.run()
        assert first.to_dict()["queue_wait_us"] == 0.0
        # The second op waits out the first's sense on the die; the
        # channel is free again by the time its transfer is ready.
        assert second.to_dict()["queue_wait_us"] == pytest.approx(timing.read_us(1))

    def test_busy_channel_delays_the_transfer(self, engine, timing):
        die, chan = _resources(engine)
        chan.submit(IoPriority.INTERNAL, 1000.0, lambda s, e: None)
        record = _record()
        plan = OpPlan(read_stages(die, chan, timing, senses=1))
        done = _run(engine, plan, obs=record)
        assert done == [(1000.0, 1000.0 + timing.transfer_us + timing.ecc_decode_us)]
        assert record.to_dict()["queue_wait_us"] == pytest.approx(
            1000.0 - timing.read_us(1)
        )

    def test_busy_die_delays_the_program(self, engine, timing):
        die, chan = _resources(engine)
        die.submit(IoPriority.INTERNAL, timing.erase_us, lambda s, e: None)
        plan = OpPlan(write_stages(die, chan, timing))
        done = _run(engine, plan, IoPriority.HOST_WRITE)
        # The transfer runs at once; the program waits for the erase.
        assert done == [(timing.erase_us, timing.erase_us + timing.program_us)]

    def test_observers_see_every_boundary_before_on_done(self, engine, timing):
        die, chan = _resources(engine)
        log: list = []
        request = RequestRecord(request=None)
        obs = _record(request=request, profiler=_Notes(log))
        plan = OpPlan(read_stages(die, chan, timing, senses=1))
        OpPipeline(
            engine,
            plan,
            IoPriority.HOST_READ,
            IoPriority.HOST_READ,
            lambda s, e: log.append(("on_done", s, e, list(request.ops))),
            obs,
        ).start()
        engine.run()
        sense = timing.read_us(1)
        moved = sense + timing.transfer_us
        end = moved + timing.ecc_decode_us
        boundaries = [
            ("sense", 0.0, 0.0, sense),
            ("transfer", sense, sense, moved),
            ("ecc", moved, moved, end),
        ]
        expected = [("profile",) + boundary for boundary in boundaries]
        # The record joins its request before ``on_done`` runs.
        expected.append(("on_done", sense, end, [obs]))
        assert log == expected

    def test_span_collects_the_record_at_completion(self, engine, timing):
        die, chan = _resources(engine)
        request = RequestRecord(request=None)
        record = _record(
            OpKind.ADJUST, senses=0, klass=IoPriority.INTERNAL, request=request
        )
        plan = OpPlan(adjust_stages(die, timing))
        _run(engine, plan, IoPriority.INTERNAL, record)
        assert request.ops == [record]
        assert record.to_dict()["end_us"] == timing.adjust_us()

    def test_rejects_empty_stage_tuple(self, engine):
        with pytest.raises(ValueError):
            OpPlan(())
