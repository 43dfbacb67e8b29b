"""Tests for the staged op pipeline (repro.sim.pipeline)."""

from __future__ import annotations

import pytest

from repro.flash.timing import TimingSpec
from repro.sim.engine import SimEngine
from repro.sim.pipeline import (
    OpPipeline,
    PageRecord,
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


class TestOpPipeline:
    def _run(self, engine, stages, record=None):
        done: list[tuple[float, float]] = []
        OpPipeline(
            engine,
            stages,
            IoPriority.HOST_READ,
            IoPriority.HOST_READ,
            lambda s, e: done.append((s, e)),
            record=record,
        ).start()
        engine.run()
        return done

    def test_read_walks_all_stages_on_idle_device(self, engine, timing):
        die = Resource(engine, "die")
        chan = Resource(engine, "chan")
        done = self._run(engine, read_stages(die, chan, timing, senses=1))
        # on_done start = service start of the last *resource* stage
        # (the channel transfer); end includes the trailing ECC latency.
        assert done == [
            (
                timing.read_us(1),
                timing.read_us(1) + timing.transfer_us + timing.ecc_decode_us,
            )
        ]

    def test_record_notes_each_stage(self, engine, timing):
        die = Resource(engine, "die")
        chan = Resource(engine, "chan")
        record = PageRecord(block=1, page=2, senses=1, retries=0, submit_us=0.0)
        self._run(engine, read_stages(die, chan, timing, senses=1), record)
        assert record.sense_us == timing.read_us(1)
        assert record.transfer_us == timing.transfer_us
        assert record.ecc_us == timing.ecc_decode_us
        assert record.queue_wait_us == 0.0  # idle device: no waiting
        assert record.end_us == (
            timing.read_us(1) + timing.transfer_us + timing.ecc_decode_us
        )

    def test_record_accumulates_queue_wait_under_contention(
        self, engine, timing
    ):
        die = Resource(engine, "die")
        chan = Resource(engine, "chan")
        first = PageRecord(0, 0, 1, 0, submit_us=0.0)
        second = PageRecord(0, 1, 1, 0, submit_us=0.0)
        stages = read_stages(die, chan, timing, senses=1)
        done: list[float] = []
        for record in (first, second):
            OpPipeline(
                engine,
                stages,
                IoPriority.HOST_READ,
                IoPriority.HOST_READ,
                lambda s, e: done.append(e),
                record=record,
            ).start()
        engine.run()
        assert first.queue_wait_us == 0.0
        # The second op waits out the first's sense on the die; the
        # channel is free again by the time its transfer is ready.
        assert second.queue_wait_us == pytest.approx(timing.read_us(1))

    def test_latency_only_stage_does_not_queue(self, engine):
        stages = (Stage(None, 7.0, "ecc"), Stage(None, 3.0, "ecc"))
        done = self._run(engine, stages)
        assert done == [(0.0, 10.0)]
        assert engine.now == 10.0

    def test_rejects_empty_stage_tuple(self, engine):
        with pytest.raises(ValueError):
            OpPipeline(
                engine, (), IoPriority.HOST_READ, IoPriority.HOST_READ, lambda s, e: None
            )
