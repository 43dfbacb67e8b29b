"""Tests for fault plans (repro.faults.plan)."""

from __future__ import annotations

import pickle

import pytest

from repro.faults import (
    OP_KIND_OF,
    PLAN_SCHEMA,
    TIMED_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    load_plan,
    save_plan,
)


class TestFaultEventValidation:
    def test_timed_kinds_need_at_us(self):
        with pytest.raises(ValueError, match="need at_us"):
            FaultEvent(kind=FaultKind.GROWN_BAD, block=3)

    def test_timed_kinds_reject_op_ordinal(self):
        with pytest.raises(ValueError, match="op_ordinal is invalid"):
            FaultEvent(
                kind=FaultKind.DIE_FAIL, at_us=10.0, die=0, op_ordinal=1
            )

    def test_grown_bad_needs_block(self):
        with pytest.raises(ValueError, match="target block"):
            FaultEvent(kind=FaultKind.GROWN_BAD, at_us=10.0)

    def test_die_fail_needs_die(self):
        with pytest.raises(ValueError, match="target die"):
            FaultEvent(kind=FaultKind.DIE_FAIL, at_us=10.0)

    def test_op_coupled_kinds_need_ordinal(self):
        for kind in OP_KIND_OF:
            with pytest.raises(ValueError, match="need op_ordinal"):
                FaultEvent(kind=kind)

    def test_op_ordinal_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=0)

    def test_op_coupled_kinds_reject_at_us(self):
        with pytest.raises(ValueError, match="at_us is invalid"):
            FaultEvent(kind=FaultKind.ERASE_FAIL, op_ordinal=1, at_us=5.0)

    def test_every_kind_is_timed_or_op_coupled(self):
        # POWER_CUT is the one kind living in both trigger domains.
        assert TIMED_KINDS | set(OP_KIND_OF) | {FaultKind.POWER_CUT} == set(
            FaultKind
        )


class TestPowerCutValidation:
    def test_accepts_either_trigger(self):
        FaultEvent(kind=FaultKind.POWER_CUT, at_us=50.0)
        FaultEvent(kind=FaultKind.POWER_CUT, op_ordinal=17)

    def test_rejects_neither_trigger(self):
        with pytest.raises(ValueError, match="exactly one of"):
            FaultEvent(kind=FaultKind.POWER_CUT)

    def test_rejects_both_triggers(self):
        with pytest.raises(ValueError, match="exactly one of"):
            FaultEvent(kind=FaultKind.POWER_CUT, at_us=5.0, op_ordinal=3)

    def test_ordinal_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultEvent(kind=FaultKind.POWER_CUT, op_ordinal=0)

    def test_rejects_targets(self):
        with pytest.raises(ValueError, match="block/die are invalid"):
            FaultEvent(kind=FaultKind.POWER_CUT, at_us=5.0, block=3)

    def test_round_trips_through_dict(self):
        for event in (
            FaultEvent(kind=FaultKind.POWER_CUT, at_us=123.5),
            FaultEvent(kind=FaultKind.POWER_CUT, op_ordinal=42),
        ):
            assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultPlanValidation:
    def test_duplicate_ordinal_rejected(self):
        events = (
            FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=3),
            FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=3),
        )
        with pytest.raises(ValueError, match="duplicate program_fail"):
            FaultPlan(events=events)

    def test_same_ordinal_different_kinds_allowed(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=3),
                FaultEvent(kind=FaultKind.ERASE_FAIL, op_ordinal=3),
            )
        )
        assert len(plan) == 2

    def test_rejects_non_events(self):
        with pytest.raises(TypeError, match="expected FaultEvent"):
            FaultPlan(events=({"kind": "program_fail"},))

    def test_read_reclaim_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="read_reclaim_threshold"):
            FaultPlan(read_reclaim_threshold=0)

    def test_count_and_len(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=1),
                FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=2),
                FaultEvent(kind=FaultKind.GROWN_BAD, at_us=5.0, block=0),
            )
        )
        assert len(plan) == 3
        assert plan.count(FaultKind.PROGRAM_FAIL) == 2
        assert plan.count(FaultKind.DIE_FAIL) == 0

    def test_plan_is_hashable_and_picklable(self):
        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=1),),
            read_reclaim_threshold=8,
        )
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestGenerate:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            duration_us=10_000.0,
            total_blocks=64,
            total_dies=4,
            program_fails=3,
            erase_fails=2,
            grown_bad=2,
            uncorrectable_reads=4,
            die_fails=1,
            adjust_interrupts=2,
            read_reclaim_threshold=16,
        )
        assert FaultPlan.generate(7, **kwargs) == FaultPlan.generate(7, **kwargs)
        assert FaultPlan.generate(7, **kwargs) != FaultPlan.generate(8, **kwargs)

    def test_counts_and_targets_in_range(self):
        plan = FaultPlan.generate(
            3,
            duration_us=1_000.0,
            total_blocks=16,
            total_dies=2,
            program_fails=2,
            erase_fails=1,
            grown_bad=3,
            uncorrectable_reads=2,
            die_fails=1,
            adjust_interrupts=1,
        )
        assert plan.count(FaultKind.PROGRAM_FAIL) == 2
        assert plan.count(FaultKind.GROWN_BAD) == 3
        assert plan.count(FaultKind.DIE_FAIL) == 1
        for event in plan.events:
            if event.kind in TIMED_KINDS:
                assert 0.0 < event.at_us < 1_000.0
            else:
                assert event.op_ordinal >= 1
            if event.kind is FaultKind.GROWN_BAD:
                assert 0 <= event.block < 16
            if event.kind is FaultKind.DIE_FAIL:
                assert 0 <= event.die < 2
        assert plan.seed == 3

    def test_ordinal_count_clamped_to_range(self):
        plan = FaultPlan.generate(
            1, duration_us=100.0, total_blocks=4,
            erase_fails=50, max_erase_ordinal=5,
        )
        assert plan.count(FaultKind.ERASE_FAIL) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="duration_us"):
            FaultPlan.generate(1, duration_us=0.0, total_blocks=4)
        with pytest.raises(ValueError, match="total_blocks"):
            FaultPlan.generate(1, duration_us=10.0, total_blocks=0)


class TestSerialisation:
    def _plan(self):
        return FaultPlan.generate(
            5,
            duration_us=2_000.0,
            total_blocks=32,
            total_dies=2,
            program_fails=2,
            grown_bad=1,
            die_fails=1,
            adjust_interrupts=1,
            read_reclaim_threshold=12,
            name="round-trip",
        )

    def test_dict_round_trip(self):
        plan = self._plan()
        data = plan.to_dict()
        assert data["kind"] == "fault_plan"
        assert FaultPlan.from_dict(data) == plan

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="not a fault plan"):
            FaultPlan.from_dict({"kind": "run_manifest"})

    def test_to_dict_stamps_schema(self):
        assert self._plan().to_dict()["schema"] == PLAN_SCHEMA

    def test_from_dict_rejects_future_schema(self):
        data = self._plan().to_dict()
        data["schema"] = PLAN_SCHEMA + 1
        with pytest.raises(ValueError, match="unsupported fault plan schema"):
            FaultPlan.from_dict(data)

    def test_from_dict_accepts_missing_schema(self):
        # Plans written before versioning carry no schema field.
        data = self._plan().to_dict()
        del data["schema"]
        assert FaultPlan.from_dict(data) == self._plan()

    def test_unknown_kind_names_the_entry(self):
        data = {
            "events": [
                {"kind": "program_fail", "op_ordinal": 1},
                {"kind": "bogus", "op_ordinal": 2},
            ]
        }
        with pytest.raises(
            ValueError, match=r"events\[1\]: unknown fault kind 'bogus'"
        ):
            FaultPlan.from_dict(data)

    def test_malformed_field_names_the_entry(self):
        data = {"events": [{"kind": "grown_bad", "at_us": "soon", "block": 1}]}
        with pytest.raises(
            ValueError, match=r"events\[0\]: at_us must be a number"
        ):
            FaultPlan.from_dict(data)
        data = {"events": [{"kind": "power_cut", "op_ordinal": 1.5}]}
        with pytest.raises(
            ValueError, match=r"events\[0\]: op_ordinal must be an integer"
        ):
            FaultPlan.from_dict(data)

    def test_unknown_event_field_rejected(self):
        data = {"events": [{"kind": "power_cut", "op_ordinal": 3, "when": 1}]}
        with pytest.raises(
            ValueError, match=r"events\[0\]: unknown fault event field"
        ):
            FaultPlan.from_dict(data)

    def test_missing_kind_rejected(self):
        data = {"events": [{"op_ordinal": 3}]}
        with pytest.raises(ValueError, match=r"events\[0\]: .*'kind'"):
            FaultPlan.from_dict(data)

    def test_events_must_be_a_list(self):
        with pytest.raises(ValueError, match="events must be a list"):
            FaultPlan.from_dict({"events": {"kind": "power_cut"}})

    def test_file_round_trip(self, tmp_path):
        plan = self._plan()
        path = save_plan(plan, tmp_path / "plan.json")
        assert load_plan(path) == plan

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_plan(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            load_plan(path)
