"""Tests for the crash-consistency sweep (recovery artifact)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.experiments.config import RunScale
from repro.experiments.parallel import RunUnit
from repro.experiments.recovery_artifact import (
    NEVER_ORDINAL,
    PHASES,
    RecoveryResult,
    _phase_labels,
    choose_cut_ordinals,
    format_recovery,
    probe_census,
    run_recovery_unit,
)
from repro.experiments.artifacts import run_artifact
from repro.experiments.reporting import jsonable
from repro.experiments.systems import ida
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

SCALE = RunScale.tiny()
SYSTEM = ida(0.2)


def _cut_plan(ordinal: int, name: str = "cut") -> FaultPlan:
    return FaultPlan(
        events=(FaultEvent(kind=FaultKind.POWER_CUT, op_ordinal=ordinal),),
        name=name,
    )


def _recover_unit(ordinal: int) -> RunUnit:
    return RunUnit(
        SYSTEM,
        "proj_1",
        SCALE,
        seed=11,
        mode="recover",
        faults=_cut_plan(ordinal),
    )


class TestPhaseLabels:
    def test_plain_stream_is_read_write_gc(self):
        census = ["write", "read", "erase", "write", "read"]
        assert _phase_labels(census) == [
            "write",
            "read",
            "gc",
            "write",
            "read",
        ]

    def test_adjust_opens_a_refresh_window(self):
        census = ["write", "adjust", "write", "read", "write"]
        labels = _phase_labels(census)
        assert labels[0] == "write"
        assert labels[1] == "adjust"
        # Ops right after an ADJUST are the refresh pass's own moves.
        assert labels[2] == "refresh"
        assert labels[3] == "refresh"
        assert labels[4] == "refresh"

    def test_window_closes_and_all_labels_are_known_phases(self):
        census = ["adjust"] + ["write"] * 20
        labels = _phase_labels(census)
        assert labels[9:] == ["write"] * 12  # wake window is 8 ops
        assert set(labels) <= set(PHASES)


class TestChooseCutOrdinals:
    CENSUS = (
        ["write"] * 30 + ["adjust"] + ["write"] * 10 + ["erase"] * 3
        + ["read"] * 20
    )

    def test_deterministic_in_seed(self):
        a = choose_cut_ordinals(self.CENSUS, 12, seed=5)
        b = choose_cut_ordinals(self.CENSUS, 12, seed=5)
        c = choose_cut_ordinals(self.CENSUS, 12, seed=6)
        assert a == b
        assert a != c

    def test_covers_every_phase_the_census_shows(self):
        chosen = choose_cut_ordinals(self.CENSUS, 12, seed=5)
        assert len(chosen) == 12
        assert {phase for _, phase in chosen} == set(
            _phase_labels(self.CENSUS)
        )

    def test_small_pool_shortfall_flows_to_big_pools(self):
        # Only one adjust ordinal exists; the rest of its share must
        # land in the larger phases instead of being silently dropped.
        chosen = choose_cut_ordinals(self.CENSUS, 20, seed=5)
        assert len(chosen) == 20
        assert sum(1 for _, p in chosen if p == "adjust") == 1

    def test_never_exceeds_the_census(self):
        chosen = choose_cut_ordinals(["write"] * 5, 50, seed=5)
        assert [o for o, _ in chosen] == [1, 2, 3, 4, 5]

    def test_ordinals_are_valid_and_unique(self):
        chosen = choose_cut_ordinals(self.CENSUS, 25, seed=5)
        ordinals = [o for o, _ in chosen]
        assert len(set(ordinals)) == len(ordinals)
        assert all(1 <= o <= len(self.CENSUS) for o in ordinals)


class TestRunUnitValidation:
    def test_recover_mode_needs_a_power_cut(self):
        with pytest.raises(ValueError, match="power_cut"):
            RunUnit(SYSTEM, "proj_1", SCALE, seed=11, mode="recover")

    def test_other_fault_kinds_are_not_enough(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=3),
            )
        )
        with pytest.raises(ValueError, match="power_cut"):
            RunUnit(
                SYSTEM, "proj_1", SCALE, seed=11, mode="recover", faults=plan
            )


class TestRunRecoveryUnit:
    def test_mid_run_cut_recovers_clean(self):
        payload = run_recovery_unit(_recover_unit(60))
        assert payload["cut_fired"] is True
        # The counter includes the struck op; the op itself never issues.
        assert payload["ops_at_cut"] == 60
        assert payload["violations"] == []
        assert payload["ok"] is True
        assert payload["mapped_lpns"] > 0
        assert payload["resumed_requests"] > 0

    def test_unfired_cut_is_vacuously_clean(self):
        payload = run_recovery_unit(_recover_unit(NEVER_ORDINAL))
        assert payload["cut_fired"] is False
        assert payload["ok"] is True
        assert payload["violations"] == []


class TestRunRecoverySweep:
    @pytest.fixture(scope="class")
    def result(self) -> RecoveryResult:
        return run_artifact(
            "recover",
            scale=SCALE,
            workload_names=["proj_1"],
            cuts=8,
            seed=11,
        )

    def test_every_cut_is_clean(self, result):
        assert result.total == 8
        assert result.clean == 8
        assert result.violations() == []

    def test_formatting_and_json_round_trip(self, result):
        text = format_recovery(result)
        assert "proj_1" in text
        data = json.loads(json.dumps(jsonable(result)))
        assert all("backend" not in cell for cell in data["cells"])
        assert len(data["cells"]) == 8
        assert all(cell["ok"] is True for cell in data["cells"])


class TestCutSplit:
    def test_remainder_goes_to_the_first_workloads(self):
        # The split is pinned without running any cut: the executor is
        # a stub that reports every unit clean.
        class CleanExecutor:
            progress = None

            def map(self, units):
                return [
                    {
                        "op_ordinal": unit.faults.events[0].op_ordinal,
                        "ok": True,
                        "cut_fired": True,
                        "cut_t_us": 0.0,
                        "acked_writes": 0,
                        "mapped_lpns": 0,
                        "torn_rolled_forward": 0,
                        "relocated_lpns": 0,
                        "resumed_requests": 0,
                        "violations": [],
                    }
                    for unit in units
                ]

        names = ["proj_1", "usr_1", "src2_0"]
        result = run_artifact(
            "recover",
            scale=SCALE,
            workload_names=names,
            cuts=13,
            seed=11,
            executor=CleanExecutor(),
        )
        assert result.total == 13
        per_workload = [
            sum(1 for c in result.cells if c.workload == name) for name in names
        ]
        assert per_workload == [5, 4, 4]


class TestProbeCensus:
    def test_probe_sees_every_dispatch_without_cutting(self):
        census = probe_census(SYSTEM, "proj_1", SCALE, seed=11)
        assert len(census) > SCALE.num_requests  # host ops + GC + refresh
        assert "adjust" in census  # IDA refresh actually ran
        assert set(census) <= {"read", "write", "erase", "adjust"}


class TestGoldenSweep:
    """``tests/golden/recover_tiny.json`` pins the whole crash sweep.

    It is ``repro recover --scale tiny --workloads proj_1 --cuts 12
    --json-out``: every cut's phase, instant, rolled-forward and
    relocated counts, and resumed requests.  A change to the FTL's
    relocation or recovery paths must reproduce it byte for byte; CI
    diffs the pooled (``--jobs 4``) sweep against the same file.
    """

    GOLDEN = Path(__file__).parent.parent / "golden" / "recover_tiny.json"

    def test_inline_sweep_matches_the_pin(self, tmp_path, capsys):
        out = tmp_path / "recover.json"
        argv = ["recover", "--scale", "tiny", "--workloads", "proj_1"]
        assert cli.main([*argv, "--cuts", "12", "--json-out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == self.GOLDEN.read_bytes()
