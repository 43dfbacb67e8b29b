"""Tests of the repository benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
The smoke tests drive every workload end to end at ``RunScale.tiny``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from report import END_TO_END, PER_LAYER  # noqa: E402
from suite import WORKLOADS, Probe, check_pass, replay_pass, sweep_units  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(workload: str) -> None:
    done = _bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.1",
        "--trace", "1", "--scale", "tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_tiny_untraced_run_reports_end_to_end_metrics() -> None:
    done = _bench(
        "--workload", "replay", "--seed", "5", "--seconds", "0.1",
        "--trace", "0", "--scale", "tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done)
    assert result["correct"] is True
    assert list(result["metrics"]) == [name for name, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("setup_s", "run_s", "phys_ops_per_s", "peak_rss_mb", "fail_ratio",
                 "read_p50_us", "read_p99_us", "ida_gain_pct"):
        assert f"  {name} " in done.stdout


def test_altered_digest_fails_the_pass() -> None:
    probe = Probe()
    with probe.installed():
        result = replay_pass(5, probe, tiny=True)
    problems, failed = check_pass(result, result.digest)
    assert problems == [] and failed == 0

    altered = dataclasses.replace(
        result,
        records=[dataclasses.replace(result.records[0], digest="0" * 64)]
        + result.records[1:],
    )
    problems, failed = check_pass(altered, result.digest)
    assert any("differ" in problem for problem in problems)
    assert failed == result.requests


def test_lost_requests_count_as_failed() -> None:
    probe = Probe()
    with probe.installed():
        result = replay_pass(5, probe, tiny=True)
    short = dataclasses.replace(
        result,
        records=[dataclasses.replace(result.records[0], completed=result.records[0].requests - 3)]
        + result.records[1:],
    )
    problems, failed = check_pass(short, result.digest)
    assert failed == 3 and problems


def test_pacer_scales_each_stretch_by_its_calibrations() -> None:
    import signal
    from time import perf_counter

    from pace import REFERENCE_S, TICK_S, Pacer

    pacer = Pacer()
    # Calibrations of 1x, 3x and 1x the reference bracket two 1 s stretches.
    pacer.marks = [(0.0, REFERENCE_S), (1.0 + REFERENCE_S, 1.0 + 4 * REFERENCE_S),
                   (2.0 + 4 * REFERENCE_S, 2.0 + 5 * REFERENCE_S)]
    host, scaled = pacer.seconds(0, 2)
    assert host == pytest.approx(2.0)
    assert scaled == pytest.approx(2 * (1.0 / 2.0))

    before = signal.getsignal(signal.SIGALRM)
    with pacer.ticking():
        first = pacer.mark()
        deadline = perf_counter() + 4 * TICK_S
        while perf_counter() < deadline:
            pass
        last = pacer.mark()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert last - first > 1  # ticks landed between the two marks
    assert pacer.seconds(first, last)[1] > 0


def test_sweep_units_share_one_warm_key() -> None:
    from repro.experiments.parallel import warm_key_for_unit

    for tiny in (True, False):
        units = sweep_units(7, tiny)
        assert len(units) == 12
        assert len({warm_key_for_unit(unit) for unit in units}) == 1


def test_boundaries_the_simulator_lacks_are_skipped() -> None:
    from spans import SpanRecorder, _resolve, traced

    assert _resolve("repro.sim.pipeline", "OpPipeline.no_such_stage") is None
    assert _resolve("repro.sim.no_such_module", "anything") is None
    recorder = SpanRecorder()
    with traced(recorder):
        pass
    assert recorder.absent == []


def test_benchmark_json_matches_the_metric_lists() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_simulator_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(
        "--workload", "replay", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
