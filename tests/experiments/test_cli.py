"""Tests for the CLI front-end (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import ARTIFACTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_every_artifact_has_runner_and_formatter(self):
        for name, (plan, reduce, formatter) in ARTIFACTS.items():
            assert callable(plan), name
            assert callable(reduce), name
            assert callable(formatter), name

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["fig8", "--scale", "galactic"])

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_every_artifact_writes_json_envelope(self, name, tmp_path):
        import json

        out_path = tmp_path / f"{name}.json"
        args = [name, "--scale", "tiny", "--json-out", str(out_path)]
        if name == "recover":
            args += ["--workloads", "proj_1", "--cuts", "2"]
        else:
            args += ["--workloads", "hm_1"]
        assert main(args) == 0
        data = json.loads(out_path.read_text())
        assert list(data) == ["kind", "result"]
        assert data["kind"] == name
        assert data["result"]

    def test_json_out_creates_missing_parent_directories(self, tmp_path):
        import json

        out_path = tmp_path / "a" / "b.json"
        args = ["breakdown", "--scale", "tiny", "--workloads", "hm_1"]
        assert main(args + ["--json-out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["kind"] == "breakdown"

    @pytest.mark.parametrize(
        "names, bad", [("hm_1,nope", "'nope'"), ("hm_1,,", "''"), ("nope", "'nope'")]
    )
    def test_rejects_unknown_workload_before_any_unit_runs(
        self, names, bad, monkeypatch
    ):
        def plan_artifacts(*args, **kwargs):
            raise AssertionError("an artifact ran before --workloads was checked")

        monkeypatch.setattr("repro.cli.plan_artifacts", plan_artifacts)
        with pytest.raises(SystemExit, match=f"^unknown workload {bad}"):
            main(["fig8", "--scale", "tiny", "--workloads", names])

    def test_json_out_rejected_for_all(self):
        with pytest.raises(SystemExit, match="single artifact"):
            main(["all", "--scale", "tiny", "--json-out", "x.json"])

    def test_runs_one_artifact_quick(self, capsys):
        # Run one cheap artifact end to end through the CLI.
        code = main(["table4", "--scale", "quick", "--workloads", "proj_3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "proj_3" in out


class TestFaultsCli:
    def _plan_path(self, tmp_path):
        from repro.faults import FaultEvent, FaultKind, FaultPlan, save_plan

        plan = FaultPlan(
            events=(FaultEvent(kind=FaultKind.PROGRAM_FAIL, op_ordinal=2),),
            read_reclaim_threshold=12,
            name="cli-test",
        )
        return save_plan(plan, tmp_path / "plan.json")

    def test_run_with_faults_plan(self, capsys, tmp_path, monkeypatch):
        path = self._plan_path(tmp_path)
        report = tmp_path / "run.json"
        code = main(
            [
                "run",
                "--scale",
                "tiny",
                "--faults",
                str(path),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        import json

        manifest = json.loads(report.read_text())
        assert manifest["faults"]["plan"]["name"] == "cli-test"
        assert manifest["config"]["faults"]["name"] == "cli-test"

    def test_run_rejects_broken_plan(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["run", "--scale", "tiny", "--faults", str(path)])

    def test_faults_artifact_with_json_out(self, capsys, tmp_path):
        out_path = tmp_path / "faults.json"
        code = main(
            [
                "faults",
                "--scale",
                "tiny",
                "--workloads",
                "hm_1",
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "density=0" in capsys.readouterr().out
        import json

        data = json.loads(out_path.read_text())
        assert data["kind"] == "faults"
        assert data["result"]["cells"]

    @pytest.fixture
    def usr_1_fails(self, monkeypatch):
        # Unknown names never reach a unit (the CLI rejects them), so a
        # catalog workload's units are made to fail instead.
        import repro.experiments.parallel as parallel

        execute_unit = parallel.execute_unit

        def failing(unit, warm=None):
            if unit.workload == "usr_1":
                raise RuntimeError("injected unit failure")
            return execute_unit(unit, warm=warm)

        monkeypatch.setattr(parallel, "execute_unit", failing)

    def test_keep_going_drops_failed_workload(self, capsys, usr_1_fails):
        code = main(
            ["fig8", "--scale", "tiny", "--workloads", "hm_1,usr_1", "--keep-going"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dropping workload 'usr_1'" in out
        assert "hm_1" in out

    def test_without_keep_going_failure_propagates(self, usr_1_fails):
        from repro.experiments.parallel import SweepError

        with pytest.raises(SweepError, match="injected unit failure"):
            main(["fig8", "--scale", "tiny", "--workloads", "hm_1,usr_1"])


class TestRunSubcommand:
    def test_plain_run(self, capsys):
        assert main(["run", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "ida-e20 on usr_1 @ tiny" in out
        assert "reads" in out
        assert "utilisation" in out

    def test_run_with_all_observability_outputs(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        report = tmp_path / "run.json"
        code = main([
            "run", "--scale", "tiny", "--system", "baseline",
            "--trace", str(trace),
            "--interval-us", "10000",
            "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace :" in out
        assert "series:" in out
        assert "report:" in out
        assert trace.exists()
        assert report.exists()
        import json

        manifest = json.loads(report.read_text())
        assert manifest["kind"] == "run_manifest"
        assert manifest["config"]["system"]["name"] == "baseline"
        assert "time_series" in manifest

    def test_run_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["run", "--scale", "tiny", "--system", "warp-drive"])

    def test_run_with_policy(self, capsys, tmp_path):
        report = tmp_path / "run.json"
        code = main([
            "run", "--scale", "tiny", "--workload", "hm_1",
            "--policy", "fcfs", "--report", str(report),
        ])
        assert code == 0
        assert "policy fcfs" in capsys.readouterr().out
        import json

        manifest = json.loads(report.read_text())
        assert manifest["config"]["system"]["policy"] == "fcfs"

    def test_run_rejects_unknown_policy_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scale", "tiny", "--policy", "psychic"])
        message = str(excinfo.value)
        assert "psychic" in message
        for name in ("read-first", "fcfs", "throttled"):
            assert name in message


class TestInspectSubcommand:
    def test_inspect_traced_run(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "--scale", "tiny", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "slowest reads" in out
        assert "read_span" in out
        assert "utilisation" in out

    def test_inspect_last_window(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "--scale", "tiny", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace), "--last", "4"]) == 0
        out = capsys.readouterr().out
        assert "last 4 of" in out
        assert "slowest reads" not in out

    def test_inspect_empty_trace(self, capsys, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["inspect", str(trace)]) == 0
        assert "contains no events" in capsys.readouterr().out

    def test_inspect_truncated_final_line_warns(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"kind": "gc", "t_us": 1.0}\n{"kind": "gc"')
        assert main(["inspect", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "dropped truncated final event" in captured.err

    def test_inspect_missing_file(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["inspect", "/nonexistent/t.jsonl"])

    def test_inspect_rejects_bad_last(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        with pytest.raises(SystemExit):
            main(["inspect", str(trace), "--last", "0"])


class TestProfileSubcommand:
    def test_profile_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        aggregate = tmp_path / "agg.json"
        code = main([
            "profile", "--system", "ida-e20", "--workload", "usr_1",
            "--scale", "tiny", "--out", str(trace),
            "--aggregate", str(aggregate),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "attribution residual" in out
        assert "perfetto" in out.lower()
        exported = json.loads(trace.read_text())
        assert validate_chrome_trace(exported) == []
        profile = json.loads(aggregate.read_text())
        assert profile["requests"]["read"]["count"] > 0
        assert profile["max_residual_us"] <= 1e-6

    def test_profile_out_creates_missing_parent_directories(self, tmp_path):
        import json

        trace = tmp_path / "a" / "t.json"
        assert main(["profile", "--scale", "tiny", "--out", str(trace)]) == 0
        assert json.loads(trace.read_text())["traceEvents"]

    def test_profile_aggregate_creates_missing_parent_directories(
        self, tmp_path
    ):
        import json

        aggregate = tmp_path / "a" / "agg.json"
        args = ["profile", "--scale", "tiny", "--aggregate", str(aggregate)]
        assert main(args) == 0
        assert json.loads(aggregate.read_text())["requests"]

    def test_profile_summary_only(self, capsys):
        assert main(["profile", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "read " in out
        assert "wait" in out

    def test_profile_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["profile", "--workload", "proj_0"])

    def test_profile_rejects_bad_interval(self):
        with pytest.raises(SystemExit):
            main(["profile", "--interval-us", "-5"])


class TestHealthArtifactCli:
    def test_health_artifact_with_json_and_prom(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "health.json"
        prom_path = tmp_path / "health.prom"
        code = main(
            [
                "health",
                "--scale",
                "tiny",
                "--workloads",
                "hm_1",
                "--json-out",
                str(json_path),
                "--prom",
                str(prom_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO breaches" in out
        assert "retry-rate [" in out
        data = json.loads(json_path.read_text())
        assert data["kind"] == "health"
        assert len(data["result"]["cells"]) == 4
        prom = prom_path.read_text()
        assert "# TYPE device_wear_p99_erases gauge" in prom
        assert 'condition="faulted"' in prom

    def test_prom_creates_missing_parent_directories(self, tmp_path):
        prom_path = tmp_path / "a" / "b.prom"
        args = ["health", "--scale", "tiny", "--workloads", "hm_1"]
        assert main(args + ["--prom", str(prom_path)]) == 0
        assert "# TYPE device_wear_p99_erases gauge" in prom_path.read_text()

    def test_prom_rejected_for_unsupported_artifact(self):
        with pytest.raises(SystemExit, match="--prom is not supported"):
            main(["faults", "--scale", "tiny", "--prom", "x.prom"])

    def test_prom_rejected_for_all(self):
        with pytest.raises(SystemExit, match="single artifact"):
            main(["all", "--scale", "tiny", "--prom", "x.prom"])


class TestRunHealthFlag:
    def test_run_with_health_prints_summary_and_manifest(self, capsys, tmp_path):
        import json

        report = tmp_path / "run.json"
        code = main(
            [
                "run", "--scale", "tiny", "--health", "--report", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "health:" in out
        assert "slo   :" in out
        manifest = json.loads(report.read_text())
        assert manifest["schema_version"] == manifest["schema"]
        health = manifest["health"]
        assert health["summary"]["samples"] > 0
        assert health["slo"]["objectives"]
        assert health["registry"]["metrics"]

    def test_run_health_pool_matches_inline(self, capsys, tmp_path):
        import json

        inline, pooled = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--scale", "tiny", "--health",
                     "--report", str(inline)]) == 0
        assert main(["run", "--scale", "tiny", "--health", "--jobs", "2",
                     "--report", str(pooled)]) == 0
        capsys.readouterr()
        a = json.loads(inline.read_text())
        b = json.loads(pooled.read_text())
        assert a["health"] == b["health"]

    def test_run_without_health_omits_key(self, capsys, tmp_path):
        import json

        report = tmp_path / "run.json"
        assert main(["run", "--scale", "tiny", "--report", str(report)]) == 0
        capsys.readouterr()
        manifest = json.loads(report.read_text())
        assert "health" not in manifest
        assert manifest["schema_version"] == manifest["schema"]


class TestInspectJsonFormat:
    def test_inspect_format_json(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        assert main(["run", "--scale", "tiny", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace), "--format", "json", "--top", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["read_count"] > 0
        assert len(summary["slowest_reads"]) == 2
        assert "slo_breaches" in summary
        assert summary["event_counts"]["read_span"] == summary["read_count"]

    def test_inspect_json_rejects_last(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        with pytest.raises(SystemExit, match="text-only"):
            main(["inspect", str(trace), "--last", "2", "--format", "json"])


class TestSnapshotsCli:
    def test_run_snapshot_dir_misses_then_hits(self, capsys, tmp_path):
        import json

        spill = tmp_path / "snaps"
        reports = [tmp_path / "first.json", tmp_path / "second.json"]
        outs = []
        for report in reports:
            assert main(["run", "--scale", "tiny", "--snapshot-dir", str(spill),
                         "--report", str(report)]) == 0
            outs.append(capsys.readouterr().out)
        assert "snaps : 0 hit(s), 1 miss(es), 0 fallback(s)" in outs[0]
        assert "snaps : 1 hit(s), 0 miss(es), 0 fallback(s)" in outs[1]
        first, second = (json.loads(r.read_text()) for r in reports)
        assert first["execution"]["snapshots"] == {
            "hits": 0, "misses": 1, "fallbacks": 0,
        }
        assert second["execution"]["snapshots"] == {
            "hits": 1, "misses": 0, "fallbacks": 0,
        }
        assert first["metrics"] == second["metrics"]
        assert first["config_hash"] == second["config_hash"]

    def test_artifact_snapshots_line(self, capsys):
        import re

        assert main(["fig9", "--scale", "tiny", "--workloads", "hm_1",
                     "--snapshots"]) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"\[snapshots: (\d+) hit\(s\), 1 miss\(es\), 0 fallback\(s\)\]", out
        )
        assert match is not None, out
        assert int(match.group(1)) > 0
