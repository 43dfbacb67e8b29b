"""Command-line front-end: paper artifacts, traced runs, trace inspection.

Usage::

    ida-repro list
    ida-repro fig8  [--scale quick|bench|full] [--workloads usr_1,proj_1]
    ida-repro table4 --scale bench
    ida-repro all --scale quick
    ida-repro health --scale bench --json-out health.json
    ida-repro run --scale tiny --policy fcfs --trace /tmp/t.jsonl --report /tmp/run.json
    ida-repro run --scale tiny --health --report /tmp/run.json
    ida-repro profile --system ida-e20 --workload usr_1 --out /tmp/trace.json
    ida-repro inspect /tmp/t.jsonl --top 5
    ida-repro inspect /tmp/t.jsonl --last 20
    ida-repro inspect /tmp/t.jsonl --format json

An artifact run (one artifact, or ``all`` of them) plans every unit it
needs, runs each distinct unit once, and reduces each artifact from the
shared results (see :mod:`repro.experiments.artifacts`).

Every artifact (one at a time, not ``all``) accepts ``--json-out PATH``
and writes ``{"kind": <artifact name>, "result": <result>}`` there;
``result`` is the artifact's return value encoded by
:func:`~repro.experiments.reporting.jsonable` (dataclasses become
objects, tuples lists, enums their values).  Values the formatter
derives from the result (totals, averages, savings) are not repeated.

(The ``repro`` console script is an alias of ``ida-repro``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .obs import (
    DEFAULT_READ_P99_SLO,
    Instruments,
    IntervalCollector,
    Telemetry,
    TraceLoadError,
    format_last_spans,
    format_trace_summary,
    load_trace_safe,
)

from .experiments import (
    ARTIFACTS,
    RunScale,
    RunUnit,
    SweepExecutor,
    plan_artifacts,
    run_plans,
    unit_union,
)
from .experiments.reporting import (
    jsonable,
    manifest_for_payload,
    write_run_manifest,
)
from .sim.policy import POLICIES

__all__ = ["main", "ARTIFACTS"]

#: ``--policy`` help, built from the policy table.
_POLICY_HELP = (
    "scheduling policy: " + " or ".join(POLICIES) + " (default: read-first, Table II)"
)

_SCALES = {
    "tiny": RunScale.tiny,
    "quick": RunScale.quick,
    "bench": RunScale.bench,
    "full": RunScale.full,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ida-repro",
        description="Regenerate artifacts of the MICRO'18 IDA-coding paper.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + ["list", "all"],
        help="artifact to regenerate ('list' shows options, 'all' runs everything)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="bench",
        help="simulation scale (default: bench)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload subset (default: the paper's 11)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep fan-out (default: 1 = inline)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="on a failed sweep unit, drop that workload and finish the "
             "artifact from the surviving ones instead of aborting",
    )
    parser.add_argument(
        "--snapshots",
        action="store_true",
        help="reuse warmed device state across sweep units that share a "
             "warm-up (pure wall-clock knob; results are byte-identical)",
    )
    parser.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        default=None,
        help="spill warm-state snapshots to DIR so they survive the "
             "process and are reused across invocations (implies "
             "--snapshots)",
    )
    parser.add_argument(
        "--cuts",
        type=int,
        default=None,
        metavar="N",
        help="total power-cut points for the 'recover' artifact "
             "(default: 200; other artifacts reject this flag)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write the artifact's result to PATH as JSON: "
             "{\"kind\": <artifact>, \"result\": <result>} "
             "(any single artifact)",
    )
    return parser


def _snapshot_counts(stats: dict) -> str:
    return (
        f"{stats['hits']} hit(s), {stats['misses']} miss(es), "
        f"{stats['fallbacks']} fallback(s)"
    )


def _open_output(path: str):
    """Open ``path`` for writing text, creating missing parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return target.open("w", encoding="utf-8")


def _parse_system(name: str):
    """Resolve a system name ("baseline", "ida", "ida-e20", ...)."""
    from .experiments.systems import baseline, ida

    name = name.lower()
    if name == "baseline":
        return baseline()
    if name == "ida":
        return ida(0.2)
    if name.startswith("ida-e"):
        try:
            return ida(int(name[len("ida-e"):]) / 100.0)
        except ValueError:
            pass
    raise SystemExit(f"unknown system {name!r}; use baseline, ida, or ida-eNN")


def _build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ida-repro run",
        description="Run one (system, workload) simulation with observability.",
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    parser.add_argument("--workload", default="usr_1", help="workload name (Table III)")
    parser.add_argument("--system", default="ida-e20",
                        help="baseline, ida, or ida-eNN (default: ida-e20)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--policy", default="read-first", help=_POLICY_HELP)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL event trace to PATH")
    parser.add_argument("--interval-us", type=float, default=None, metavar="N",
                        help="collect an interval time-series every N simulated us")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the run manifest (JSON) to PATH")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (N>1 runs the unit in a pool; "
                             "output is identical either way)")
    parser.add_argument("--faults", metavar="PATH", default=None,
                        help="inject the fault plan (JSON, see docs/faults.md) "
                             "into the run")
    parser.add_argument("--health", action="store_true",
                        help="attach the device-health monitor (SMART-style "
                             "snapshots + default SLOs); "
                             "the manifest gains a 'health' key")
    parser.add_argument("--snapshots", action="store_true",
                        help="draw the run's warmed device state from the "
                             "warm-state snapshot cache (pure wall-clock "
                             "knob; results are byte-identical)")
    parser.add_argument("--snapshot-dir", metavar="DIR", default=None,
                        help="spill/reuse warm-state snapshots in DIR across "
                             "invocations (implies --snapshots); the "
                             "manifest records hits and misses under "
                             "'execution.snapshots'")
    return parser


def _cmd_run(argv: list[str]) -> int:
    from .workloads import workload

    args = _build_run_parser().parse_args(argv)
    system = _parse_system(args.system)
    plan = None
    if args.faults:
        from .faults import load_plan

        try:
            plan = load_plan(args.faults)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load fault plan {args.faults!r}: {exc}") from None
    try:
        system = system.with_policy(args.policy)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        workload(args.workload)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    scale = _SCALES[args.scale]()
    if args.interval_us is not None and args.interval_us <= 0:
        raise SystemExit("--interval-us must be positive")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")

    instruments = Instruments(
        trace_path=args.trace,
        interval_us=args.interval_us,
        health=args.health,
        slo=(DEFAULT_READ_P99_SLO,) if args.health else None,
    )
    unit = RunUnit(
        system, args.workload, scale, seed=args.seed, faults=plan,
        instruments=instruments,
    )
    executor = SweepExecutor(
        jobs=args.jobs, snapshots=args.snapshots,
        snapshot_dir=args.snapshot_dir,
    )
    started = time.time()
    payload = executor.map([unit])[0]
    elapsed = time.time() - started
    telemetry = payload.telemetry
    snapshot_stats = (
        dict(executor.snapshot_stats) if executor.snapshots else None
    )

    def _us(value: float | None) -> str:
        # percentiles are None for zero-sample populations
        return "n/a" if value is None else f"{value:.1f} us"

    read = payload.read_response
    write = payload.write_response
    print(f"{system.name} on {args.workload} @ {args.scale} "
          f"({elapsed:.1f}s wall, seed {args.seed}, policy {system.policy}, "
          f"jobs {args.jobs})")
    print(f"  reads : {read['count']}  mean {read['mean_us']:.1f} us  "
          f"p95 {_us(read['p95_us'])}  p99 {_us(read['p99_us'])}")
    print(f"  writes: {write['count']}  mean {write['mean_us']:.1f} us")
    print(f"  throughput: {payload.throughput_mb_s:.2f} MB/s  "
          f"utilisation: die {payload.utilisation.get('die', 0.0):.1%} / "
          f"channel {payload.utilisation.get('channel', 0.0):.1%}")
    if payload.faults is not None:
        fired = payload.faults.get("fired", {})
        active = {k: v for k, v in fired.items() if v}
        print(f"  faults: {len(payload.faults.get('events', []))} events "
              f"fired {active or '(none)'}")
    if telemetry["health"] is not None:
        summary = telemetry["health"].get("summary", {})
        wear = summary.get("wear", {})
        print(f"  health: {summary.get('samples', 0)} samples  "
              f"wear p99 {wear.get('p99', 0):.0f} erases  "
              f"retired {summary.get('retired_blocks', 0)}  "
              f"retries {summary.get('read_retries', 0)}  "
              f"IDA exposure {summary.get('ida_exposure', 0.0):.1%}")
        slo = telemetry["health"].get("slo")
        if slo is not None:
            breaching = [o["objective"] for o in slo["objectives"] if o["breaching"]]
            print(f"  slo   : {slo['breaches']} breach(es)"
                  + (f", still breaching: {', '.join(breaching)}" if breaching else ""))
    if args.trace:
        # Every line after the header is one emitted event.
        with open(args.trace, encoding="utf-8") as handle:
            events = sum(1 for _ in handle) - 1
        print(f"  trace : {args.trace} ({events} events)")
    if telemetry["time_series"] is not None:
        print(f"  series: {len(telemetry['time_series']['intervals'])} "
              f"intervals of {args.interval_us:.0f} us")
    if snapshot_stats is not None:
        print(f"  snaps : {_snapshot_counts(snapshot_stats)}")
    if args.report:
        manifest = manifest_for_payload(
            payload, jobs=args.jobs, snapshots=snapshot_stats
        )
        path = write_run_manifest(manifest, args.report)
        print(f"  report: {path} (config {manifest['config_hash']})")
    return 0


def _build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ida-repro profile",
        description="Run one simulation with the sim-time profiler and "
                    "export a Perfetto-loadable Chrome trace.",
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    parser.add_argument("--workload", default="usr_1",
                        help="workload name (Table III; default: usr_1)")
    parser.add_argument("--system", default="ida-e20",
                        help="baseline, ida, or ida-eNN (default: ida-e20)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--policy", default="read-first", help=_POLICY_HELP)
    parser.add_argument("--interval-us", type=float, default=None, metavar="N",
                        help="sample utilization/queue-depth timelines every "
                             "N simulated us")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the Chrome trace-event JSON to PATH "
                             "(load it at https://ui.perfetto.dev)")
    parser.add_argument("--aggregate", metavar="PATH", default=None,
                        help="write the compact aggregate profile JSON to PATH")
    parser.add_argument("--max-events", type=int, default=200_000,
                        help="cap on retained trace slices (default: 200000)")
    return parser


def _cmd_profile(argv: list[str]) -> int:
    import json

    from .experiments.runner import run_workload
    from .obs.profiler import SimProfiler, validate_chrome_trace
    from .workloads import workload

    args = _build_profile_parser().parse_args(argv)
    system = _parse_system(args.system)
    try:
        system = system.with_policy(args.policy)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        spec = workload(args.workload)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    if args.interval_us is not None and args.interval_us <= 0:
        raise SystemExit("--interval-us must be positive")
    if args.max_events < 1:
        raise SystemExit("--max-events must be >= 1")
    scale = _SCALES[args.scale]()

    profiler = SimProfiler(keep_events=args.out is not None,
                           max_events=args.max_events)
    collector = (
        IntervalCollector(args.interval_us) if args.interval_us else None
    )
    started = time.time()
    result = run_workload(
        system, spec, scale, seed=args.seed,
        telemetry=Telemetry(collector=collector, profiler=profiler),
    )
    elapsed = time.time() - started

    aggregate = result.telemetry["profile"]
    print(f"{system.name} on {args.workload} @ {args.scale} "
          f"({elapsed:.1f}s wall, seed {args.seed}, policy {system.policy})")
    for kind in ("read", "write"):
        attribution = aggregate["requests"].get(kind)
        if attribution is None:
            continue
        print(f"  {kind:5s}: {attribution['count']} requests  "
              f"mean {attribution['mean_response_us']:.1f} us = "
              f"wait {attribution['mean_queue_wait_us']:.1f}"
              + "".join(
                  f" + {stage} {us:.1f}"
                  for stage, us in attribution["mean_service_us"].items()
              )
              + f" + host {attribution['mean_host_overhead_us']:.1f}")
    print(f"  attribution residual: {aggregate['max_residual_us']:.3g} us")

    if args.out:
        trace = profiler.to_chrome_trace()
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"  trace problem: {problem}", file=sys.stderr)
            raise SystemExit("refusing to write an invalid Chrome trace")
        with _open_output(args.out) as handle:
            json.dump(trace, handle)
        print(f"  trace : {args.out} ({len(trace['traceEvents'])} events, "
              f"{aggregate['events_dropped']} dropped; "
              "open in https://ui.perfetto.dev)")
    if args.aggregate:
        with _open_output(args.aggregate) as handle:
            json.dump(aggregate, handle, indent=2, sort_keys=True)
        print(f"  aggregate: {args.aggregate}")
    return 0


def _cmd_inspect(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ida-repro inspect",
        description="Summarise a JSONL trace: slowest reads, utilisation.",
    )
    parser.add_argument("trace", help="path to a JSONL trace file")
    parser.add_argument("--top", type=int, default=10,
                        help="how many slowest reads to show (default: 10)")
    parser.add_argument("--last", type=int, default=None, metavar="N",
                        help="show only the final N request spans instead "
                             "of the summary")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format: human-readable text (default) "
                             "or the JSON summary dict")
    args = parser.parse_args(argv)
    if args.last is not None and args.last < 1:
        raise SystemExit("--last must be >= 1")
    if args.last is not None and args.format == "json":
        raise SystemExit("--last is text-only; drop --format json")

    try:
        events, warnings = load_trace_safe(args.trace)
    except TraceLoadError as exc:
        raise SystemExit(str(exc)) from None
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.format == "json":
        import json

        from .obs import summarize_trace

        print(json.dumps(summarize_trace(events, top=args.top).to_dict(), indent=2))
        return 0
    if not events:
        print(f"{args.trace} contains no events")
        return 0
    if args.last is not None:
        print(format_last_spans(events, args.last))
        return 0
    print(format_trace_summary(events, top=args.top))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from .workloads import workload

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _cmd_run(argv[1:])
    if argv and argv[0] == "profile":
        return _cmd_profile(argv[1:])
    if argv and argv[0] == "inspect":
        return _cmd_inspect(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.artifact == "list":
        for name in sorted(ARTIFACTS):
            print(name)
        return 0
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    scale = _SCALES[args.scale]()
    workload_names = args.workloads.split(",") if args.workloads else None
    for workload_name in workload_names or ():
        try:
            workload(workload_name)
        except KeyError as exc:
            raise SystemExit(exc.args[0]) from None
    targets = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    if args.json_out and len(targets) != 1:
        raise SystemExit("--json-out needs a single artifact, not 'all'")
    if args.cuts is not None:
        if targets != ["recover"]:
            raise SystemExit("--cuts only applies to the 'recover' artifact")
        if args.cuts < 1:
            raise SystemExit("--cuts must be >= 1")
    executor = SweepExecutor(
        jobs=args.jobs,
        progress=print if (args.jobs > 1 or args.keep_going) else None,
        keep_going=args.keep_going,
        snapshots=args.snapshots,
        snapshot_dir=args.snapshot_dir,
    )
    axes = {"recover": {"cuts": args.cuts}} if args.cuts is not None else None
    started = time.time()
    plans = plan_artifacts(targets, scale, workload_names, axes=axes)
    results = run_plans(plans, executor)
    elapsed = time.time() - started
    if args.json_out:
        document = {"kind": args.artifact, "result": jsonable(results[args.artifact])}
        write_run_manifest(document, args.json_out)
    if args.artifact == "all":
        timing = f"[all: {elapsed:.1f}s, {len(unit_union(plans))} unit(s)]"
    else:
        timing = f"[{args.artifact}: {elapsed:.1f}s]"
    if executor.snapshots:
        timing += f" [snapshots: {_snapshot_counts(executor.snapshot_stats)}]"
    texts = [ARTIFACTS[name].format(result) for name, result in results.items()]
    print("\n\n".join(texts) + f"\n{timing}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
