#!/usr/bin/env python3
"""Microbenchmark: simulated-ops throughput of the op pipeline.

Each physical op runs as an :class:`~repro.sim.pipeline.OpPipeline`
over an :class:`~repro.sim.pipeline.OpPlan` compiled once per op shape:
flat per-boundary methods, no generic stage walk, no observer work
unless something observes.  A change to that hot path must not slow
simulation down: the acceptance gate is "no worse than 5% below the
baseline recorded before the change".  Because absolute wall time is
machine-dependent, the comparison runs in two steps:

* on the tree *before* the change:  ``bench_pipeline.py --record base.json``
* on the tree *after* the change:   ``bench_pipeline.py --check --baseline base.json``

which fails (exit 1) when the new median wall time exceeds the recorded
one by more than ``--threshold`` percent.  Without ``--baseline`` the
script just reports wall seconds and simulated physical ops per second
(``SimMetrics.phys_ops_dispatched`` over median wall time) for the
read-first and fcfs policies.

Run:  python benchmarks/bench_pipeline.py [--scale quick] [--reps 5]
                                          [--record PATH]
                                          [--check --baseline PATH]
                                          [--append-trajectory PATH]

``--append-trajectory`` appends one compact entry (ops/sec per policy,
engine events/sec, scale, timestamp, git revision when available) to a JSON-array file — CI points it at
``benchmarks/BENCH_trajectory.json`` so the throughput history
accumulates one point per run and regressions show up as a trend, not
just a single-gate pass/fail.  Entries from different scales are
*incomparable* (a tiny run does a fraction of a quick run's work), so
the trend comparison only ever looks at the latest predecessor with the
same ``scale`` — entries at other scales, or from other benchmarks
sharing the file (``bench_parallel_sweep.py`` tags its entries with a
different ``bench``), are skipped.  ``--check-trajectory`` turns the
comparison into a gate: exit 1 when read-first ops/sec falls more than
``--trajectory-threshold`` percent below the same-scale predecessor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.experiments import RunScale, ida, run_workload
from repro.sim.engine import SimEngine
from repro.workloads import workload


def time_engine(events: int, reps: int) -> list[float]:
    """Raw event-loop throughput: self-rescheduling tick chains.

    Exercises exactly the ``SimEngine.run`` hot loop (pop, clock advance,
    callback dispatch, re-push) with trivial callbacks, so changes to the
    loop show up undiluted by FTL work.
    """
    chains = 64
    per_chain = events // chains
    times: list[float] = []
    for _ in range(reps):
        engine = SimEngine()

        def make_tick(period: float):
            remaining = per_chain

            def tick() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining > 0:
                    engine.after(period, tick)

            return tick

        for chain in range(chains):
            engine.after(0.5 + chain * 0.01, make_tick(1.0 + chain * 0.01))
        started = time.perf_counter()
        engine.run()
        times.append(time.perf_counter() - started)
        assert engine.processed == chains * per_chain
    return times


def time_runs(scale: RunScale, policy: str, reps: int) -> tuple[list[float], int]:
    """Median-able wall times plus the per-run dispatched-op count."""
    spec = workload("usr_1")
    system = ida(0.2).with_policy(policy)
    times: list[float] = []
    ops = 0
    for _ in range(reps):
        started = time.perf_counter()
        result = run_workload(system, spec, scale, seed=11)
        times.append(time.perf_counter() - started)
        ops = result.metrics.phys_ops_dispatched
    return times, ops


def _git_rev() -> str | None:
    """Current short revision, or None outside a git checkout."""
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=["tiny", "quick", "bench"], default="quick")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="write the measured medians to PATH (JSON)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline JSON from --record on the reference tree")
    parser.add_argument("--check", action="store_true",
                        help="fail if slower than the baseline beyond the threshold")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="max tolerated slowdown in percent (default: 5)")
    parser.add_argument("--append-trajectory", metavar="PATH", default=None,
                        help="append this run's ops/sec to a JSON-array "
                             "history file (created if missing); trend "
                             "comparison uses same-scale predecessors only")
    parser.add_argument("--check-trajectory", action="store_true",
                        help="fail when read-first ops/sec drops more than "
                             "--trajectory-threshold percent below the "
                             "latest same-scale trajectory entry")
    parser.add_argument("--trajectory-threshold", type=float, default=50.0,
                        help="max tolerated same-scale ops/sec drop in "
                             "percent (default: 50 — generous, because "
                             "trajectory points come from heterogeneous "
                             "machines)")
    args = parser.parse_args(argv)
    if args.check and not args.baseline:
        parser.error("--check requires --baseline")
    if args.check_trajectory and not args.append_trajectory:
        parser.error("--check-trajectory requires --append-trajectory")

    scale = getattr(RunScale, args.scale)()
    time_runs(scale, "read-first", 1)  # warm-up

    report: dict = {"scale": args.scale, "reps": args.reps, "policies": {}}
    print(f"scale={args.scale} reps={args.reps} (median wall seconds)")
    for policy in ("read-first", "fcfs"):
        times, ops = time_runs(scale, policy, args.reps)
        median = statistics.median(times)
        ops_per_s = ops / median if median > 0 else 0.0
        report["policies"][policy] = {
            "median_s": median,
            "phys_ops": ops,
            "ops_per_s": ops_per_s,
        }
        print(f"  {policy:<11}: {median:.3f} s  "
              f"({ops} phys ops, {ops_per_s:,.0f} ops/s)")

    engine_events = 512_000
    engine_times = time_engine(engine_events, args.reps)
    engine_median = statistics.median(engine_times)
    events_per_s = engine_events / engine_median if engine_median > 0 else 0.0
    report["engine"] = {
        "median_s": engine_median,
        "events": engine_events,
        "events_per_s": events_per_s,
    }
    print(f"  {'engine':<11}: {engine_median:.3f} s  "
          f"({engine_events} events, {events_per_s:,.0f} events/s)")

    if args.record:
        path = Path(args.record)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"recorded -> {path}")

    trajectory_failed = False
    if args.append_trajectory:
        path = Path(args.append_trajectory)
        entry = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_rev": _git_rev(),
            "bench": "pipeline",
            "scale": args.scale,
            "reps": args.reps,
            "ops_per_s": {
                policy: stats["ops_per_s"]
                for policy, stats in report["policies"].items()
            },
            "engine_events_per_s": report["engine"]["events_per_s"],
        }
        history: list = []
        if path.exists():
            try:
                history = json.loads(path.read_text())
            except json.JSONDecodeError:
                print(f"warning: {path} is not valid JSON, starting fresh")
            if not isinstance(history, list):
                print(f"warning: {path} is not a JSON array, starting fresh")
                history = []
        # Only a same-scale pipeline entry is a valid comparison point:
        # other scales do a different amount of simulated work per run,
        # and other benches (bench_parallel_sweep) record different
        # metrics entirely.  Early entries predate the ``bench`` tag, so
        # the ``ops_per_s`` key doubles as the pipeline discriminator.
        predecessor = next(
            (e for e in reversed(history)
             if e.get("scale") == args.scale and "ops_per_s" in e
             and e.get("bench", "pipeline") == "pipeline"),
            None,
        )
        history.append(entry)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(history, indent=1) + "\n")
        print(f"trajectory -> {path} ({len(history)} entries)")
        if predecessor is None:
            print(f"  no same-scale predecessor at scale={args.scale} — "
                  f"nothing to compare")
        else:
            for policy, now in entry["ops_per_s"].items():
                then = predecessor["ops_per_s"].get(policy)
                if not then:
                    continue
                delta = (now / then - 1.0) * 100.0
                print(f"  {policy:<11}: {now:,.0f} ops/s vs {then:,.0f} "
                      f"at {predecessor.get('git_rev')} ({delta:+.1f}%)")
                if policy == "read-first" and -delta > args.trajectory_threshold:
                    trajectory_failed = True
            then = predecessor.get("engine_events_per_s")
            if then:
                delta = (entry["engine_events_per_s"] / then - 1.0) * 100.0
                print(f"  {'engine':<11}: "
                      f"{entry['engine_events_per_s']:,.0f} events/s vs "
                      f"{then:,.0f} at {predecessor.get('git_rev')} "
                      f"({delta:+.1f}%)")
        if args.check_trajectory and trajectory_failed:
            print(f"FAIL: read-first ops/s dropped more than "
                  f"{args.trajectory_threshold:.0f}% below the same-scale "
                  f"trajectory predecessor")
            return 1

    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        failed = False
        for policy, current in report["policies"].items():
            reference = base.get("policies", {}).get(policy)
            if reference is None:
                print(f"  {policy}: no baseline entry, skipped")
                continue
            delta = (current["median_s"] / reference["median_s"] - 1.0) * 100.0
            verdict = "OK" if delta <= args.threshold else "FAIL"
            print(f"  {policy:<11}: {delta:+.1f}% vs baseline "
                  f"({reference['median_s']:.3f} s)  [{verdict}]")
            failed = failed or delta > args.threshold
        engine_base = base.get("engine")
        if engine_base is None:
            print("  engine: no baseline entry, skipped")
        else:
            delta = (
                report["engine"]["median_s"] / engine_base["median_s"] - 1.0
            ) * 100.0
            verdict = "OK" if delta <= args.threshold else "FAIL"
            print(f"  {'engine':<11}: {delta:+.1f}% vs baseline "
                  f"({engine_base['median_s']:.3f} s)  [{verdict}]")
            failed = failed or delta > args.threshold
        if args.check and failed:
            print(f"FAIL: slowdown exceeds {args.threshold:.1f}%")
            return 1

    return 0


if __name__ == "__main__":
    sys.exit(main())
