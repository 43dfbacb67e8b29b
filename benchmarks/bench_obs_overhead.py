#!/usr/bin/env python3
"""Microbenchmark: cost of the observability hooks on uninstrumented runs.

The tracer's null fast path must keep untraced simulations within noise
(the acceptance bar is <= 3% overhead), and the profiler's stage-boundary
hooks must be equally free when no profiler is attached (<= 5%).  This
script times the same (system, workload, seed) run six ways, in two
sections:

Every variant attaches its instruments through one ``telemetry=``
:class:`~repro.obs.Telemetry` (``None`` for the bare variants).

tracer section
  * ``untraced``  — ``telemetry=None`` (the default every experiment uses);
  * ``null``      — an explicit :class:`NullTracer` (same fast path,
    proves the guard itself is free);
  * ``traced``    — a real tracer into an in-memory sink, for context.

profiler section
  * ``disabled``  — no profiler (every pre-existing call site);
  * ``aggregate`` — ``SimProfiler(keep_events=False)``, the worker-pool
    configuration (attribution only, no trace slices);
  * ``full``      — ``SimProfiler()`` retaining Chrome-trace slices.

telemetry section
  * ``disabled``  — no health monitor (the default): the simulator's
    passive hooks all hit their ``is None`` guards and nothing else;
  * ``enabled``   — ``Instruments(health=True, slo=...)``: a
    :class:`HealthMonitor` with its SLO engine, sampling on an interval
    collector 16 times per run.

Run:  python benchmarks/bench_obs_overhead.py [--scale quick] [--reps 5]
                                              [--check] [--threshold 3.0]
                                              [--profiler-threshold 5.0]
                                              [--record PATH]
                                              [--baseline PATH]

With ``--check`` the process exits non-zero when the null-tracer or
health-disabled variant's overhead exceeds ``--threshold`` percent, or
the profiler-disabled variant's exceeds ``--profiler-threshold``
percent.  The gate times only the four variants that run the bare code
path (``untraced``, ``null_tracer``, ``profiler_disabled``,
``health_disabled``), in process CPU seconds, over at least
``GATE_ROUNDS`` rounds whatever ``--reps`` says.  A round runs each of
them once back to back, in an order rotated by one place per round, and
a variant's overhead is the median, over rounds, of its time divided by
the same round's ``untraced`` time.  Process CPU time leaves out the
time other tenants of a shared host hold the CPU; the ratio cancels
the drift that remains; a ``gc.collect()`` before each timed run and the
rotation keep the previous run's garbage and allocator state from
landing on one variant; and the median of many rounds resolves a 3%
bound that three rounds of wall time could not.  The report lines above the gate are best-of-reps wall
seconds over ``--reps`` rounds of all eight variants.  ``--record`` /
``--baseline`` mirror ``bench_pipeline.py``: record times on a
reference tree (committed as ``benchmarks/BENCH_obs.json`` and, with
the health variants, ``benchmarks/BENCH_health.json``), then
``--check --baseline`` on a changed tree fails if any variant slowed
beyond the profiler threshold.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro.experiments import RunScale, ida, run_workload
from repro.obs import (
    DEFAULT_READ_P99_SLO,
    Instruments,
    MemorySink,
    NullTracer,
    SimProfiler,
    Telemetry,
    Tracer,
)
from repro.workloads import workload

#: variant name -> telemetry factory of the run's scaled duration
#: (``None`` = bare run); rebuilt per rep.
VARIANTS = {
    "untraced": None,
    "null_tracer": lambda _: Telemetry(tracer=NullTracer()),
    "full_tracer": lambda _: Telemetry(tracer=Tracer(MemorySink())),
    "profiler_disabled": None,
    "profiler_aggregate": lambda _: Telemetry(
        profiler=SimProfiler(keep_events=False)
    ),
    "profiler_full": lambda _: Telemetry(profiler=SimProfiler()),
    "health_disabled": None,
    "health_enabled": Instruments(
        health=True, slo=(DEFAULT_READ_P99_SLO,)
    ).build,
}


#: The variants whose overhead ``--check`` gates: all run the bare path.
GATED = ("untraced", "null_tracer", "profiler_disabled", "health_disabled")
#: Rounds the gate times at least.  At ``--scale quick`` a run takes
#: ~0.35 s; three rounds of wall time let variants running identical
#: code read up to 35% apart on a shared 2-vCPU VM.
GATE_ROUNDS = 25


def time_variants(
    scale: RunScale,
    reps: int,
    names: tuple[str, ...] = tuple(VARIANTS),
    clock=time.perf_counter,
) -> dict[str, list[float]]:
    """``clock`` seconds per variant and round, interleaved round-robin.

    Variants are interleaved (one rep of each, then the next round)
    rather than timed in sequential blocks, so slow machine drift —
    thermal throttling, a noisy CI neighbour — lands on every variant
    equally instead of inflating whichever happened to run last.  Round
    ``r`` starts ``r`` places into ``names``, so every variant takes
    every position equally often.
    """
    spec = workload("usr_1")
    duration_us = spec.scaled(scale.num_requests, scale.footprint_pages).duration_us
    times: dict[str, list[float]] = {name: [] for name in names}
    for round_index in range(reps):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            factory = VARIANTS[name]
            telemetry = factory(duration_us) if factory else None
            # The previous run's garbage is collected here, not inside
            # the next variant's timing.
            gc.collect()
            started = clock()
            run_workload(ida(0.2), spec, scale, seed=11, telemetry=telemetry)
            times[name].append(clock() - started)
    return times


def round_overheads(times: dict[str, list[float]]) -> dict[str, float]:
    """Per variant, the median over rounds of its time over the same
    round's ``untraced`` time, as percent overhead."""
    base = times["untraced"]
    return {
        name: (statistics.median(t / b for t, b in zip(seq, base)) - 1.0) * 100.0
        for name, seq in times.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=["tiny", "quick", "bench"], default="quick")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--check", action="store_true",
                        help="fail if passive-hook overhead exceeds the thresholds")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="max tolerated null-tracer overhead in percent (default: 3)")
    parser.add_argument("--profiler-threshold", type=float, default=5.0,
                        help="max tolerated profiler-disabled overhead and "
                             "baseline slowdown in percent (default: 5)")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="write the measured best-of-reps times to PATH (JSON)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline JSON from --record on the reference tree")
    args = parser.parse_args(argv)

    scale = getattr(RunScale, args.scale)()
    # Warm-up: first run pays numpy / allocator warm caches.
    time_variants(scale, 1)

    times = time_variants(scale, args.reps)
    # Best-of-reps seconds for the report and the baseline comparison:
    # scheduler and allocator noise only ever adds time.
    best = {name: min(seq) for name, seq in times.items()}
    overhead = round_overheads(times)
    untraced = best["untraced"]

    def pct(value: float) -> float:
        return (value / untraced - 1.0) * 100.0

    report = {"scale": args.scale, "reps": args.reps, "variants": best}
    labels = {
        "untraced": "untraced",
        "null_tracer": "null tracer",
        "full_tracer": "full tracer",
        "profiler_disabled": "no profiler",
        "profiler_aggregate": "prof (aggr)",
        "profiler_full": "prof (full)",
        "health_disabled": "no health ",
        "health_enabled": "health mon",
    }
    print(f"scale={args.scale} reps={args.reps} (best-of-reps wall seconds; "
          "overhead = median per-round ratio to untraced)")
    print(f"  untraced    : {untraced:.3f} s")
    for name, value in best.items():
        if name == "untraced":
            continue
        print(f"  {labels[name]} : {value:.3f} s  ({pct(value):+.1f}% best-of, "
              f"{overhead[name]:+.1f}% per round)")

    if args.record:
        path = Path(args.record)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"recorded -> {path}")

    failed = False
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        base_variants = base.get("variants", {})
        for name, current in report["variants"].items():
            reference = base_variants.get(name)
            if reference is None:
                print(f"  {name}: no baseline entry, skipped")
                continue
            delta = (current / reference - 1.0) * 100.0
            verdict = "OK" if delta <= args.profiler_threshold else "FAIL"
            print(f"  {name:<18}: {delta:+.1f}% vs baseline "
                  f"({reference:.3f} s)  [{verdict}]")
            failed = failed or delta > args.profiler_threshold

    if args.check:
        rounds = max(args.reps, GATE_ROUNDS)
        gate = round_overheads(
            time_variants(scale, rounds, GATED, clock=time.process_time)
        )
        print(f"gate (process CPU, median per-round ratio over {rounds} rounds):")
        for name in GATED[1:]:
            print(f"  {labels[name]} : {gate[name]:+.1f}%")
        null_overhead = gate["null_tracer"]
        disabled_overhead = gate["profiler_disabled"]
        health_overhead = gate["health_disabled"]
        if null_overhead > args.threshold:
            print(f"FAIL: null-tracer overhead {null_overhead:.1f}% "
                  f"> {args.threshold:.1f}%")
            failed = True
        if disabled_overhead > args.profiler_threshold:
            print(f"FAIL: profiler-disabled overhead {disabled_overhead:.1f}% "
                  f"> {args.profiler_threshold:.1f}%")
            failed = True
        if health_overhead > args.threshold:
            print(f"FAIL: health-disabled overhead {health_overhead:.1f}% "
                  f"> {args.threshold:.1f}%")
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
