#!/usr/bin/env python3
"""Benchmark: sequential vs process-pool sweep execution + snapshot cache.

Section 1 (always runs) — pool speedup: the same batch of
:class:`~repro.experiments.parallel.RunUnit`\\ s through
``SweepExecutor`` inline (``jobs=1``) and on a worker pool, always
asserting exact payload parity, and reports the wall-clock speedup.
With ``--check`` the script fails (exit 1) when the speedup falls below
``--min-speedup`` — unless the machine has fewer cores than ``--jobs``,
in which case the assertion is skipped (exit 0): a pool cannot beat
inline execution without the cores to back it.

Section 2 (opt-in) — warm-state snapshot cache effectiveness: a
fig9-style sweep (one workload, one seed, baseline/IDA variants across
dtR values — every unit shares a single warm-state cache key) runs on
the pool with the snapshot cache off and then on, asserting payload
parity between the two.  The cell is deliberately preload-dominated
(large footprint, few timed requests, ``refresh_cycles`` small enough
that no refresh scan lands inside the timed window) so the cache's win
— skipping the per-unit device warm-up — is what the clock measures.
``--check-snapshots`` gates the speedup at ``--min-snapshot-speedup``
(default 2x); ``--snapshot-report PATH`` dumps the hit/miss/fallback
counts and timings as JSON for CI artifact upload.

``--append-trajectory PATH`` appends one entry (pool speedup and, when
measured, the snapshot-cache numbers) to a JSON-array history file
shared with ``bench_pipeline.py``.  Entries are tagged with
``bench``/``scale`` and compared only against predecessors from the
same bench at the same scale — cross-scale numbers are incomparable.

Run:  python benchmarks/bench_parallel_sweep.py [--scale quick]
          [--units 8] [--jobs 4] [--check] [--min-speedup 1.5]
          [--snapshots] [--check-snapshots] [--min-snapshot-speedup 2.0]
          [--snapshot-report PATH] [--append-trajectory PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from repro.experiments import RunUnit, RunScale, SweepExecutor, baseline, ida
from repro.experiments.parallel import warm_key_for_unit

WORKLOADS = ["proj_1", "proj_3", "hm_1", "src2_0", "usr_1"]

# The shared-warm-state cell: quick-scale topology, a large preload
# footprint, and a timed window short enough (refresh_cycles < 1/16,
# the refresh daemon's scan granularity) that no refresh scan fires
# inside it.  All the footprint-proportional work lands in the warm-up,
# which is exactly what the snapshot cache elides.
SNAPSHOT_WORKLOAD = "usr_1"
SNAPSHOT_DTR_VALUES = (20.0, 40.0, 60.0)


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_units(count: int, scale: RunScale, seed: int) -> list[RunUnit]:
    units = []
    for index in range(count):
        system = baseline() if index % 2 == 0 else ida(0.2)
        units.append(
            RunUnit(system, WORKLOADS[index % len(WORKLOADS)], scale, seed=seed)
        )
    return units


def snapshot_scale(requests: int, footprint: int) -> RunScale:
    return dataclasses.replace(
        RunScale.quick(),
        num_requests=requests,
        footprint_pages=footprint,
        blocks_per_plane=max(4, footprint // 500),
        refresh_cycles=0.05,
    )


def build_shared_units(count: int, scale: RunScale, seed: int) -> list[RunUnit]:
    """Fig9-style sweep sharing one warm-state key.

    One workload, one seed, one scale; what varies is the system's dtR
    timing, error rate and scheduling policy — all excluded from the
    warm key, so every unit preloads the same device state.
    """
    variants = []
    for dtr in SNAPSHOT_DTR_VALUES:
        variants.append(baseline().with_dtr(dtr))
        variants.append(ida(0.0).with_dtr(dtr))
        variants.append(ida(0.2).with_dtr(dtr))
        variants.append(ida(0.2).with_dtr(dtr).with_policy("fcfs"))
    units = [
        RunUnit(variants[i % len(variants)], SNAPSHOT_WORKLOAD, scale, seed=seed)
        for i in range(count)
    ]
    keys = {warm_key_for_unit(unit) for unit in units}
    assert len(keys) == 1, (
        f"shared-warm-state sweep split across {len(keys)} snapshot keys"
    )
    return units


def _assert_parity(units, left, right, label: str) -> None:
    for unit, a, b in zip(units, left, right):
        assert a.read_response == b.read_response, (
            f"{label} parity violation on {unit.describe()}"
        )
        assert a.write_response == b.write_response, (
            f"{label} parity violation on {unit.describe()}"
        )


def run_snapshot_bench(args) -> dict:
    """Time the shared-warm-state sweep with the cache off, then on."""
    scale = snapshot_scale(args.snapshot_requests, args.snapshot_footprint)
    units = build_shared_units(args.snapshot_units, scale, args.seed)
    print(f"snapshot cell: units={len(units)} jobs={args.jobs} "
          f"requests={scale.num_requests} footprint={scale.footprint_pages} "
          f"refresh_cycles={scale.refresh_cycles}")

    started = time.perf_counter()
    cold = SweepExecutor(jobs=args.jobs).map(units)
    cold_s = time.perf_counter() - started

    executor = SweepExecutor(jobs=args.jobs, snapshots=True)
    started = time.perf_counter()
    warm = executor.map(units)
    warm_s = time.perf_counter() - started

    stats = executor.snapshot_stats
    _assert_parity(units, cold, warm, "snapshot")
    print(f"  parity    : OK ({len(units)} payloads identical, cache on/off)")

    speedup = cold_s / warm_s if warm_s > 0 else 0.0
    print(f"  cache off : {cold_s:.2f} s")
    print(f"  cache on  : {warm_s:.2f} s  (speedup {speedup:.2f}x)")
    print(f"  cache     : {stats.get('hits', 0)} hit(s), "
          f"{stats.get('misses', 0)} miss(es), "
          f"{stats.get('fallbacks', 0)} fallback(s)")
    return {
        "units": len(units),
        "jobs": args.jobs,
        "requests": scale.num_requests,
        "footprint_pages": scale.footprint_pages,
        "refresh_cycles": scale.refresh_cycles,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
        "hits": stats.get("hits", 0),
        "misses": stats.get("misses", 0),
        "fallbacks": stats.get("fallbacks", 0),
    }


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


def append_trajectory(path: Path, entry: dict) -> None:
    """Append ``entry`` and report deltas vs the last comparable entry.

    Comparable means: same ``bench`` and same ``scale``.  The history
    file is shared with ``bench_pipeline.py``, whose entries carry
    different metrics at different scales — mixing them would compare
    apples to oranges, so anything else is skipped.
    """
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            print(f"warning: {path} is not valid JSON, starting fresh")
        if not isinstance(history, list):
            print(f"warning: {path} is not a JSON array, starting fresh")
            history = []
    predecessor = next(
        (e for e in reversed(history)
         if e.get("bench") == entry["bench"] and e.get("scale") == entry["scale"]),
        None,
    )
    history.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history, indent=1) + "\n")
    print(f"trajectory -> {path} ({len(history)} entries)")
    if predecessor is None:
        print(f"  no same-scale predecessor (bench={entry['bench']}, "
              f"scale={entry['scale']}) — nothing to compare")
        return
    for field in ("pool_speedup", "snapshot_speedup"):
        now, then = entry.get(field), predecessor.get(field)
        if now is None or not then:
            continue
        delta = (now / then - 1.0) * 100.0
        print(f"  {field}: {now:.2f}x vs {then:.2f}x "
              f"at {predecessor.get('git_rev')} ({delta:+.1f}%)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=["tiny", "quick", "bench"],
                        default="quick")
    parser.add_argument("--units", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--check", action="store_true",
                        help="fail below --min-speedup (skipped when the "
                             "machine has fewer cores than --jobs)")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--snapshots", action="store_true",
                        help="also measure the warm-state snapshot cache on "
                             "a shared-warm-state sweep")
    parser.add_argument("--check-snapshots", action="store_true",
                        help="fail when the snapshot-cache speedup falls "
                             "below --min-snapshot-speedup (implies "
                             "--snapshots)")
    parser.add_argument("--min-snapshot-speedup", type=float, default=2.0)
    parser.add_argument("--snapshot-units", type=int, default=12)
    parser.add_argument("--snapshot-requests", type=int, default=100)
    parser.add_argument("--snapshot-footprint", type=int, default=48_000)
    parser.add_argument("--snapshot-report", metavar="PATH", default=None,
                        help="write snapshot cache timings + hit/miss "
                             "counts to PATH (JSON; implies --snapshots)")
    parser.add_argument("--append-trajectory", metavar="PATH", default=None,
                        help="append this run's speedups to a JSON-array "
                             "history file (created if missing); compared "
                             "against same-bench same-scale predecessors "
                             "only")
    args = parser.parse_args(argv)
    want_snapshots = bool(
        args.snapshots or args.check_snapshots or args.snapshot_report
    )

    scale = getattr(RunScale, args.scale)()
    units = build_units(args.units, scale, args.seed)
    cores = available_cores()
    print(f"scale={args.scale} units={args.units} jobs={args.jobs} "
          f"cores={cores}")

    started = time.perf_counter()
    sequential = SweepExecutor(jobs=1).map(units)
    sequential_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = SweepExecutor(jobs=args.jobs).map(units)
    parallel_s = time.perf_counter() - started

    _assert_parity(units, sequential, parallel, "pool")
    print(f"  parity    : OK ({len(units)} payloads identical)")

    speedup = sequential_s / parallel_s if parallel_s > 0 else 0.0
    print(f"  sequential: {sequential_s:.2f} s")
    print(f"  parallel  : {parallel_s:.2f} s  (speedup {speedup:.2f}x)")

    snapshot = run_snapshot_bench(args) if want_snapshots else None
    if snapshot is not None and args.snapshot_report:
        report_path = Path(args.snapshot_report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(f"snapshot report -> {report_path}")

    if args.append_trajectory:
        entry = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_rev": _git_rev(),
            "bench": "parallel_sweep",
            "scale": args.scale,
            "units": args.units,
            "jobs": args.jobs,
            "pool_speedup": speedup,
        }
        if snapshot is not None:
            entry["snapshot_speedup"] = snapshot["speedup"]
            entry["snapshot"] = snapshot
        append_trajectory(Path(args.append_trajectory), entry)

    failed = False
    if args.check:
        if cores < args.jobs:
            print(f"  check skipped: {cores} core(s) < {args.jobs} jobs")
        elif speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup:.2f}x < {args.min_speedup:.2f}x")
            failed = True
        else:
            print(f"  check OK: speedup >= {args.min_speedup:.2f}x")

    if args.check_snapshots and snapshot is not None:
        # No core-count skip here: both sides of the comparison run on
        # the same pool, so the machine's parallelism cancels out.
        if snapshot["speedup"] < args.min_snapshot_speedup:
            print(f"FAIL: snapshot-cache speedup {snapshot['speedup']:.2f}x "
                  f"< {args.min_snapshot_speedup:.2f}x")
            failed = True
        elif snapshot["fallbacks"] > 0:
            print(f"FAIL: {snapshot['fallbacks']} snapshot fallback(s) — "
                  f"cache silently degraded to cold preloads")
            failed = True
        else:
            print(f"  snapshot check OK: speedup >= "
                  f"{args.min_snapshot_speedup:.2f}x, no fallbacks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
