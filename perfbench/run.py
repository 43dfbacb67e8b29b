#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay --seed 3 --seconds 25 --trace 0

Workloads: ``replay`` (open-loop Fig. 8 cell), ``closed_qd32`` (Fig. 10
cell at queue depth 32) and ``warm_sweep`` (Fig. 9-style sweep through
the snapshot cache); see ``perfbench/README.md``.

The command builds its inputs from ``--seed``, reproduces one golden
Fig. 8 cell as a preflight, then runs one warm-up pass and as many timed
passes as fit in ``--seconds``, checking every pass.  With ``--trace 0``
the last line of standard output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` one more pass runs under the span
recorder and the JSON carries the per-layer metrics instead.  Spans of
the traced pass are written to ``perfbench/out/``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Timed passes a run makes at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Fresh interpreters whose ``import`` time the set-up figure takes the median of.
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from pace import Pacer\n"
    "pacer = Pacer()\n"
    "with pacer.ticking():\n"
    "    first = pacer.mark()\n"
    "    import repro.experiments.parallel, repro.faults.invariants, repro.workloads.msr\n"
    "    last = pacer.mark()\n"
    "print(pacer.seconds(first, last)[1])\n"
)
#: Published read-response gains the replay figure is printed beside.
REFERENCES = (
    ("paper Fig. 8, IDA-E20", 28.0),
    ("EXPERIMENTS.md, bench scale, five workloads", 7.5),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("replay", "closed_qd32", "warm_sweep")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload to RunScale.tiny (smoke tests only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_simulator() -> None:
    """Put this checkout's ``src`` first on the path and import it.

    Exits with a message (code 1) when the checkout holds no simulator
    source, or when ``repro`` resolves anywhere else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median ``import repro`` time over fresh interpreters, in reference s."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure(args):
    """Preflight, one warm-up pass, the timed passes and the traced pass.

    Returns ``(passes, rss_mb, traced, tally)``: ``rss_mb`` is the peak
    resident set after the untraced passes, and ``traced`` is ``(result,
    analysis)`` with ``--trace 1`` and ``None`` otherwise.
    """
    from suite import WORKLOADS, Probe, Tally, preflight

    run_pass = WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    tally = Tally(problems=[f"preflight: {p}" for p in preflight(ROOT)])
    probe = Probe()
    with probe.installed():
        with probe.pacer.ticking():
            # The warm-up pass fixes the reference digest every later
            # pass must repeat, and is left out of every timing.
            warm_up = run_pass(args.seed, probe, tiny)
            tally.check(warm_up)
            tally.reference = warm_up.digest
            passes = []
            started = perf_counter()
            while perf_counter() - started < args.seconds or len(passes) < MIN_PASSES:
                passes.append(run_pass(args.seed, probe, tiny))
                tally.check(passes[-1])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = None
        if args.trace:
            traced = traced_pass(args, probe, lambda: run_pass(args.seed, probe, tiny), tally)
    return passes, rss_mb, traced, tally


def traced_pass(args, probe, run_once, tally):
    """One more pass under the span recorder; spans are saved to ``out/``."""
    from report import trace_problems
    from spans import SpanRecorder, analyse, traced

    recorder = SpanRecorder()
    probe.recorder = recorder
    try:
        with traced(recorder):
            started = perf_counter_ns()
            result = run_once()
            wall_ns = perf_counter_ns() - started
    finally:
        probe.recorder = None
    analysis = analyse(recorder, wall_ns)
    tally.check(result, "traced pass: ")
    tally.problems += [f"traced pass: {p}" for p in trace_problems(result, analysis)]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    recorder.save(out / f"spans-{args.workload}.npz")
    (out / f"layers-{args.workload}.json").write_text(json.dumps(analysis, indent=1))
    return result, analysis


def median_run_s(passes, field: str = "segments") -> float:
    """Sum over the simulations of a pass of each one's median window.

    Every pass of a seed does identical work (the digest check proves
    it), so what differs between passes is what the pacer's scaling did
    not take out, in either direction: the scaling over-corrects a little
    in slow spells, so the fastest scaled window is an outlier, and the
    median is the steady figure.  ``field`` picks reference
    (``segments``) or host (``host_segments``) seconds.
    """
    return sum(
        statistics.median(windows)
        for windows in zip(*(getattr(p, field) for p in passes))
    )


def end_to_end(passes, rss_mb: float, setup_import_s: float) -> dict:
    return {
        "setup_s": setup_import_s + statistics.median(p.setup_s for p in passes),
        "phys_ops_per_s": passes[0].phys_ops / median_run_s(passes),
        "peak_rss_mb": rss_mb,
    }


def beyond_p99(samples: int) -> int:
    """Samples above the nearest-rank p99 the simulator reports."""
    return samples - max(1, math.ceil(99 / 100 * samples)) if samples else 0


def print_summary(args, passes, tally, e2e: dict) -> None:
    """Human-readable block: all ten end-to-end figures, by name and unit."""
    from report import sim_metrics

    last = passes[-1]
    sim = sim_metrics(last)
    fail_ratio = tally.failed / max(1, tally.attempted)
    rows = [
        ("setup_s", f"{e2e['setup_s']:.4f}", "s (ref)", "import + set-up, median"),
        ("run_s", f"{median_run_s(passes):.4f}", "s (ref)",
         f"timed windows, median of {len(passes)} passes each "
         f"({median_run_s(passes, 'host_segments'):.4f} s of host time)"),
        ("phys_ops_per_s", f"{e2e['phys_ops_per_s']:.1f}", "ops/s (ref)",
         f"{last.phys_ops} ops per pass"),
        ("peak_rss_mb", f"{e2e['peak_rss_mb']:.1f}", "MiB", "ru_maxrss"),
        ("fail_ratio", f"{fail_ratio:.6f}", "fraction",
         f"{tally.failed}/{tally.attempted} host requests"),
    ]
    reads, writes = sim["sim.read_count"], sim["sim.write_count"]
    if args.workload in ("replay", "closed_qd32"):
        rows += [
            ("read_p50_us", f"{sim['sim.read_p50_us']:.1f}", "us (sim)",
             f"IDA-E20, {reads} reads"),
            ("read_p99_us", f"{sim['sim.read_p99_us']:.1f}", "us (sim)",
             f"IDA-E20, {reads} reads, {beyond_p99(reads)} beyond p99"),
        ]
    if args.workload == "closed_qd32":
        rows += [
            ("write_p99_us", f"{sim['sim.write_p99_us']:.1f}", "us (sim)",
             f"{writes} writes, {beyond_p99(writes)} beyond p99"),
            ("sim_mb_per_s", f"{sim['sim.mb_per_s']:.3f}", "MB/s (sim)", "Fig. 10 quantity"),
        ]
    if args.workload == "replay":
        rows.append(
            ("ida_gain_pct", f"{sim['sim.ida_gain_pct']:.2f}", "% (sim)",
             "IDA-E20 over Baseline, same trace (Fig. 8)")
        )
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"passes={len(passes)} (+1 warm-up) digest={tally.reference[:16]}")
    for name, value, unit, note in rows:
        print(f"  {name:<15} {value:>14} {unit:<13} {note}")
    if args.workload == "replay":
        gain = sim["sim.ida_gain_pct"]
        for label, reference in REFERENCES:
            print(f"  ida_gain_pct {gain:.2f}% vs {reference:.1f}% ({label}): "
                  f"error {gain - reference:+.2f} points")
        print("  The model is not validated against hardware beyond these figures.")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_simulator()
    from report import END_TO_END, PER_LAYER, layer_metrics

    setup_import_s = import_seconds()
    passes, rss_mb, traced, tally = measure(args)
    e2e = end_to_end(passes, rss_mb, setup_import_s)
    print_summary(args, passes, tally, e2e)
    if traced is not None:
        values = layer_metrics(*traced, median_run_s(passes))
        declared = PER_LAYER
    else:
        values = e2e
        declared = END_TO_END
    correct = not tally.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit, _ in declared
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
