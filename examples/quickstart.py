#!/usr/bin/env python3
"""Quickstart: the IDA coding in five minutes.

Walks the paper's core idea bottom-up:

1. the conventional TLC coding and its asymmetric read costs (Fig. 2);
2. what invalidating the LSB makes possible — the IDA merge (Fig. 5);
3. a small end-to-end SSD simulation: baseline vs IDA-Coding-E20.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import IdaTransform, ReadLatencyModel, conventional_tlc
from repro.experiments import (
    RunScale,
    baseline,
    ida,
    manifest_for_payload,
    run_workload,
    write_run_manifest,
)
from repro.obs import SimProfiler, Telemetry
from repro.workloads import workload


def step1_conventional_coding() -> None:
    print("=" * 70)
    print("1. The conventional TLC coding (paper Fig. 2)")
    print("=" * 70)
    coding = conventional_tlc()
    print(coding.describe())
    model = ReadLatencyModel(tr_base_us=50.0, dtr_us=50.0)
    for bit, name in enumerate(("LSB", "CSB", "MSB")):
        print(
            f"{name} read: {coding.senses(bit)} senses "
            f"-> {model.page_latency_us(coding, bit):.0f} us"
        )
    print()


def step2_ida_merge() -> None:
    print("=" * 70)
    print("2. Invalidate the LSB and merge duplicate states (paper Fig. 5)")
    print("=" * 70)
    transform = IdaTransform(conventional_tlc(), valid_bits=(1, 2))
    print(transform.describe())
    model = ReadLatencyModel()
    print(
        f"CSB read is now {model.ida_latency_us(transform, 1):.0f} us, "
        f"MSB read {model.ida_latency_us(transform, 2):.0f} us."
    )
    print()


def step3_end_to_end() -> None:
    print("=" * 70)
    print("3. End to end: baseline vs IDA-Coding-E20 on usr_1 (quick scale)")
    print("=" * 70)
    scale = RunScale.quick()
    spec = workload("usr_1")
    # A sim-time profiler rides along through the one instrumentation
    # attach point; it observes without changing any number.
    base, fast = (
        run_workload(
            system, spec, scale,
            telemetry=Telemetry(profiler=SimProfiler(keep_events=False)),
        )
        for system in (baseline(), ida(0.2))
    )
    norm = fast.mean_read_response_us / base.mean_read_response_us
    print(f"baseline mean read response: {base.mean_read_response_us:8.1f} us")
    print(f"IDA-E20  mean read response: {fast.mean_read_response_us:8.1f} us")
    print(f"normalized: {norm:.3f} ({(1 - norm) * 100:.1f}% improvement; "
          "paper reports 28% at full scale)")
    mix = fast.metrics.read_mix
    print(f"{mix.ida_fast_reads} of {mix.total} page reads were served from "
          "IDA-reprogrammed wordlines")
    base_wait, fast_wait = (
        run.telemetry["profile"]["requests"]["read"]["mean_queue_wait_us"]
        for run in (base, fast)
    )
    print(f"mean read queue wait: {base_wait:.1f} -> {fast_wait:.1f} us "
          "(faster senses also shorten the queues behind them)")
    # Every run can leave a structured artifact behind: config hash, seed,
    # metrics summary — the input to regression tracking and plots.
    out = Path(tempfile.mkdtemp()) / "quickstart_run.json"
    manifest = manifest_for_payload(fast.to_payload())
    write_run_manifest(manifest, out)
    print(f"run manifest written to {out} (config {manifest['config_hash']})")


def main() -> None:
    step1_conventional_coding()
    step2_ida_merge()
    step3_end_to_end()


if __name__ == "__main__":
    main()
