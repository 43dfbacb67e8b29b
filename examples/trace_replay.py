#!/usr/bin/env python3
"""Replay an MSR-Cambridge-format trace through the simulator.

Demonstrates the trace path a downstream user would take with the *real*
MSR traces [25]: parse the CSV, characterise it (the Table III columns),
and replay it against the baseline and IDA-E20 systems.  Ships with a
built-in round trip — it writes one of the synthetic clones out in MSR
CSV format first — so it runs self-contained; point it at a real file to
use actual traces.

Run:  python examples/trace_replay.py [path/to/trace.csv]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.experiments import RunScale, baseline, build_run_manifest, ida, write_run_manifest
from repro.experiments.runner import build_simulator
from repro.obs import Instruments
from repro.sim.scheduler import HostRequest
from repro.workloads import (
    generate_workload,
    read_msr_csv,
    workload,
    write_msr_csv,
)


def characterise(trace) -> None:
    print(f"trace {trace.name!r}: {len(trace)} requests")
    print(f"  read ratio:        {trace.read_ratio():.1%}")
    print(f"  mean read size:    {trace.mean_read_size_kb():.1f} KB")
    print(f"  read-data ratio:   {trace.read_data_ratio():.1%}")
    print(f"  duration:          {trace.duration_us() / 1e6:.1f} s")
    print(f"  footprint:         {trace.footprint_pages(8192)} pages")


def replay(trace, system, scale: RunScale, trace_path: Path | None = None):
    """Replay ``trace`` against ``system``; returns (metrics, manifest)."""
    duration_us = max(trace.duration_us(), 1.0)
    telemetry = Instruments(
        trace_path=None if trace_path is None else str(trace_path)
    ).build(duration_us)
    sim = build_simulator(system, scale, duration_us, telemetry=telemetry)
    page_size = sim.geometry.page_size_bytes
    footprint = trace.footprint_pages(page_size)
    period = sim.ftl.refresh_policy.period_us
    sim.preload(range(footprint + 1), -1.4 * period, -0.4 * period)
    requests = [
        HostRequest(i, io.time_us, io.is_read, io.lpns(page_size), io.size_bytes)
        for i, io in enumerate(trace)
    ]
    metrics = sim.run_requests(requests)
    telemetry.close()
    manifest = build_run_manifest(
        {"trace": trace.name, "system": system, "scale": scale},
        metrics,
        utilisation=sim.utilisation_report(),
        queue_wait=sim.queue_wait_report(),
        telemetry=telemetry.payload(),
    )
    return metrics, manifest


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        # Self-contained demo: clone proj_3 and write it in MSR format.
        spec = workload("proj_3").scaled(1000, 6000)
        generated = generate_workload(spec)
        path = Path(tempfile.mkdtemp()) / "proj_3.csv"
        write_msr_csv(generated.trace, path)
        print(f"(no trace given; wrote a synthetic clone to {path})\n")

    trace = read_msr_csv(path)
    characterise(trace)
    print()

    scale = RunScale.quick()
    out_dir = Path(tempfile.mkdtemp())
    base_metrics, base_manifest = replay(trace, baseline(), scale)
    ida_metrics, ida_manifest = replay(
        trace, ida(0.2), scale, trace_path=out_dir / "ida_replay.jsonl"
    )
    base_rt = base_metrics.read_response.mean_us
    ida_rt = ida_metrics.read_response.mean_us
    print(f"baseline mean read response: {base_rt:.1f} us")
    print(f"IDA-E20  mean read response: {ida_rt:.1f} us")
    print(f"normalized: {ida_rt / base_rt:.3f}")

    # The replay doubles as an artifact-format smoke test: both runs
    # leave manifests, and the IDA run leaves an inspectable trace.
    for name, manifest in (("baseline", base_manifest), ("ida-e20", ida_manifest)):
        out = write_run_manifest(manifest, out_dir / f"{name}.json")
        print(f"{name} manifest: {out} (config {manifest['config_hash']})")
    print(f"inspect the traced run with: ida-repro inspect {out_dir / 'ida_replay.jsonl'}")


if __name__ == "__main__":
    main()
