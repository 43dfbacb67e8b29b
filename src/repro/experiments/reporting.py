"""Run reporting: plain-text tables and structured run manifests.

Two audiences share this module.  The benchmark harness and CLI want
aligned ASCII tables (:func:`ascii_table`); experiment automation wants a
*machine-readable artifact per run* — a JSON manifest bundling the exact
configuration (hashed for cache keys and regression bisection), the seed,
the end-of-run metrics, and an optional interval time-series.  Anything
that shows up in a paper figure should be reconstructible from the
manifest alone.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..obs.tracer import SCHEMA_VERSION
from ..sim.metrics import SimMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.metrics import ReadMixCounters
    from .runner import RunResultPayload

__all__ = [
    "ascii_table",
    "format_pct",
    "jsonable",
    "config_hash",
    "read_mix_dict",
    "counters_dict",
    "metrics_summary",
    "build_run_manifest",
    "manifest_for_payload",
    "write_run_manifest",
]


def format_pct(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render a simple aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]

    def fmt(row: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(cells[0]))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt(row) for row in cells[1:])
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
def jsonable(obj: object) -> object:
    """Recursively convert dataclasses / enums / tuples to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-able config dict.

    Two runs with equal hashes ran the same (system, workload, scale,
    seed) — the key experiment caches and regression bisection group by.
    """
    canonical = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def read_mix_dict(mix: "ReadMixCounters") -> dict:
    """One run's :class:`ReadMixCounters` as a JSON-ready dict."""
    return {
        "total": mix.total,
        "by_type": {str(bit): count for bit, count in sorted(mix.by_type.items())},
        "csb_with_invalid_lsb": mix.csb_with_invalid_lsb,
        "msb_with_invalid_lower": mix.msb_with_invalid_lower,
        "ida_fast_reads": mix.ida_fast_reads,
    }


def counters_dict(metrics: SimMetrics) -> dict:
    """The cumulative event counters of one run, JSON-ready."""
    return {
        "gc_invocations": metrics.gc_invocations,
        "gc_page_moves": metrics.gc_page_moves,
        "block_erases": metrics.block_erases,
        "refresh_invocations": metrics.refresh_invocations,
        "refresh_page_moves": metrics.refresh_page_moves,
        "refresh_adjusted_wordlines": metrics.refresh_adjusted_wordlines,
        "refresh_reprogrammed_pages": metrics.refresh_reprogrammed_pages,
        "refresh_corrupted_pages": metrics.refresh_corrupted_pages,
        "refresh_extra_reads": metrics.refresh_extra_reads,
        "read_retries": metrics.read_retries,
        "unmapped_reads": metrics.unmapped_reads,
        "phys_ops_dispatched": metrics.phys_ops_dispatched,
        "program_failures": metrics.program_failures,
        "erase_failures": metrics.erase_failures,
        "grown_bad_blocks": metrics.grown_bad_blocks,
        "uncorrectable_reads": metrics.uncorrectable_reads,
        "read_reclaims": metrics.read_reclaims,
        "torn_adjust_recoveries": metrics.torn_adjust_recoveries,
        "die_failures": metrics.die_failures,
        "fault_page_moves": metrics.fault_page_moves,
    }


def metrics_summary(metrics: SimMetrics) -> dict:
    """One run's :class:`SimMetrics` as a JSON-ready summary."""
    return {
        "read_response": metrics.read_response.summary(),
        "write_response": metrics.write_response.summary(),
        "throughput_mb_s": metrics.throughput_mb_s(),
        "read_throughput_mb_s": metrics.read_throughput_mb_s(),
        "elapsed_us": metrics.elapsed_us,
        "bytes_read": metrics.bytes_read,
        "bytes_written": metrics.bytes_written,
        "read_mix": read_mix_dict(metrics.read_mix),
        "counters": counters_dict(metrics),
    }


def build_run_manifest(
    config: dict,
    metrics: "SimMetrics | dict",
    *,
    utilisation: dict | None = None,
    queue_wait: dict | None = None,
    faults: dict | None = None,
    telemetry: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble a run manifest from its parts.

    ``config`` is whatever identifies the run (system, workload, scale,
    seed, trace file, ...); it is hashed verbatim.  ``metrics`` is a
    :class:`SimMetrics` or its :func:`metrics_summary`.  ``telemetry`` is
    a :meth:`~repro.obs.instruments.Telemetry.payload` dict (any subset
    of its keys).  Use :func:`manifest_for_payload` when you have a
    :class:`~repro.experiments.runner.RunResultPayload` (a full
    ``RunResult`` gives one through ``result.to_payload()``).
    """
    if isinstance(metrics, SimMetrics):
        metrics = metrics_summary(metrics)
    telemetry = telemetry or {}
    manifest: dict = {
        "kind": "run_manifest",
        "schema": SCHEMA_VERSION,
        # Alias for ``schema``, spelled the way external manifest
        # consumers (and the JSON inspector) expect the field.  Both
        # keys always carry the same value.
        "schema_version": SCHEMA_VERSION,
        "config": jsonable(config),
        "config_hash": config_hash(config),
        "metrics": metrics,
    }
    if utilisation is not None:
        manifest["utilisation"] = jsonable(utilisation)
    if queue_wait is not None:
        manifest["queue_wait"] = jsonable(queue_wait)
    # Optional sections appear only when their source was attached, so
    # a bare run's manifest carries none of these keys.
    if telemetry.get("profile") is not None:
        manifest["profile"] = jsonable(telemetry["profile"])
    if faults is not None:
        manifest["faults"] = jsonable(faults)
    if telemetry.get("health") is not None:
        manifest["health"] = jsonable(telemetry["health"])
    if telemetry.get("time_series") is not None:
        manifest["time_series"] = telemetry["time_series"]
    if telemetry.get("trace_path") is not None:
        manifest["trace_path"] = str(telemetry["trace_path"])
    if extra:
        manifest.update(jsonable(extra))  # type: ignore[arg-type]
    return manifest


def manifest_for_payload(
    payload: "RunResultPayload",
    *,
    jobs: int | None = None,
    snapshots: dict | None = None,
) -> dict:
    """Manifest for one run payload, inline or pool-transported.

    Inline and pooled sweeps return the same payloads, so they emit
    interchangeable artifacts.  ``jobs`` and ``snapshots`` land in an
    ``execution`` block outside the hashed config, with the run's
    wall-clock: warm-up and timed-window seconds and the window's engine
    events per second.
    """
    config = {
        "system": jsonable(payload.system),
        "workload": jsonable(payload.workload),
        "scale": jsonable(payload.scale) if payload.scale is not None else None,
        "seed": payload.seed,
    }
    if payload.faults is not None:
        # The plan is part of the run's identity (it changes the
        # numbers), so it joins the hashed config; the fired events are
        # observations and ride outside it.
        config["faults"] = payload.faults.get("plan")
    extra = {
        "refresh": {
            "blocks_refreshed": payload.refresh["blocks_refreshed"],
            "extra_reads": payload.refresh["extra_reads"],
            "extra_writes": payload.refresh["extra_writes"],
        },
        "blocks": {"in_use": payload.in_use_blocks, "ida": payload.ida_blocks},
    }
    if jobs is not None or snapshots is not None:
        # Recorded outside ``config`` on purpose: the executor's fan-out
        # width and the warm-state snapshot cache must not perturb the
        # config hash (results are required to be identical at any job
        # count and with or without snapshot reuse).
        execution: dict = {}
        if jobs is not None:
            execution["jobs"] = jobs
        if snapshots is not None:
            execution["snapshots"] = dict(snapshots)
        wall = payload.wall_clock
        if wall is not None:
            execution["warmup_s"] = wall["warmup_s"]
            execution["window_s"] = wall["window_s"]
            execution["events_per_s"] = wall["events"] / wall["window_s"]
        extra["execution"] = execution
    return build_run_manifest(
        config,
        payload.metrics_summary(),
        utilisation=payload.utilisation or None,
        queue_wait=payload.queue_wait or None,
        faults=payload.faults,
        telemetry=payload.telemetry,
        extra=extra,
    )


def write_run_manifest(manifest: dict, path: str | Path) -> Path:
    """Write a manifest as pretty-printed JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return target
