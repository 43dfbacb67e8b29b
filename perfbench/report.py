"""Metric definitions and how each is computed from passes and spans.

``END_TO_END`` and ``PER_LAYER`` are the metric lists ``BENCHMARK.json``
declares (a test keeps the two in step).  Host-time figures come from
the untraced passes; sim-time figures are deterministic for a seed.
"""

from __future__ import annotations

import statistics

#: (name, unit, better) of the metrics a ``--trace 0`` run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("phys_ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) of the metrics a ``--trace 1`` run reports.
PER_LAYER = (
    ("run_s", "s", "lower"),
    ("sim.read_p50_us", "us", "lower"),
    ("sim.read_p99_us", "us", "lower"),
    ("sim.read_count", "count", "higher"),
    ("sim.write_p99_us", "us", "lower"),
    ("sim.write_count", "count", "higher"),
    ("sim.mb_per_s", "MB/s", "higher"),
    ("sim.ida_gain_pct", "%", "higher"),
    ("workloads.generate_s", "s", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("experiments.warmup_s", "s", "lower"),
    ("experiments.units", "count", "higher"),
    ("experiments.unit_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("snapshot.capture_s", "s", "lower"),
    ("snapshot.restore_s", "s", "lower"),
    ("snapshot.hits", "count", "higher"),
    ("snapshot.misses", "count", "lower"),
    ("snapshot.fallbacks", "count", "lower"),
    ("snapshot.bytes", "B", "lower"),
    ("snapshot.self_s", "s", "lower"),
    ("ftl.untimed_writes", "count", "lower"),
    ("ftl.untimed_s", "s", "lower"),
    ("ftl.host_read_calls", "count", "lower"),
    ("ftl.host_read_s", "s", "lower"),
    ("ftl.host_write_calls", "count", "lower"),
    ("ftl.host_write_s", "s", "lower"),
    ("ftl.check_refresh_calls", "count", "lower"),
    ("ftl.check_refresh_s", "s", "lower"),
    ("ftl.refresh_ops", "count", "lower"),
    ("ftl.gc_invocations", "count", "lower"),
    ("ftl.gc_page_moves", "count", "lower"),
    ("ftl.block_erases", "count", "lower"),
    ("ftl.refresh_page_moves", "count", "lower"),
    ("ftl.adjusted_wordlines", "count", "higher"),
    ("ftl.gc_moves_per_erase", "ratio", "lower"),
    ("ftl.ida_read_frac", "fraction", "higher"),
    ("ftl.self_s", "s", "lower"),
    ("ssd.dispatch_read_s", "s", "lower"),
    ("ssd.dispatch_write_s", "s", "lower"),
    ("ssd.ops_read", "count", "lower"),
    ("ssd.ops_write", "count", "lower"),
    ("ssd.ops_adjust", "count", "lower"),
    ("ssd.ops_erase", "count", "lower"),
    ("ssd.host_ops_frac", "fraction", "higher"),
    ("ssd.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_op", "ratio", "lower"),
    ("engine.at_calls", "count", "lower"),
    ("engine.drain_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.peak_pending", "count", "lower"),
    ("pipeline.ops", "count", "lower"),
    ("pipeline.stages_per_op", "ratio", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("resources.submits", "count", "lower"),
    ("resources.submits_per_op", "ratio", "lower"),
    ("resources.self_s", "s", "lower"),
    ("resources.die_util", "fraction", "higher"),
    ("resources.chan_util", "fraction", "higher"),
    ("resources.host_read_wait_us", "us", "lower"),
    ("resources.internal_wait_us", "us", "lower"),
    ("flash.state_bytes", "B", "lower"),
    ("bench.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.stage_machine_share", "fraction", "lower"),
    ("trace.ftl_host_io_share", "fraction", "lower"),
)

#: Layers whose self time is the per-event stage machine.
STAGE_MACHINE = ("engine", "pipeline", "resources", "ssd")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_metrics(result) -> dict:
    """Sim-time figures of one pass (IDA-E20 latencies, device throughput)."""
    focus = result.records[result.focus]
    return {
        "sim.read_p50_us": focus.read["p50_us"] or 0.0,
        "sim.read_p99_us": focus.read["p99_us"] or 0.0,
        "sim.read_count": focus.read["count"],
        "sim.write_p99_us": focus.write["p99_us"] or 0.0,
        "sim.write_count": focus.write["count"],
        "sim.mb_per_s": focus.mb_per_s,
        "sim.ida_gain_pct": result.gain_pct,
    }


OP_KINDS = ("read", "write", "adjust", "erase")


def _issued(counts: dict) -> int:
    """Physical ops the FTL handed to the simulator in the traced pass."""
    return sum(counts.get(f"ops.{kind}", 0) for kind in OP_KINDS)


def _wait(records, klass: str) -> float:
    """Mean queue wait (die + channel) per op of one dispatch class, us."""
    total = ops = 0.0
    for record in records:
        die = record.waits["die"].get(klass, {})
        channel = record.waits["channel"].get(klass, {})
        total += die.get("total_wait_us", 0.0) + channel.get("total_wait_us", 0.0)
        ops += die.get("ops", 0)
    return _ratio(total, ops)


def layer_metrics(result, analysis: dict, untraced_run_s: float) -> dict:
    """Every ``PER_LAYER`` value from the traced pass and its span analysis."""
    names = analysis["per_name"]
    counts = analysis["counts"]
    layers = analysis["layer_self_s"]
    records = result.records

    # A boundary the simulator no longer has reads as zero.
    def calls(key: str) -> int:
        return names.get(key, {}).get("calls", 0)

    def inclusive(key: str) -> float:
        return names.get(key, {}).get("inclusive_s", 0.0)

    def self_time(key: str) -> float:
        return names.get(key, {}).get("self_s", 0.0)

    def total(field: str) -> int:
        return sum(record.counters[field] for record in records)

    phys_ops = result.phys_ops
    units = calls("experiments:run_workload") + calls(
        "experiments:run_workload_closed_loop"
    )
    unit_s = inclusive("experiments:run_workload") + inclusive(
        "experiments:run_workload_closed_loop"
    )
    wall = analysis["wall_s"]
    simulated = wall - layers["bench"]
    values = {
        "run_s": untraced_run_s,
        **sim_metrics(result),
        "workloads.generate_s": inclusive("workloads:generate_workload"),
        "workloads.self_s": layers["workloads"],
        "experiments.warmup_s": inclusive("experiments:warm_device"),
        "experiments.units": units,
        "experiments.unit_s": _ratio(unit_s, units),
        "experiments.self_s": layers["experiments"],
        "snapshot.capture_s": inclusive("snapshot:capture_warm_state"),
        "snapshot.restore_s": inclusive("snapshot:restore_warm_state"),
        "snapshot.hits": result.snapshot.get("hits", 0),
        "snapshot.misses": result.snapshot.get("misses", 0),
        "snapshot.fallbacks": result.snapshot.get("fallbacks", 0),
        "snapshot.bytes": counts.get("snapshot.bytes", 0),
        "snapshot.self_s": layers["snapshot"],
        "ftl.untimed_writes": calls("ftl:Ftl.write_untimed")
        + counts.get("ftl.untimed_batch_writes", 0),
        "ftl.untimed_s": inclusive("ftl:Ftl.write_untimed")
        + inclusive("ftl:Ftl.apply_untimed_batch"),
        "ftl.host_read_calls": calls("ftl:Ftl.host_read"),
        "ftl.host_read_s": inclusive("ftl:Ftl.host_read"),
        "ftl.host_write_calls": calls("ftl:Ftl.host_write"),
        "ftl.host_write_s": inclusive("ftl:Ftl.host_write"),
        "ftl.check_refresh_calls": calls("ftl:Ftl.check_refresh"),
        "ftl.check_refresh_s": inclusive("ftl:Ftl.check_refresh"),
        "ftl.refresh_ops": counts.get("ftl.refresh_ops", 0),
        "ftl.gc_invocations": total("gc_invocations"),
        "ftl.gc_page_moves": total("gc_page_moves"),
        "ftl.block_erases": total("block_erases"),
        "ftl.refresh_page_moves": total("refresh_page_moves"),
        "ftl.adjusted_wordlines": total("refresh_adjusted_wordlines"),
        "ftl.gc_moves_per_erase": _ratio(total("gc_page_moves"), total("block_erases")),
        "ftl.ida_read_frac": _ratio(
            sum(r.ida_reads for r in records), sum(r.page_reads for r in records)
        ),
        "ftl.self_s": layers["ftl"],
        "ssd.dispatch_read_s": inclusive("ssd:SsdSimulator.dispatch_read"),
        "ssd.dispatch_write_s": inclusive("ssd:SsdSimulator.dispatch_write"),
        **{f"ssd.ops_{kind}": counts.get(f"ops.{kind}", 0) for kind in OP_KINDS},
        "ssd.host_ops_frac": _ratio(counts.get("ops.host", 0), _issued(counts)),
        "ssd.self_s": layers["ssd"],
        "engine.events": sum(r.events for r in records),
        "engine.events_per_op": _ratio(sum(r.events for r in records), phys_ops),
        "engine.at_calls": calls("engine:SimEngine.at"),
        "engine.drain_s": inclusive("engine:SimEngine.run"),
        "engine.self_s": layers["engine"],
        "engine.peak_pending": max(r.peak_pending for r in records),
        "pipeline.ops": calls("pipeline:OpPipeline.start"),
        "pipeline.stages_per_op": _ratio(
            calls("pipeline:OpPipeline._stage_done"), calls("pipeline:OpPipeline.start")
        ),
        "pipeline.self_s": layers["pipeline"],
        "resources.submits": calls("resources:Resource.submit"),
        "resources.submits_per_op": _ratio(calls("resources:Resource.submit"), phys_ops),
        "resources.self_s": layers["resources"],
        "resources.die_util": statistics.fmean(r.utilisation["die"] for r in records),
        "resources.chan_util": statistics.fmean(
            r.utilisation["channel"] for r in records
        ),
        "resources.host_read_wait_us": _wait(records, "host_read"),
        "resources.internal_wait_us": _wait(records, "internal"),
        "flash.state_bytes": max(r.state_bytes for r in records),
        "bench.self_s": layers["bench"],
        "other.self_s": layers["other"],
        "trace.wall_s": wall,
        "trace.spans": analysis["spans"],
        "trace.overhead_pct": _ratio(result.run_s - untraced_run_s, untraced_run_s) * 100,
        "trace.stage_machine_share": _ratio(
            sum(layers[layer] for layer in STAGE_MACHINE), simulated
        ),
        "trace.ftl_host_io_share": _ratio(
            self_time("ftl:Ftl.host_read") + self_time("ftl:Ftl.host_write"),
            simulated,
        ),
    }
    return values


def trace_problems(result, analysis: dict) -> list[str]:
    """Checks on the traced pass: spans tile the wall time, every op seen."""
    problems = []
    layers = analysis["layer_self_s"]
    covered = sum(layers.values())
    if abs(covered - analysis["wall_s"]) > 1e-6:
        problems.append(
            f"layer self times sum to {covered:.9f} s, traced wall is "
            f"{analysis['wall_s']:.9f} s"
        )
    issued = _issued(analysis["counts"])
    if issued != result.phys_ops:
        problems.append(
            f"traced op dispatches {issued} != phys_ops_dispatched {result.phys_ops}"
        )
    return problems
