"""Observability: event tracing, interval time-series, trace inspection.

The simulator's measurement story has two layers.  :mod:`repro.sim.metrics`
keeps the end-of-run aggregates the paper's tables are built from; this
package records *how a run behaved* — per-request lifecycle spans (queue
wait vs sense vs transfer vs ECC), GC / refresh / IDA-reprogram events,
and periodic samples of queue depths, utilisation and latency histograms.
All of it is opt-in and passive, and reaches a run through one attach
point: a picklable :class:`Instruments` spec built into a live
:class:`Telemetry` bundle.  An instrumented run is behaviourally and
metrically identical to an uninstrumented one.

See ``docs/observability.md`` for the event schema and a worked example.
"""

from .health import HEALTH_SCHEMA, HealthMonitor, HealthSnapshot
from .histogram import Histogram, default_latency_bounds
from .inspect import (
    TraceLoadError,
    TraceSummary,
    format_last_spans,
    format_trace_summary,
    load_trace,
    load_trace_safe,
    summarize_trace,
)
from .instruments import Instruments, Telemetry
from .interval import IntervalCollector, IntervalSnapshot
from .slo import DEFAULT_READ_P99_SLO, SloEngine, SloObjective
from .tracer import (
    NULL_TRACER,
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    NullTracer,
    TraceSink,
    Tracer,
    read_jsonl_trace,
)

__all__ = [
    "SCHEMA_VERSION",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl_trace",
    "Histogram",
    "default_latency_bounds",
    "IntervalCollector",
    "IntervalSnapshot",
    "Instruments",
    "Telemetry",
    "HEALTH_SCHEMA",
    "HealthMonitor",
    "HealthSnapshot",
    "SloEngine",
    "SloObjective",
    "DEFAULT_READ_P99_SLO",
    "SimProfiler",
    "validate_chrome_trace",
    "TraceSummary",
    "TraceLoadError",
    "load_trace",
    "load_trace_safe",
    "summarize_trace",
    "format_trace_summary",
    "format_last_spans",
]

# The profiler pulls in :mod:`repro.sim.resources`, and importing any
# ``repro.sim`` submodule runs the ``repro.sim`` package init — which
# imports the simulator, which imports the FTL, which imports this
# package.  Loading the profiler lazily (PEP 562) keeps that loop open
# so ``import repro.ftl`` works on its own in a fresh interpreter.
_PROFILER_NAMES = frozenset({"SimProfiler", "validate_chrome_trace"})


def __getattr__(name: str):
    if name in _PROFILER_NAMES:
        from . import profiler

        return getattr(profiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
