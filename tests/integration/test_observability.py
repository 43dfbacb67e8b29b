"""End-to-end acceptance tests for the observability layer.

The two contract points from the telemetry design:

1. **Span accounting** — for every traced host read, the critical page's
   stage durations (queue wait + sense + transfer + ECC) plus the host
   overhead sum exactly to the reported response time.
2. **Zero perturbation** — tracing and interval collection are passive:
   a traced/collected run produces identical ``SimMetrics`` to a bare
   run of the same (system, workload, scale, seed).
"""

from __future__ import annotations

import pytest

from repro.experiments import RunScale, ida
from repro.experiments.runner import run_workload
from repro.obs import IntervalCollector, MemorySink, NullTracer, Telemetry, Tracer
from repro.workloads import workload

SEED = 11
TOL = 1e-6


def traced_run(tracer=None, collector=None):
    return run_workload(
        ida(0.2),
        workload("usr_1"),
        RunScale.tiny(),
        seed=SEED,
        telemetry=Telemetry(tracer=tracer, collector=collector),
    )


@pytest.fixture(scope="module")
def trace_and_result():
    sink = MemorySink()
    result = traced_run(tracer=Tracer(sink))
    return sink, result


def metrics_fingerprint(metrics) -> tuple:
    """Every observable field of SimMetrics, exactly (no rounding)."""
    return (
        metrics.read_response._samples,
        metrics.write_response._samples,
        metrics.read_mix.by_type,
        metrics.read_mix.csb_with_invalid_lsb,
        metrics.read_mix.msb_with_invalid_lower,
        metrics.read_mix.ida_fast_reads,
        metrics.read_mix.total,
        metrics.bytes_read,
        metrics.bytes_written,
        metrics.start_us,
        metrics.end_us,
        metrics.gc_invocations,
        metrics.gc_page_moves,
        metrics.block_erases,
        metrics.refresh_invocations,
        metrics.refresh_page_moves,
        metrics.refresh_adjusted_wordlines,
        metrics.refresh_reprogrammed_pages,
        metrics.refresh_corrupted_pages,
        metrics.refresh_extra_reads,
        metrics.read_retries,
        metrics.unmapped_reads,
    )


class TestSpanAccounting:
    def test_trace_has_header_and_run_markers(self, trace_and_result):
        sink, _ = trace_and_result
        events = list(sink.events)
        assert events[0]["kind"] == "trace_header"
        assert len(sink.by_kind("run_start")) == 1
        assert len(sink.by_kind("run_end")) == 1
        assert events[-1]["kind"] == "run_end"

    def test_every_read_span_sums_to_its_response_time(self, trace_and_result):
        sink, _ = trace_and_result
        spans = sink.by_kind("read_span")
        assert spans, "traced run produced no read spans"
        for span in spans:
            critical = span["critical"]
            stage_sum = (
                critical["queue_wait_us"]
                + critical["sense_us"]
                + critical["transfer_us"]
                + critical["ecc_us"]
                + critical["program_us"]
                + critical["host_overhead_us"]
            )
            assert stage_sum == pytest.approx(span["response_us"], abs=TOL), (
                f"request {span['request_id']}: stages sum to {stage_sum}, "
                f"response is {span['response_us']}"
            )

    def test_every_write_span_sums_to_its_response_time(self, trace_and_result):
        sink, _ = trace_and_result
        spans = sink.by_kind("write_span")
        assert spans, "traced run produced no write spans"
        for span in spans:
            critical = span["critical"]
            stage_sum = (
                critical["queue_wait_us"]
                + critical["sense_us"]
                + critical["transfer_us"]
                + critical["ecc_us"]
                + critical["program_us"]
                + critical["host_overhead_us"]
            )
            assert stage_sum == pytest.approx(span["response_us"], abs=TOL)

    def test_page_stage_records_tile_their_pipeline(self, trace_and_result):
        # Open-loop dispatch issues every page op at the request's arrival
        # time, so each page's stages tile [arrival, that page's end].
        sink, _ = trace_and_result
        for span in sink.by_kind("read_span"):
            for page in span["stages"]:
                pipeline = (
                    page["queue_wait_us"] + page["sense_us"]
                    + page["transfer_us"] + page["ecc_us"]
                    + page["program_us"]
                )
                assert page["end_us"] - span["arrival_us"] == pytest.approx(
                    pipeline, abs=TOL
                )

    def test_span_responses_match_recorded_latencies(self, trace_and_result):
        sink, result = trace_and_result
        span_responses = sorted(
            e["response_us"] for e in sink.by_kind("read_span")
        )
        samples = sorted(result.metrics.read_response._samples)
        assert len(span_responses) == len(samples)
        assert span_responses == pytest.approx(samples, abs=TOL)

    def test_background_events_traced(self, trace_and_result):
        sink, result = trace_and_result
        # The tiny IDA run performs refreshes; each leaves a refresh event
        # and its wordline adjustments leave ida_adjust events.
        refreshes = sink.by_kind("refresh")
        assert len(refreshes) == result.metrics.refresh_invocations
        adjusts = sink.by_kind("ida_adjust")
        assert len(adjusts) == result.metrics.refresh_adjusted_wordlines


class TestZeroPerturbation:
    def test_null_tracer_and_traced_runs_match_bare_run(self):
        bare = traced_run()
        null = traced_run(tracer=NullTracer())
        traced = traced_run(tracer=Tracer(MemorySink()))
        reference = metrics_fingerprint(bare.metrics)
        assert metrics_fingerprint(null.metrics) == reference
        assert metrics_fingerprint(traced.metrics) == reference

    def test_collected_run_matches_bare_run(self):
        bare = traced_run()
        collector = IntervalCollector(10_000.0)
        collected = traced_run(collector=collector)
        assert metrics_fingerprint(collected.metrics) == metrics_fingerprint(
            bare.metrics
        )
        assert collector.snapshots, "collector sampled nothing"
        # The series accounts for every completed request exactly once.
        assert sum(s.reads_completed for s in collector.snapshots) == (
            collected.metrics.read_response.count
        )
        assert sum(s.writes_completed for s in collector.snapshots) == (
            collected.metrics.write_response.count
        )

    def test_intervals_are_contiguous_and_bounded(self):
        collector = IntervalCollector(10_000.0)
        result = traced_run(collector=collector)
        snaps = collector.snapshots
        for a, b in zip(snaps, snaps[1:]):
            assert a.end_us == b.start_us
        assert snaps[-1].end_us <= result.metrics.end_us + TOL
        for snap in snaps:
            assert 0.0 <= snap.die_utilisation <= 1.0
            assert 0.0 <= snap.channel_utilisation <= 1.0
