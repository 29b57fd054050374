"""Trace correctness: span nesting, clock rebasing, and the disabled path."""

import pickle
import time

import pytest

from repro.obs.trace import (
    ASYNC,
    NULL_TRACER,
    SYNC,
    EventRecord,
    MetricsRegistry,
    NullTracer,
    SpanRecord,
    TraceBuffer,
    Tracer,
    active_collector,
    collector_scope,
    resolve_tracer,
    trace_run,
)


def _assert_strictly_nested(spans, slack=1e-9):
    """Sync spans of one (origin, tid) stream either nest or are disjoint."""
    streams = {}
    for span in spans:
        if span.flow == SYNC:
            streams.setdefault((span.origin, span.tid), []).append(span)
    for stream in streams.values():
        stream.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for span in stream:
            while stack and span.start >= stack[-1].end - slack:
                stack.pop()
            if stack:
                assert span.end <= stack[-1].end + slack, (
                    f"{span.name} [{span.start}, {span.end}] straddles "
                    f"{stack[-1].name} [{stack[-1].start}, {stack[-1].end}]"
                )
            stack.append(span)


class TestMetricsRegistry:
    def test_inc_and_default(self):
        reg = MetricsRegistry()
        assert reg.counter("never") == 0.0
        reg.inc("a")
        reg.inc("a", 2.5)
        assert reg.counter("a") == 3.5

    def test_merge_adds_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        b.inc("m", 4)
        a.merge(b)
        assert a.counters == {"n": 3.0, "m": 4.0}

    def test_bool(self):
        reg = MetricsRegistry()
        assert not reg
        reg.inc("x")
        assert reg


class TestTracerSpans:
    def test_sync_spans_strictly_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.spans) == 4
        assert all(s.flow == SYNC for s in tracer.spans)
        _assert_strictly_nested(tracer.spans)
        outer = tracer.find_spans("outer")[0]
        for inner in tracer.find_spans():
            assert outer.start <= inner.start and inner.end <= outer.end

    def test_add_span_is_async_flow(self):
        tracer = Tracer()
        tracer.add_span("rpc", 0.1, 0.5, host=2)
        tracer.add_span("rpc", 0.2, 0.6, host=1)  # overlapping is legal
        spans = tracer.find_spans("rpc")
        assert [s.flow for s in spans] == [ASYNC, ASYNC]
        _assert_strictly_nested(tracer.spans)  # async spans are exempt

    def test_find_spans_by_tag(self):
        tracer = Tracer()
        with tracer.span("round", round=1):
            pass
        with tracer.span("round", round=2):
            pass
        assert len(tracer.find_spans("round")) == 2
        assert len(tracer.find_spans("round", round=2)) == 1
        assert tracer.find_spans("round", round=3) == []

    def test_clock_is_monotone_from_zero(self):
        tracer = Tracer()
        a = tracer.clock()
        b = tracer.clock()
        assert 0.0 <= a <= b

    def test_events_and_origins(self):
        tracer = Tracer()
        tracer.event("absorb", site=1)
        with tracer.span("round"):
            pass
        assert tracer.origins() == ["coordinator"]
        assert tracer.events[0].tags == {"site": 1}


class TestAbsorb:
    def test_same_clock_lands_at_true_instants(self):
        # Linux perf_counter is system-wide CLOCK_MONOTONIC, so a buffer
        # recorded in-process is directly comparable: no rebase happens.
        tracer = Tracer()
        t0 = tracer.clock()
        buffer = TraceBuffer(origin="site-0")
        with buffer.span("site_task"):
            time.sleep(0.002)
        t1 = tracer.clock()
        tracer.absorb(buffer, window=(t0, t1), tags={"round": 1})
        span = tracer.find_spans("site_task")[0]
        assert t0 <= span.start <= span.end <= t1
        assert span.tags["round"] == 1
        assert span.origin == "site-0"

    def test_foreign_clock_rebased_into_window(self):
        tracer = Tracer()
        buffer = TraceBuffer(origin="host-9")
        # Raw instants near zero cannot come from this process's
        # perf_counter stream, so absorb must fall back to the window.
        buffer.spans.append(SpanRecord("task", 0.10, 0.20, "host-9", 1))
        buffer.spans.append(SpanRecord("sub", 0.12, 0.16, "host-9", 1))
        buffer.events.append(EventRecord("mark", 0.15, "host-9", 1, {}))
        window = (100.0, 101.0)
        tracer.absorb(buffer, window=window, tags={"host": 9})
        task = tracer.find_spans("task")[0]
        sub = tracer.find_spans("sub")[0]
        # Centred: buffer length 0.1 inside a 1.0 window -> starts at 100.45.
        assert task.start == pytest.approx(100.45)
        assert task.end == pytest.approx(100.55)
        # Order and durations survive, nesting is preserved.
        assert task.start <= sub.start <= sub.end <= task.end
        assert sub.duration == pytest.approx(0.04)
        event = tracer.events[0]
        assert task.start <= event.time <= task.end

    def test_buffer_longer_than_window_keeps_left_edge(self):
        tracer = Tracer()
        buffer = TraceBuffer(origin="host-0")
        buffer.spans.append(SpanRecord("task", 0.0, 2.0, "host-0", 1))
        tracer.absorb(buffer, window=(10.0, 11.0))
        span = tracer.find_spans("task")[0]
        assert span.start == pytest.approx(10.0)
        assert span.duration == pytest.approx(2.0)

    def test_absorb_merges_metrics_and_tags_do_not_override(self):
        tracer = Tracer()
        tracer.inc("hits", 1)
        buffer = TraceBuffer(origin="host-0")
        buffer.inc("hits", 2)
        buffer.spans.append(SpanRecord("task", 0.0, 1.0, "host-0", 1, {"round": 7}))
        tracer.absorb(buffer, window=(0.0, 1.0), tags={"round": 99, "host": 0})
        assert tracer.counter("hits") == 3.0
        span = tracer.find_spans("task")[0]
        assert span.tags["round"] == 7  # the record's own tag wins
        assert span.tags["host"] == 0

    def test_absorb_empty_or_none_is_a_no_op(self):
        tracer = Tracer()
        tracer.absorb(None)
        tracer.absorb(TraceBuffer(origin="x"), window=(0.0, 1.0))
        assert tracer.spans == [] and tracer.events == []

    def test_buffer_roundtrips_through_pickle(self):
        buffer = TraceBuffer(origin="site-3")
        with buffer.span("site_task", site=3):
            buffer.inc("plan.tiles", 4)
            buffer.event("mark")
        clone = pickle.loads(pickle.dumps(buffer))
        assert clone.origin == "site-3"
        assert [s.name for s in clone.spans] == ["site_task"]
        assert clone.metrics.counter("plan.tiles") == 4.0
        assert clone.bounds() == buffer.bounds()


class TestDisabledTracer:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("round", round=1):
            NULL_TRACER.inc("wire.bytes", 100)
            NULL_TRACER.event("absorb")
            NULL_TRACER.add_span("rpc", 0.0, 1.0)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.events == []
        assert NULL_TRACER.counter("wire.bytes") == 0.0

    def test_span_reuses_one_context_manager(self):
        # Zero per-call allocation when tracing is off.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", tag=1)

    def test_resolve_tracer_mapping(self):
        assert resolve_tracer(False) is NULL_TRACER
        assert resolve_tracer(None) is NULL_TRACER
        fresh = resolve_tracer(True)
        assert isinstance(fresh, Tracer) and fresh.enabled
        assert resolve_tracer(fresh) is fresh
        null = NullTracer()
        assert resolve_tracer(null) is null
        with pytest.raises(TypeError):
            resolve_tracer("yes")

    def test_trace_run_disabled_installs_no_collector(self):
        with trace_run(NULL_TRACER, "run"):
            assert active_collector() is None
        assert NULL_TRACER.spans == []


class TestAmbientCollector:
    def test_scope_installs_and_restores(self):
        tracer = Tracer()
        assert active_collector() is None
        with collector_scope(tracer):
            assert active_collector() is tracer
            buffer = TraceBuffer(origin="task-0")
            with collector_scope(buffer):
                assert active_collector() is buffer
            assert active_collector() is tracer
        assert active_collector() is None

    def test_trace_run_enabled_records_root_span(self):
        tracer = Tracer()
        with trace_run(tracer, "run", algorithm="algorithm1"):
            assert active_collector() is tracer
        assert len(tracer.find_spans("run", algorithm="algorithm1")) == 1
        assert active_collector() is None
