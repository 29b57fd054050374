"""repro.obs — run tracing, live telemetry, and round-by-round run reports.

The observability substrate every layer of a run reports through: a
:class:`~repro.obs.trace.Tracer` with spans/events/counters on one
monotonic timeline (runner-side work rides back on picklable
:class:`~repro.obs.trace.TraceBuffer`\\ s), a round-by-round report read
from the trace and the run's ledgers, and a Chrome/Perfetto
``trace_event`` export.  Enable with ``trace=True`` on any protocol driver;
the tracer is attached to the result as ``result.trace``.  On a cluster
backend the trace's ``wire.bytes*`` counters are the
:class:`~repro.cluster.wire.WireLedger`'s own records, mirrored as each
frame is recorded, so mid-run snapshots see the bytes too.

``trace=`` is the one observability option.  Passing a
:class:`~repro.obs.live.TelemetrySession` instead of ``True`` also watches
the run live: background resource sampling on the coordinator and (over
heartbeat frames) every runner (:mod:`~repro.obs.sampler`) and mid-run
metric snapshots to Prometheus/JSONL sinks (:mod:`~repro.obs.live`).
"""

from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.live import (
    JsonlSink,
    LiveMetrics,
    PrometheusFileSink,
    TelemetrySession,
    build_snapshot,
    prometheus_text,
)
from repro.obs.report import (
    SUMMARY_COUNTERS,
    protocol_summary,
    render_protocol_summary,
    render_round_report,
    round_report,
)
from repro.obs.sampler import (
    RESOURCE_SAMPLE_ENV,
    ResourceSampler,
    read_resource_sample,
    resource_samples_enabled,
)
from repro.obs.trace import (
    NULL_TRACER,
    EventRecord,
    MetricsRegistry,
    NullTracer,
    SpanRecord,
    TraceBuffer,
    TraceLike,
    Tracer,
    active_collector,
    collector_scope,
    resolve_tracer,
    trace_run,
)

__all__ = [
    "NULL_TRACER",
    "RESOURCE_SAMPLE_ENV",
    "SUMMARY_COUNTERS",
    "EventRecord",
    "JsonlSink",
    "LiveMetrics",
    "MetricsRegistry",
    "NullTracer",
    "PrometheusFileSink",
    "ResourceSampler",
    "SpanRecord",
    "TelemetrySession",
    "TraceBuffer",
    "TraceLike",
    "Tracer",
    "active_collector",
    "build_snapshot",
    "collector_scope",
    "prometheus_text",
    "protocol_summary",
    "read_resource_sample",
    "render_protocol_summary",
    "render_round_report",
    "resolve_tracer",
    "resource_samples_enabled",
    "round_report",
    "to_chrome_trace",
    "trace_run",
    "write_chrome_trace",
]
