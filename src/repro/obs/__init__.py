"""repro.obs — run tracing, live telemetry, and round-by-round run reports.

The observability substrate every layer of a run reports through: a
:class:`~repro.obs.trace.Tracer` with spans/events/counters on one
monotonic timeline (runner-side work rides back on picklable
:class:`~repro.obs.trace.TraceBuffer`\\ s), a round-by-round report that
cross-checks trace-derived byte totals against the wire ledger, and a
Chrome/Perfetto ``trace_event`` export.  Enable with ``trace=True`` on any
protocol driver; the tracer is attached to the result as ``result.trace``.

``trace=`` is the one observability option.  Passing a
:class:`~repro.obs.live.TelemetrySession` instead of ``True`` also watches
the run live: background resource sampling on the coordinator and (over
heartbeat frames) every runner (:mod:`~repro.obs.sampler`), mid-run metric
snapshots to Prometheus/JSONL sinks (:mod:`~repro.obs.live`) and structured
span-correlated JSON-lines logs (:mod:`~repro.obs.logs`).  A persistent
run-history registry with a ``python -m repro.obs.history`` regression CLI
(:mod:`~repro.obs.history`) records finished runs.
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
from repro.obs.logs import LogBuffer, LogRecord, RunLog, active_log, log, log_scope
from repro.obs.report import (
    SUMMARY_COUNTERS,
    assert_byte_parity,
    byte_parity_diff,
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
    rebase_offset,
    resolve_tracer,
    trace_run,
)

# The run-history registry is re-exported lazily (PEP 562) rather than
# imported here: ``python -m repro.obs.history`` first imports this package,
# and an eager ``from repro.obs.history import ...`` would leave the module
# in sys.modules before runpy executes it, tripping a RuntimeWarning on
# every CLI invocation.
_HISTORY_EXPORTS = ("RUN_HISTORY_ENV", "RunHistory", "summary_record")


def __getattr__(name):
    if name in _HISTORY_EXPORTS:
        from repro.obs import history

        return getattr(history, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NULL_TRACER",
    "RESOURCE_SAMPLE_ENV",
    "RUN_HISTORY_ENV",
    "SUMMARY_COUNTERS",
    "EventRecord",
    "JsonlSink",
    "LiveMetrics",
    "LogBuffer",
    "LogRecord",
    "MetricsRegistry",
    "NullTracer",
    "PrometheusFileSink",
    "ResourceSampler",
    "RunHistory",
    "RunLog",
    "SpanRecord",
    "TelemetrySession",
    "TraceBuffer",
    "TraceLike",
    "Tracer",
    "active_collector",
    "active_log",
    "assert_byte_parity",
    "build_snapshot",
    "byte_parity_diff",
    "collector_scope",
    "log",
    "log_scope",
    "prometheus_text",
    "protocol_summary",
    "read_resource_sample",
    "rebase_offset",
    "render_protocol_summary",
    "render_round_report",
    "resolve_tracer",
    "resource_samples_enabled",
    "round_report",
    "summary_record",
    "to_chrome_trace",
    "trace_run",
    "write_chrome_trace",
]
