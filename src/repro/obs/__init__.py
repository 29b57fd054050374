"""repro.obs — run tracing and round-by-round run reports.

The observability substrate every layer of a run reports through: a
:class:`~repro.obs.trace.Tracer` with spans/events/counters on one
monotonic timeline (runner-side work rides back on picklable
:class:`~repro.obs.trace.TraceBuffer`\\ s), a round-by-round report read
from the trace and the run's ledgers, and a Chrome/Perfetto
``trace_event`` export.  Enable with ``trace=True`` on any protocol driver;
the tracer is attached to the result as ``result.trace``.  On a cluster
backend the trace's ``wire.bytes*`` counters are the
:class:`~repro.cluster.wire.WireLedger`'s own records, mirrored as each
frame is recorded.

``trace=`` is the one observability option: ``False``/``None`` (off),
``True`` (a fresh tracer per run) or an existing
:class:`~repro.obs.trace.Tracer` to share one timeline across runs.
"""

from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.report import (
    SUMMARY_COUNTERS,
    protocol_summary,
    render_round_report,
    round_report,
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
    "SUMMARY_COUNTERS",
    "EventRecord",
    "MetricsRegistry",
    "NullTracer",
    "SpanRecord",
    "TraceBuffer",
    "TraceLike",
    "Tracer",
    "active_collector",
    "collector_scope",
    "protocol_summary",
    "render_round_report",
    "resolve_tracer",
    "round_report",
    "to_chrome_trace",
    "trace_run",
    "write_chrome_trace",
]
