"""Live metrics plane: mid-run snapshots, pluggable sinks, telemetry sessions.

PR 6's tracer answers "what happened" after a run returns; this module makes
the same counters and gauges observable *while the run executes*:

:func:`build_snapshot`
    One point-in-time view of a tracer — every counter and gauge it holds,
    plus derived gauges (resident/payload cache hit rates, compression
    ratio) that are cheap to compute once per snapshot but wasteful to
    maintain per increment.

Sinks
    :class:`JsonlSink` appends each snapshot as one JSON line;
    :class:`PrometheusFileSink` atomically rewrites a text-exposition file
    (node-exporter textfile-collector style); :class:`PrometheusHttpSink`
    serves the latest exposition from a stdlib HTTP endpoint
    (``port=0`` picks a free port — see :attr:`~PrometheusHttpSink.port`).
    All sinks implement ``publish(snapshot)``/``close()``; anything with
    that shape plugs in.

:class:`LiveMetrics`
    The snapshot thread: every ``interval`` seconds it builds a snapshot
    and publishes it to every sink.  ``stop()`` publishes one final
    snapshot so short runs still export a complete view.

:class:`TelemetrySession`
    The user-facing ``telemetry=`` knob's value: bundles a tracer, a
    coordinator :class:`~repro.obs.sampler.ResourceSampler`, a
    :class:`LiveMetrics` thread, a structured :class:`~repro.obs.logs.RunLog`
    and an optional run-history store.  ``telemetry=False`` (the default on
    every driver) resolves to the shared :data:`NULL_TELEMETRY` — the same
    zero-per-task-allocation null-object guarantee as ``NULL_TRACER``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO

from repro.obs.logs import RunLog, log_scope
from repro.obs.sampler import ResourceSampler
from repro.obs.trace import Tracer

#: ``telemetry=`` accepts bool / None / a session, mirroring ``TraceLike``.
TelemetryLike = Any


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def _hit_rate(hits: float, misses: float) -> Optional[float]:
    total = hits + misses
    return (hits / total) if total > 0 else None


def build_snapshot(tracer: Any, *, label: Optional[str] = None) -> Dict[str, Any]:
    """One point-in-time view of a tracer's counters and gauges.

    Adds derived gauges no layer maintains incrementally:
    ``cluster.resident_hit_rate`` / ``cluster.payload_hit_rate`` (cache
    effectiveness so far) and ``wire.compression`` (raw/encoded bytes ratio).
    Safe to call from any thread; dict copies are atomic under the GIL and a
    snapshot is allowed to be ~one increment stale.
    """
    metrics = getattr(tracer, "metrics", None)
    counters = dict(metrics.counters) if metrics is not None else {}
    gauges = dict(metrics.gauges) if metrics is not None else {}

    derived: Dict[str, float] = {}
    for key, hit, miss in (
        ("cluster.resident_hit_rate", "cluster.resident_hit", "cluster.resident_miss"),
        ("cluster.payload_hit_rate", "cluster.payload_hit", "cluster.payload_miss"),
        ("prefetch.hit_rate", "prefetch.hit", "prefetch.miss"),
    ):
        rate = _hit_rate(counters.get(hit, 0.0), counters.get(miss, 0.0))
        if rate is not None:
            derived[key] = rate
    encoded = counters.get("wire.bytes_encoded", 0.0)
    if encoded > 0:
        derived["wire.compression"] = counters.get("wire.bytes", 0.0) / encoded

    snapshot: Dict[str, Any] = {
        "t": time.time(),
        "clock": float(tracer.clock()) if getattr(tracer, "enabled", False) else 0.0,
        "counters": counters,
        "gauges": {**gauges, **derived},
    }
    if label is not None:
        snapshot["label"] = label
    return snapshot


def _metric_name(name: str) -> str:
    """Sanitize a dotted counter/gauge name into a Prometheus metric name."""
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot in the Prometheus text exposition format (v0.0.4).

    Counters become ``counter`` metrics, gauges ``gauge`` metrics; dotted
    names are flattened (``wire.bytes`` → ``repro_wire_bytes``).  A run
    ``label`` lands as a ``run`` label on every sample.
    """
    label = snapshot.get("label")
    suffix = "{run=%s}" % json.dumps(str(label)) if label is not None else ""
    lines: List[str] = []
    for kind, family in (("counter", "counters"), ("gauge", "gauges")):
        for name in sorted(snapshot.get(family, {})):
            metric = _metric_name(name)
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric}{suffix} {snapshot[family][name]:.10g}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class JsonlSink:
    """Appends every snapshot as one JSON line to ``path``."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[TextIO] = None
        self._lock = threading.Lock()

    def publish(self, snapshot: Dict[str, Any]) -> None:
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            json.dump(snapshot, self._fh)
            self._fh.write("\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class PrometheusFileSink:
    """Rewrites a Prometheus text-exposition file on every snapshot.

    The write is atomic (temp file + ``os.replace``) so a scraper using the
    node-exporter textfile collector never reads a half-written exposition.
    """

    def __init__(self, path: str):
        self.path = path

    def publish(self, snapshot: Dict[str, Any]) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(snapshot))
        os.replace(tmp, self.path)

    def close(self) -> None:
        pass


class PrometheusHttpSink:
    """Serves the latest snapshot as Prometheus text from a stdlib endpoint.

    ``GET /metrics`` (or ``/``) returns the most recent exposition.  The
    server is a daemon-threaded ``ThreadingHTTPServer`` bound to
    ``(host, port)``; ``port=0`` binds a free port, readable from
    :attr:`port` after construction.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        sink = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib API
                if self.path not in ("/", "/metrics"):
                    self.send_error(404)
                    return
                body = sink._latest_text.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrape traffic must not spam the run's stderr

        self._latest_text = "# no snapshot published yet\n"
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self.host = self._server.server_address[0]
        self.port = int(self._server.server_address[1])
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-prom-http", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def publish(self, snapshot: Dict[str, Any]) -> None:
        self._latest_text = prometheus_text(snapshot)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The snapshot thread
# ---------------------------------------------------------------------------

class LiveMetrics:
    """Publishes tracer snapshots to every sink, every ``interval`` seconds.

    ``start()`` publishes immediately, so even a run shorter than one
    interval exports at least two snapshots (initial + the final one
    ``stop()`` publishes and returns).
    """

    def __init__(
        self,
        tracer: Any,
        sinks: Sequence[Any],
        *,
        interval: float = 0.25,
        label: Optional[str] = None,
    ):
        if interval <= 0:
            raise ValueError(f"snapshot interval must be positive, got {interval}")
        self.tracer = tracer
        self.sinks = list(sinks)
        self.interval = float(interval)
        self.label = label
        self.snapshots_published = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def publish_once(self) -> Dict[str, Any]:
        snapshot = build_snapshot(self.tracer, label=self.label)
        for sink in self.sinks:
            try:
                sink.publish(snapshot)
            except Exception:  # pragma: no cover - a sink must not kill a run
                pass
        self.snapshots_published += 1
        return snapshot

    def start(self) -> "LiveMetrics":
        if self._thread is not None:
            return self
        self.publish_once()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-live-metrics", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.publish_once()
            except Exception:  # pragma: no cover - snapshots must never kill a run
                pass

    def stop(self) -> Dict[str, Any]:
        """Stop the thread (idempotent) and publish+return one final snapshot."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        return self.publish_once()


# ---------------------------------------------------------------------------
# Telemetry sessions: the ``telemetry=`` knob's value
# ---------------------------------------------------------------------------

class TelemetrySession:
    """Everything the live-telemetry plane runs for one (or several) runs.

    Construct once, pass as ``telemetry=`` to any driver.  The session is
    reusable across runs: each :func:`telemetry_scope` entry starts a fresh
    coordinator sampler + snapshot thread against the session's tracer, and
    exit stops them (publishing a final snapshot into
    :attr:`last_snapshot`).  Cluster backends it is applied to additionally
    ask runners for heartbeat-piggybacked resource samples and forward
    runner log buffers into :attr:`run_log`.

    Parameters name the sinks declaratively so callers don't need to import
    sink classes: ``prometheus_path``/``jsonl_path`` for file sinks,
    ``prometheus_port`` (0 = free port) to serve HTTP, ``log_path`` to
    stream the structured log, plus ``sinks`` for anything custom.
    """

    enabled = True

    def __init__(
        self,
        *,
        sample_interval: float = 0.05,
        snapshot_interval: float = 0.25,
        sinks: Optional[Sequence[Any]] = None,
        prometheus_path: Optional[str] = None,
        prometheus_port: Optional[int] = None,
        jsonl_path: Optional[str] = None,
        log_path: Optional[str] = None,
        history: Optional[Any] = None,
        label: Optional[str] = None,
    ):
        self.sample_interval = float(sample_interval)
        self.snapshot_interval = float(snapshot_interval)
        self.label = label
        self.history = history
        self.sinks: List[Any] = list(sinks or [])
        if jsonl_path is not None:
            self.sinks.append(JsonlSink(jsonl_path))
        if prometheus_path is not None:
            self.sinks.append(PrometheusFileSink(prometheus_path))
        self.http_sink: Optional[PrometheusHttpSink] = None
        if prometheus_port is not None:
            self.http_sink = PrometheusHttpSink(port=prometheus_port)
            self.sinks.append(self.http_sink)
        self._log_path = log_path
        self.tracer: Optional[Tracer] = None
        self.run_log: Optional[RunLog] = None
        self.sampler: Optional[ResourceSampler] = None
        self.live: Optional[LiveMetrics] = None
        self.last_snapshot: Optional[Dict[str, Any]] = None

    # -- wiring --------------------------------------------------------------

    def adopt_tracer(self, tracer: Any) -> Any:
        """Bind the session to the run's tracer (creating one if the run is
        untraced) and return the tracer the driver should use.

        Telemetry implies tracing: gauges and counters live on the tracer,
        so a ``telemetry=session`` run with ``trace=False`` gets a private
        enabled tracer.  Idempotent — re-adopting the same tracer (or
        adopting while already bound) keeps the existing binding so one
        session can watch several sequential runs on one timeline.
        """
        if getattr(tracer, "enabled", False):
            if self.tracer is not tracer:
                self.tracer = tracer
                self.run_log = RunLog(tracer, path=self._log_path)
        elif self.tracer is None:
            self.tracer = Tracer()
            self.run_log = RunLog(self.tracer, path=self._log_path)
        return self.tracer

    # -- lifecycle (driven by telemetry_scope) -------------------------------

    def _start(self) -> None:
        if self.tracer is None:
            self.adopt_tracer(None)
        self.sampler = ResourceSampler(
            self.sample_interval, tracer=self.tracer, origin="coordinator"
        ).start()
        self.live = LiveMetrics(
            self.tracer, self.sinks,
            interval=self.snapshot_interval, label=self.label,
        ).start()

    def _stop(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()
            self.peak_rss = self.sampler.peak_rss()
            self.sampler = None
        if self.live is not None:
            self.last_snapshot = self.live.stop()
            self.live = None

    def close(self) -> None:
        """Release every sink (idempotent); sessions are reusable until then."""
        self._stop()
        for sink in self.sinks:
            try:
                sink.close()
            except Exception:  # pragma: no cover
                pass
        if self.run_log is not None:
            self.run_log.close()

    #: Peak coordinator RSS over the most recent scoped run (bytes); 0.0
    #: before any run completes.
    peak_rss: float = 0.0


class NullTelemetry:
    """The ``telemetry=False`` object: inert, shared, allocation-free.

    Same null-object standard as ``NULL_TRACER`` — every method is a cheap
    no-op returning a fixed value, so the default path costs one attribute
    read and zero allocations per call site.
    """

    enabled = False
    tracer = None
    run_log = None
    sampler = None
    live = None
    history = None
    last_snapshot = None
    peak_rss = 0.0
    sample_interval = 0.0

    def adopt_tracer(self, tracer: Any) -> Any:
        return tracer

    def _start(self) -> None:
        return None

    def _stop(self) -> None:
        return None

    def close(self) -> None:
        return None


#: Shared inert session used whenever ``telemetry`` is off.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(telemetry: TelemetryLike) -> Any:
    """Resolve a ``telemetry=`` knob to a session.

    ``False``/``None`` → the shared :data:`NULL_TELEMETRY`; ``True`` → a
    fresh default :class:`TelemetrySession`; an existing
    :class:`TelemetrySession`/:class:`NullTelemetry` passes through.
    Mirrors :func:`~repro.obs.trace.resolve_tracer` exactly, including the
    ``TypeError`` on anything else (a :class:`~repro.obs.trace.Tracer`
    belongs on ``trace=``).
    """
    if telemetry is None or telemetry is False:
        return NULL_TELEMETRY
    if telemetry is True:
        return TelemetrySession()
    if isinstance(telemetry, (TelemetrySession, NullTelemetry)):
        return telemetry
    raise TypeError(
        f"telemetry= expects bool, None, or a TelemetrySession; got {telemetry!r}"
    )


@contextmanager
def telemetry_scope(session: Any) -> Iterator[Any]:
    """Run one driver body under a telemetry session.

    Disabled sessions yield immediately (nothing started, nothing to stop).
    Enabled sessions start a fresh coordinator sampler + snapshot thread,
    install the session's :class:`~repro.obs.logs.RunLog` as the ambient
    structured-log sink, and on exit stop both (the final snapshot lands in
    ``session.last_snapshot``).  Appending to ``session.history`` stays the
    caller's decision — drivers measure, they don't persist.
    """
    if not getattr(session, "enabled", False):
        yield session
        return
    session._start()
    try:
        with log_scope(session.run_log):
            yield session
    finally:
        session._stop()


__all__ = [
    "JsonlSink",
    "LiveMetrics",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "PrometheusFileSink",
    "PrometheusHttpSink",
    "TelemetryLike",
    "TelemetrySession",
    "build_snapshot",
    "prometheus_text",
    "resolve_telemetry",
    "telemetry_scope",
]
