"""Live metrics plane: mid-run snapshots, pluggable sinks, telemetry sessions.

The tracer answers "what happened" after a run returns; this module makes
the same counters and gauges observable *while the run executes*:

:func:`build_snapshot`
    One point-in-time view of a tracer — every counter and gauge it holds,
    plus derived gauges (resident/payload cache hit rates, compression
    ratio) that are cheap to compute once per snapshot but wasteful to
    maintain per increment.

Sinks
    :class:`JsonlSink` appends each snapshot as one JSON line;
    :class:`PrometheusFileSink` atomically rewrites a text-exposition file
    (node-exporter textfile-collector style).  Both implement
    ``publish(snapshot)``/``close()``; anything with that shape plugs in.

:class:`LiveMetrics`
    The snapshot thread: every ``interval`` seconds it builds a snapshot
    and publishes it to every sink.  ``stop()`` publishes one final
    snapshot so short runs still export a complete view.

:class:`TelemetrySession`
    The ``trace=`` value that watches runs live.  Each run records on a
    fresh tracer, and :meth:`TelemetrySession.watch` runs a coordinator
    :class:`~repro.obs.sampler.ResourceSampler` and a :class:`LiveMetrics`
    thread against it for as long as the run lasts.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO

from repro.obs.sampler import ResourceSampler
from repro.obs.trace import Tracer


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
# Telemetry sessions: the ``trace=`` value that watches runs live
# ---------------------------------------------------------------------------

class TelemetrySession:
    """Everything the live-telemetry plane runs next to a protocol run.

    Construct once and pass as ``trace=`` to any driver, once per run or
    across many.  Each run records on a fresh tracer (its ``result.trace``)
    that the session watches while the run lasts (:meth:`watch`).  On a
    cluster backend the session also asks runners for heartbeat-piggybacked
    resource samples.

    Parameters name the sinks declaratively so callers don't need to import
    sink classes: ``prometheus_path``/``jsonl_path`` for file sinks, plus
    ``sinks`` for anything custom.
    """

    def __init__(
        self,
        *,
        sample_interval: float = 0.05,
        snapshot_interval: float = 0.25,
        sinks: Optional[Sequence[Any]] = None,
        prometheus_path: Optional[str] = None,
        jsonl_path: Optional[str] = None,
        label: Optional[str] = None,
    ):
        self.sample_interval = float(sample_interval)
        self.snapshot_interval = float(snapshot_interval)
        self.label = label
        self.sinks: List[Any] = list(sinks or [])
        if jsonl_path is not None:
            self.sinks.append(JsonlSink(jsonl_path))
        if prometheus_path is not None:
            self.sinks.append(PrometheusFileSink(prometheus_path))
        #: The most recently watched run's tracer.
        self.tracer: Optional[Tracer] = None
        #: That run's final snapshot and peak coordinator RSS (bytes).
        self.last_snapshot: Optional[Dict[str, Any]] = None
        self.peak_rss = 0.0

    @contextmanager
    def watch(self, tracer: Tracer) -> Iterator[Tracer]:
        """Watch one run's tracer for the duration of the block.

        Binds :attr:`tracer` and starts a coordinator resource sampler and
        the snapshot thread.  On exit both threads stop: the final snapshot
        lands in :attr:`last_snapshot` and the coordinator's peak RSS in
        :attr:`peak_rss`.
        """
        self.tracer = tracer
        # Both constructors validate their interval before either thread starts.
        sampler = ResourceSampler(
            self.sample_interval, tracer=tracer, origin="coordinator"
        )
        live = LiveMetrics(
            tracer, self.sinks, interval=self.snapshot_interval, label=self.label
        )
        sampler.start()
        live.start()
        try:
            yield tracer
        finally:
            sampler.stop()
            self.peak_rss = sampler.peak_rss()
            self.last_snapshot = live.stop()

    def close(self) -> None:
        """Release every sink (idempotent)."""
        for sink in self.sinks:
            try:
                sink.close()
            except Exception:  # pragma: no cover
                pass


__all__ = [
    "JsonlSink",
    "LiveMetrics",
    "PrometheusFileSink",
    "TelemetrySession",
    "build_snapshot",
    "prometheus_text",
]
