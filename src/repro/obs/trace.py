"""Run tracing and metrics: one timeline across coordinator, runners, wire.

The paper's evaluation is *accounting* — communication per protocol, local
vs. coordinator time — and the repo already has three disjoint instruments
for it (``Timer`` labels, the word-count ``CommunicationLedger``, the
physical ``WireLedger``).  This module adds the layer that ties them
together: a :class:`Tracer` records *spans* (named intervals with tags) and
*events* on a single monotonic timeline, plus a :class:`MetricsRegistry` of
counters, cheap enough to thread through every hot path.  It does not
count wire bytes itself: the ``WireLedger`` mirrors each frame it records
into the tracer's ``wire.bytes*`` counters.

Three design points carry the module:

``Tracer`` vs. ``TraceBuffer``
    The coordinator holds the :class:`Tracer`; work that executes elsewhere
    (a site task in a worker process, a frame handler in a cluster runner)
    records into a picklable :class:`TraceBuffer` in its *own* raw
    ``perf_counter`` clock.  The buffer rides back on the existing result
    path (worker result / cluster result-frame extras) and the coordinator
    :meth:`Tracer.absorb`\\ s it: if the buffer's clock is comparable (Linux
    ``CLOCK_MONOTONIC`` is system-wide, so same-machine runners usually
    are), spans land at their true instants; otherwise they are rebased
    into the dispatch window ``[t_send, t_recv]`` the coordinator observed,
    centred, preserving order and duration.  Either way the merged timeline
    is monotone and runner spans nest inside the wire span that carried them.

Zero overhead when off
    ``trace=False`` resolves to the shared :data:`NULL_TRACER`, whose
    ``span()`` returns one reusable no-op context manager and whose
    counters are no-ops — no per-task allocation, no branching beyond an
    attribute check, and protocol results stay bit-identical (tracing never
    touches RNG streams or payloads).

Ambient collector
    Deep layers (the tile ``ReductionPlan``, the shard spill in
    ``materialize_rows``) cannot thread a tracer argument through every
    call.  They look up the thread-local :func:`active_collector` — a
    ``Tracer`` or ``TraceBuffer`` installed by :func:`collector_scope` —
    and bump counters on it, so plan executions inside a runner land in
    that frame's buffer and coordinator-side plans land in the run tracer,
    without any API change in the metrics layer.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Spans recorded via ``span()`` follow thread stack discipline; spans added
#: with explicit endpoints (``add_span``, e.g. wire round-trips observed by a
#: reader thread) may overlap freely and are marked async.
SYNC = "sync"
ASYNC = "async"


@dataclass
class SpanRecord:
    """One named interval on a timeline.

    ``start``/``end`` are seconds — on the tracer's timeline once absorbed,
    in the recorder's raw ``perf_counter`` clock inside a
    :class:`TraceBuffer`.  ``origin`` names the party ("coordinator",
    "host-2", "site-0"); ``tid`` is the recording thread.  ``flow`` is
    :data:`SYNC` for stack-disciplined spans and :data:`ASYNC` for
    explicit-endpoint spans that may overlap (wire round-trips).
    """

    name: str
    start: float
    end: float
    origin: str
    tid: int
    tags: Dict[str, Any] = field(default_factory=dict)
    flow: str = SYNC

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class EventRecord:
    """One instantaneous marker on a timeline."""

    name: str
    time: float
    origin: str
    tid: int
    tags: Dict[str, Any] = field(default_factory=dict)


class MetricsRegistry:
    """Named counters (monotone adds).

    Picklable and mergeable: runner-side registries fold into the
    coordinator's with :meth:`merge` (counters add).  Reading an unset
    counter returns ``0.0`` so report code can list a fixed set of counters
    without caring which layers ran.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def merge(self, other: "MetricsRegistry") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    def __bool__(self) -> bool:
        return bool(self.counters)


class TraceBuffer:
    """Picklable span/event/counter recorder for work that runs off-coordinator.

    Records in the local raw ``perf_counter`` clock; the coordinator rebases
    on :meth:`Tracer.absorb`.  Single-threaded by design (one buffer per
    task or frame), so appends are lock-free.
    """

    enabled = True

    def __init__(self, origin: str):
        self.origin = origin
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.metrics = MetricsRegistry()

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                SpanRecord(name, start, time.perf_counter(), self.origin,
                           threading.get_ident(), tags)
            )

    def event(self, name: str, **tags: Any) -> None:
        self.events.append(
            EventRecord(name, time.perf_counter(), self.origin, threading.get_ident(), tags)
        )

    def inc(self, name: str, value: float = 1.0) -> None:
        self.metrics.inc(name, value)

    # -- introspection ------------------------------------------------------

    def bounds(self) -> Optional[Tuple[float, float]]:
        """Earliest and latest recorded instant (raw clock), or ``None``."""
        times = [s.start for s in self.spans] + [e.time for e in self.events]
        times += [s.end for s in self.spans]
        if not times:
            return None
        return min(times), max(times)

    def __bool__(self) -> bool:
        return bool(self.spans or self.events or self.metrics)


class Tracer:
    """The coordinator-side trace: spans, events and metrics on one timeline.

    The timeline's zero is the tracer's creation instant (monotonic
    ``perf_counter``); :meth:`clock` reads it.  Appends are lock-protected —
    cluster reader threads record wire spans concurrently with the
    coordinator thread.
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.metrics = MetricsRegistry()

    def clock(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.perf_counter() - self._epoch

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, *, origin: str = "coordinator", **tags: Any) -> Iterator[None]:
        start = self.clock()
        try:
            yield
        finally:
            record = SpanRecord(name, start, self.clock(), origin,
                                threading.get_ident(), tags)
            with self._lock:
                self.spans.append(record)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        origin: str = "coordinator",
        **tags: Any,
    ) -> None:
        """Record a span with explicit on-timeline endpoints (marked async —
        wire round-trips observed by a reader thread may overlap freely)."""
        record = SpanRecord(name, start, end, origin, threading.get_ident(), tags, ASYNC)
        with self._lock:
            self.spans.append(record)

    def event(self, name: str, *, origin: str = "coordinator", **tags: Any) -> None:
        record = EventRecord(name, self.clock(), origin, threading.get_ident(), tags)
        with self._lock:
            self.events.append(record)

    def inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.metrics.inc(name, value)

    def counter(self, name: str) -> float:
        """Current value of a counter (0.0 if never bumped)."""
        return self.metrics.counter(name)

    # -- merging remote buffers ---------------------------------------------

    def absorb(
        self,
        buffer: Optional[TraceBuffer],
        *,
        window: Optional[Tuple[float, float]] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Merge a :class:`TraceBuffer` onto this timeline.

        ``window`` is the dispatch interval ``(t_send, t_recv)`` the
        coordinator observed for the work that filled the buffer, in tracer
        time.  The buffer's raw clock is first tried as directly comparable
        (offset by the tracer epoch — exact on same-machine runners, where
        ``perf_counter`` is the system-wide monotonic clock); if the
        resulting instants fall outside the window, the buffer is rebased
        to the window's centre instead, preserving order and durations.
        ``tags`` (e.g. ``{"round": 2, "host": 1}``) are added to every
        absorbed record without overriding the record's own tags.
        """
        if buffer is None or not buffer:
            return
        offset = _rebase_offset(self._epoch, buffer.bounds(), window)
        extra = tags or {}
        with self._lock:
            for span in buffer.spans:
                self.spans.append(
                    SpanRecord(span.name, span.start + offset, span.end + offset,
                               span.origin, span.tid, {**extra, **span.tags}, span.flow)
                )
            for ev in buffer.events:
                self.events.append(
                    EventRecord(ev.name, ev.time + offset, ev.origin, ev.tid,
                                {**extra, **ev.tags})
                )
            self.metrics.merge(buffer.metrics)

    # -- introspection ------------------------------------------------------

    def origins(self) -> List[str]:
        """Sorted distinct origins across spans and events."""
        seen = {s.origin for s in self.spans} | {e.origin for e in self.events}
        return sorted(seen)

    def find_spans(self, name: Optional[str] = None, **tags: Any) -> List[SpanRecord]:
        """Spans matching a name and/or exact tag values, in record order."""
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if any(span.tags.get(k) != v for k, v in tags.items()):
                continue
            out.append(span)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self.spans)}, events={len(self.events)}, "
            f"counters={len(self.metrics.counters)})"
        )


def _rebase_offset(
    epoch: float,
    bounds: Optional[Tuple[float, float]],
    window: Optional[Tuple[float, float]],
) -> float:
    """Offset mapping a foreign buffer's raw clock onto a tracer timeline.

    The rebase rule of :meth:`Tracer.absorb`: try ``-epoch`` first — exact
    when the recorder shares this machine's ``perf_counter`` stream — and
    fall back to centring the buffer inside the observed dispatch
    ``window`` when the resulting instants fall outside it.
    """
    offset = -epoch
    if window is not None and bounds is not None:
        w0, w1 = window
        b0, b1 = bounds
        slack = 1e-6
        if not (w0 - slack <= b0 + offset and b1 + offset <= w1 + slack):
            # Clocks are not comparable: centre the buffer in the window.
            width = w1 - w0
            length = b1 - b0
            offset = (w0 + max(0.0, (width - length) / 2.0)) - b0
    return offset


class _NullSpan:
    """The reusable no-op context manager behind a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A disabled tracer: every operation is a no-op, nothing is allocated.

    ``span()`` hands back one shared context manager and the record lists
    stay empty forever, so the hot path pays an attribute check and nothing
    else when tracing is off.
    """

    enabled = False
    spans: List[SpanRecord] = []
    events: List[EventRecord] = []

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def clock(self) -> float:
        return 0.0

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, start: float, end: float, **tags: Any) -> None:
        return None

    def event(self, name: str, **tags: Any) -> None:
        return None

    def inc(self, name: str, value: float = 1.0) -> None:
        return None

    def counter(self, name: str) -> float:
        return 0.0

    def absorb(self, buffer: Any, **kwargs: Any) -> None:
        return None

    def origins(self) -> List[str]:
        return []

    def find_spans(self, name: Optional[str] = None, **tags: Any) -> List[SpanRecord]:
        return []


#: The shared disabled tracer every untraced run uses.
NULL_TRACER = NullTracer()

#: What a driver's ``trace=`` knob accepts: a bool or an existing tracer.
TraceLike = Union[bool, None, Tracer, NullTracer]


def resolve_tracer(trace: Any) -> Any:
    """Resolve a ``trace=`` knob to a tracer.

    ``False``/``None`` → the shared :data:`NULL_TRACER`; ``True`` → a fresh
    :class:`Tracer`; an existing :class:`Tracer`/:class:`NullTracer` passes
    through (so a caller can share one tracer across runs).
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    raise TypeError(f"trace must be a bool or a Tracer, got {type(trace).__name__}")


# ---------------------------------------------------------------------------
# Ambient collector: counters from layers too deep to thread a tracer through
# ---------------------------------------------------------------------------

_AMBIENT = threading.local()


def active_collector() -> Optional[Any]:
    """The thread's installed metrics collector (a ``Tracer`` or
    ``TraceBuffer``), or ``None`` when nothing is tracing."""
    return getattr(_AMBIENT, "collector", None)


@contextmanager
def collector_scope(collector: Optional[Any]) -> Iterator[None]:
    """Install ``collector`` as the thread's ambient metrics sink.

    Scopes nest: a site-task buffer installed inside a traced driver shadows
    the run tracer for the task's duration and the tracer is restored on
    exit, so coordinator-side plan executions and task-side ones land in
    the right place.
    """
    previous = getattr(_AMBIENT, "collector", None)
    _AMBIENT.collector = collector
    try:
        yield
    finally:
        _AMBIENT.collector = previous


@contextmanager
def trace_run(tracer: Any, name: str, **tags: Any) -> Iterator[Any]:
    """Driver-body scope: one root span plus the ambient collector.

    The single line protocol drivers add around their body: when the tracer
    is disabled this degenerates to a bare yield.
    """
    if not tracer.enabled:
        yield tracer
        return
    with collector_scope(tracer):
        with tracer.span(name, **tags):
            yield tracer


__all__ = [
    "ASYNC",
    "SYNC",
    "EventRecord",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "TraceBuffer",
    "TraceLike",
    "Tracer",
    "active_collector",
    "collector_scope",
    "resolve_tracer",
    "trace_run",
]
