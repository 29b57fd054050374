"""Chrome / Perfetto ``trace_event`` export for a recorded run.

:func:`to_chrome_trace` converts a :class:`~repro.obs.trace.Tracer` into the
JSON object format both ``chrome://tracing`` and https://ui.perfetto.dev
load: each trace origin ("coordinator", "host-0", ...) becomes a process
with named threads, stack-disciplined spans become complete ``"X"`` events,
wire round-trips (which overlap freely) become async ``"b"``/``"e"`` pairs,
and point events become instants.  Timestamps are microseconds since the
tracer's epoch.  Final counter values ride in ``otherData`` — trace viewers
ignore the key, report code reads it back.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.trace import ASYNC, Tracer


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _safe_tags(tags: Dict[str, Any]) -> Dict[str, Any]:
    return {str(k): _json_safe(v) for k, v in tags.items()}


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's records as a loadable ``trace_event`` JSON object."""
    if not getattr(tracer, "enabled", False):
        raise ValueError("cannot export a disabled tracer: run with trace=True")

    origins = tracer.origins()
    # Stable pids: coordinator first (pid 1), everything else in sorted order.
    ordered = [o for o in ("coordinator",) if o in origins]
    ordered += [o for o in origins if o != "coordinator"]
    pid_of = {origin: index + 1 for index, origin in enumerate(ordered)}

    tid_of: Dict[tuple, int] = {}

    def tid(origin: str, raw_tid: int) -> int:
        key = (origin, raw_tid)
        if key not in tid_of:
            tid_of[key] = sum(1 for k in tid_of if k[0] == origin) + 1
        return tid_of[key]

    events: List[Dict[str, Any]] = []
    for origin in ordered:
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid_of[origin], "tid": 0,
             "args": {"name": origin}}
        )

    async_id = 0
    for span in tracer.spans:
        base = {
            "name": span.name,
            "pid": pid_of[span.origin],
            "cat": span.origin,
            "args": _safe_tags(span.tags),
        }
        ts = span.start * 1e6
        if span.flow == ASYNC:
            # Overlapping intervals (wire round-trips) go on async tracks.
            async_id += 1
            ident = f"a{async_id}"
            events.append({**base, "ph": "b", "id": ident, "ts": ts,
                           "tid": tid(span.origin, span.tid)})
            events.append({"name": span.name, "pid": pid_of[span.origin],
                           "cat": span.origin, "ph": "e", "id": ident,
                           "ts": span.end * 1e6, "tid": tid(span.origin, span.tid),
                           "args": {}})
        else:
            events.append({**base, "ph": "X", "ts": ts,
                           "dur": max(0.0, span.duration * 1e6),
                           "tid": tid(span.origin, span.tid)})

    for ev in tracer.events:
        events.append(
            {"name": ev.name, "pid": pid_of[ev.origin], "cat": ev.origin,
             "ph": "i", "s": "t", "ts": ev.time * 1e6,
             "tid": tid(ev.origin, ev.tid), "args": _safe_tags(ev.tags)}
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": {k: v for k, v in sorted(tracer.metrics.counters.items())},
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Serialize the tracer to ``path`` as trace_event JSON; returns the path."""
    payload = to_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


__all__ = ["to_chrome_trace", "write_chrome_trace"]
