"""Round-by-round run reports from a trace and its ledgers.

The report layer answers the paper's accounting questions from one run:
where do a protocol's bytes go per round, host and frame kind (site
frames, their replays and heartbeats: the coordinator reads nothing else
from a runner), what did each runner spend its wall-clock on, and how
often did the caches hit.  It reads three
sources that a traced run ties together — the :class:`~repro.obs.trace.Tracer`
attached to the result, the word-count
:class:`~repro.distributed.messages.CommunicationLedger` and (on the cluster
backend) its physical :class:`~repro.cluster.wire.WireLedger` — and renders
plain-text tables via :func:`repro.analysis.format_table`.

Byte figures come from the wire ledger; the trace's ``wire.bytes*``
counters are that ledger's records, mirrored as each frame is recorded
(:meth:`~repro.cluster.wire.WireLedger.record`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Counters the summary always lists (0.0 when the layer never ran), so
#: reports across protocols and backends line up column-for-column.
SUMMARY_COUNTERS = (
    "cluster.resident_hit",
    "cluster.resident_miss",
    "cluster.state_token",
    "cluster.state_ship",
    "plan.executions",
    "plan.tiles",
    "recovery.host_failures",
    "recovery.repinned_sites",
    "recovery.replayed_frames",
    "recovery.replay_bytes",
    "recovery.digest_checks",
)


def _wire_of(result: Any):
    ledger = getattr(result, "ledger", None)
    return getattr(ledger, "wire", None)


def round_report(result: Any) -> List[Dict[str, Any]]:
    """Per ``(round, host)`` activity rows for a traced run.

    Each row combines the wire ledger's frame accounting (bytes split by
    kind) with the trace's timing (tasks executed, runner
    busy-seconds from absorbed runner spans, wire round-trip seconds from
    the coordinator's rpc spans).  In-process traced runs have no wire or
    hosts; their rows carry ``host="-"`` with task counts and busy time
    from the absorbed site-task spans.  Rows are ordered by round, then by
    host number, with a round's in-process row first.
    """
    tracer = getattr(result, "trace", None)
    if tracer is None or not getattr(tracer, "enabled", False):
        raise ValueError("result has no trace: run the protocol with trace=True")

    rows: Dict[tuple, Dict[str, Any]] = {}

    def row(round_index: int, host: Optional[int]) -> Dict[str, Any]:
        key = (round_index, host)
        if key not in rows:
            rows[key] = {
                "round": round_index,
                "host": host if host is not None else "-",
                "tasks": 0,
                "task_s": 0.0,
                "rpc_s": 0.0,
                "sent_bytes": 0,
                "recv_bytes": 0,
                "raw_bytes": 0,
                "compression": 1.0,
                "bytes_by_kind": {},
            }
        return rows[key]

    wire = _wire_of(result)
    if wire is not None:
        for rec in wire.records:
            r = row(rec.round_index, rec.host)
            r["sent_bytes" if rec.direction == "send" else "recv_bytes"] += rec.n_bytes
            r["raw_bytes"] += rec.raw_bytes
            r["bytes_by_kind"][rec.kind] = r["bytes_by_kind"].get(rec.kind, 0) + rec.n_bytes
        for r in rows.values():
            encoded = r["sent_bytes"] + r["recv_bytes"]
            r["compression"] = (r["raw_bytes"] / encoded) if encoded else 1.0

    for span in tracer.spans:
        if span.name == "rpc":
            r = row(span.tags.get("round", 0), span.tags.get("host"))
            r["rpc_s"] += span.duration
            if span.tags.get("kind") == "site":
                r["tasks"] += 1
        elif span.name == "site_task" and "round" in span.tags:
            host = span.tags.get("host")
            r = row(span.tags["round"], host)
            r["task_s"] += span.duration
            if host is None:
                # In-process run: the absorbed task span is the only record
                # of the task having run (no rpc span counts it).
                r["tasks"] += 1

    return [rows[key] for key in sorted(
        rows, key=lambda k: (k[0], k[1] is not None, k[1] or 0)
    )]


def render_round_report(result: Any, *, title: Optional[str] = None) -> str:
    """The round-by-round report as a fixed-width text table."""
    # Imported lazily: repro.analysis sits above the metrics layer, which
    # itself reaches into repro.obs.trace for the ambient collector.
    from repro.analysis import format_table

    rows = round_report(result)
    printable = []
    for r in rows:
        flat = dict(r)
        kinds = flat.pop("bytes_by_kind")
        flat["kinds"] = ",".join(f"{k}:{v}" for k, v in sorted(kinds.items())) or "-"
        printable.append(flat)
    return format_table(
        printable,
        columns=["round", "host", "tasks", "task_s", "rpc_s",
                 "sent_bytes", "recv_bytes", "raw_bytes", "compression",
                 "kinds"],
        title=title or "Round-by-round run report",
    )


def protocol_summary(result: Any) -> Dict[str, Any]:
    """One-run summary: words, wire bytes per word, and the trace's counters.

    ``wire_bytes_ledger`` is what physically crossed the sockets and
    ``wire_raw_ledger`` the same frames before the codec (both zero on
    in-process runs); ``compression`` is their ratio.  The fixed
    :data:`SUMMARY_COUNTERS` are always present.
    """
    tracer = getattr(result, "trace", None)
    if tracer is None or not getattr(tracer, "enabled", False):
        raise ValueError("result has no trace: run the protocol with trace=True")
    ledger = result.ledger
    wire = _wire_of(result)
    ledger_bytes = int(wire.total_bytes()) if wire is not None else 0
    ledger_raw = int(wire.total_raw_bytes()) if wire is not None else 0
    total_words = float(ledger.total_words())
    summary: Dict[str, Any] = {
        "total_words": total_words,
        "wire_bytes_ledger": ledger_bytes,
        "wire_raw_ledger": ledger_raw,
        "bytes_per_word": (ledger_bytes / total_words) if total_words else 0.0,
        "raw_bytes_per_word": (ledger_raw / total_words) if total_words else 0.0,
        "compression": (ledger_raw / ledger_bytes) if ledger_bytes else 1.0,
        "rounds": result.rounds,
        "n_spans": len(tracer.spans),
        "origins": tracer.origins(),
    }
    for name in SUMMARY_COUNTERS:
        summary[name] = tracer.counter(name)
    return summary


__all__ = [
    "SUMMARY_COUNTERS",
    "protocol_summary",
    "render_round_report",
    "round_report",
]
