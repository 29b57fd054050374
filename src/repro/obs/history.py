"""Persistent run-history registry: every run becomes a regression datapoint.

The benchmark table in ``BENCH_cluster_bytes.json`` is a point-in-time
snapshot of the communication story; this module turns it into a time
series.  :class:`RunHistory` appends one JSON line per run — the run's
:func:`~repro.obs.report.protocol_summary` (bytes/word raw+encoded, wall
time, counters, recovery block) plus identifying metadata — to a store that
local runs and CI both write, and the ``python -m repro.obs.history`` CLI
reads it back:

``report``
    The latest record per protocol (or the full series with ``--all``) as a
    text table.

``compare --baseline BENCH_cluster_bytes.json``
    Regression gate: the latest record per protocol against a committed
    baseline (either another history store or the benchmark artifact's
    ``rows`` format), failing — exit status 1 — when any tracked metric
    (bytes/word raw+encoded, wall seconds) exceeds ``headroom``× its
    baseline value.

Set :data:`RUN_HISTORY_ENV` to a path to make the cluster benchmark append
its rows automatically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Environment knob: path of the run-history JSONL store benchmark runs
#: append to (unset = no history persistence).
RUN_HISTORY_ENV = "REPRO_RUN_HISTORY"

#: Metrics ``compare`` gates on, when present on both sides of a pair.
COMPARE_FIELDS = ("bytes_per_word", "raw_bytes_per_word", "wall_s")

#: Default regression headroom: fail when current > headroom x baseline.
DEFAULT_HEADROOM = 2.0


def summary_record(
    protocol: str,
    summary: Dict[str, Any],
    *,
    wall_s: Optional[float] = None,
    peak_rss_bytes: Optional[float] = None,
    run_id: Optional[str] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Shape one history record from a :func:`protocol_summary` dict.

    Flat JSON-friendly dict: protocol + timestamp + the summary verbatim,
    with wall time, sampler peak RSS and any caller metadata (git sha,
    workload shape, ...) layered on top.
    """
    record: Dict[str, Any] = {"protocol": str(protocol), "t": time.time()}
    if run_id is not None:
        record["run_id"] = str(run_id)
    record.update(summary)
    if wall_s is not None:
        record["wall_s"] = float(wall_s)
    if peak_rss_bytes is not None:
        record["peak_rss_bytes"] = float(peak_rss_bytes)
    record.update(extra)
    return record


class RunHistory:
    """Append-only JSONL store of run summaries.

    Appends are atomic at the line level (single ``write`` of one line on an
    ``"a"``-mode handle), so concurrent CI shards appending to a shared
    store interleave whole records.
    """

    def __init__(self, path: str):
        self.path = path

    # -- writing -------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        line = json.dumps(record, sort_keys=True, default=str)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return record

    def append_result(
        self,
        protocol: str,
        result: Any,
        *,
        wall_s: Optional[float] = None,
        peak_rss_bytes: Optional[float] = None,
        **extra: Any,
    ) -> Dict[str, Any]:
        """Summarize a traced driver result and append it in one step."""
        from repro.obs.report import protocol_summary

        summary = protocol_summary(result)
        summary.pop("origins", None)  # lists bloat the store; counters suffice
        return self.append(
            summary_record(protocol, summary, wall_s=wall_s,
                           peak_rss_bytes=peak_rss_bytes, **extra)
        )

    # -- reading -------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every record in append order; missing store = empty history."""
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    def latest_by_protocol(self) -> Dict[str, Dict[str, Any]]:
        """The most recent record per protocol (append order wins)."""
        latest: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            name = record.get("protocol")
            if name is not None:
                latest[str(name)] = record
        return latest


def load_baseline(path: str) -> Dict[str, Dict[str, Any]]:
    """Per-protocol baseline metrics from either supported format.

    Accepts a history JSONL store (latest record per protocol wins) or the
    committed benchmark artifact (``BENCH_cluster_bytes.json``: a dict with
    ``rows`` of per-protocol metrics), so ``compare`` can gate directly
    against the same file the cluster benchmark's byte guard trusts.  The
    formats are told apart by parsing, not sniffing: a multi-record JSONL
    store is not one JSON document, and a single-record store is a dict
    without ``rows``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None  # several JSONL lines: not one document
    if isinstance(doc, dict):
        if "rows" in doc:
            rows = doc["rows"]
            return {
                str(row["protocol"]): dict(row)
                for row in rows if isinstance(row, dict) and "protocol" in row
            }
        name = doc.get("protocol")  # a one-line history store
        return {str(name): doc} if name is not None else {}
    return RunHistory(path).latest_by_protocol()


def compare(
    current: Dict[str, Dict[str, Any]],
    baseline: Dict[str, Dict[str, Any]],
    *,
    headroom: float = DEFAULT_HEADROOM,
    fields: Sequence[str] = COMPARE_FIELDS,
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Gate current per-protocol metrics against a baseline.

    Returns ``(rows, regressions)``: one row per (protocol, field) pair
    present on both sides, and human-readable regression messages for every
    pair where ``current > headroom * baseline`` (baseline 0 never flags —
    nothing meaningful to be 2x of).  Protocols on one side only are
    skipped: a new protocol is not a regression and a retired one is not a
    pass.
    """
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for protocol in sorted(set(current) & set(baseline)):
        for field in fields:
            if field not in current[protocol] or field not in baseline[protocol]:
                continue
            now = float(current[protocol][field])
            base = float(baseline[protocol][field])
            ratio = (now / base) if base > 0 else 1.0
            failed = base > 0 and now > headroom * base
            rows.append(
                {"protocol": protocol, "field": field, "current": now,
                 "baseline": base, "ratio": ratio, "ok": not failed}
            )
            if failed:
                regressions.append(
                    f"{protocol}.{field}: {now:.3f} > {headroom:g}x baseline "
                    f"{base:.3f} ({ratio:.2f}x)"
                )
    return rows, regressions


def _format_rows(rows: Iterable[Dict[str, Any]], columns: Sequence[str]) -> str:
    rows = list(rows)
    table = [columns] + [
        [("%.4g" % r[c]) if isinstance(r[c], float) else str(r[c]) for c in columns]
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(columns))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in table
    )


# ---------------------------------------------------------------------------
# CLI: python -m repro.obs.history {report,compare}
# ---------------------------------------------------------------------------

def _cmd_report(args: argparse.Namespace) -> int:
    history = RunHistory(args.store)
    if args.all:
        records = history.records()
    else:
        records = list(history.latest_by_protocol().values())
    if not records:
        print(f"no run history at {args.store}")
        return 0
    columns = ["protocol", "bytes_per_word", "raw_bytes_per_word", "wall_s",
               "peak_rss_bytes", "rounds"]
    rows = [{c: record.get(c, "-") for c in columns} for record in records]
    print(f"run history: {args.store} ({len(history.records())} records)")
    print(_format_rows(rows, columns))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    current = RunHistory(args.store).latest_by_protocol()
    if not current:
        print(f"no run history at {args.store}", file=sys.stderr)
        return 2
    baseline = load_baseline(args.baseline)
    rows, regressions = compare(current, baseline, headroom=args.headroom)
    if not rows:
        print("no overlapping (protocol, field) pairs to compare", file=sys.stderr)
        return 2
    print(f"compare {args.store} vs baseline {args.baseline} "
          f"(headroom {args.headroom:g}x)")
    print(_format_rows(rows, ["protocol", "field", "current", "baseline",
                              "ratio", "ok"]))
    if regressions:
        print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
        for message in regressions:
            print(f"  REGRESSION {message}", file=sys.stderr)
        return 1
    print("\nall metrics within headroom")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Inspect and gate the persistent run-history store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="print run-history records")
    report.add_argument("store", nargs="?",
                        default=os.environ.get(RUN_HISTORY_ENV, "RUN_HISTORY.jsonl"),
                        help="history JSONL store (default: $%s)" % RUN_HISTORY_ENV)
    report.add_argument("--all", action="store_true",
                        help="every record, not just the latest per protocol")
    report.set_defaults(func=_cmd_report)

    cmp_ = sub.add_parser("compare", help="gate latest records against a baseline")
    cmp_.add_argument("store", nargs="?",
                      default=os.environ.get(RUN_HISTORY_ENV, "RUN_HISTORY.jsonl"),
                      help="history JSONL store (default: $%s)" % RUN_HISTORY_ENV)
    cmp_.add_argument("--baseline", required=True,
                      help="baseline: a history store or BENCH_cluster_bytes.json")
    cmp_.add_argument("--headroom", type=float, default=DEFAULT_HEADROOM,
                      help="fail when current > headroom x baseline (default %(default)s)")
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess smoke
    sys.exit(main())


__all__ = [
    "COMPARE_FIELDS",
    "DEFAULT_HEADROOM",
    "RUN_HISTORY_ENV",
    "RunHistory",
    "compare",
    "load_baseline",
    "main",
    "summary_record",
]
