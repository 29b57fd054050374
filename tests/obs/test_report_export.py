"""Reports and Chrome-trace export on real (in-process) traced runs."""

import json

import numpy as np
import pytest

from repro import (
    partial_kcenter,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping
from repro.obs import (
    protocol_summary,
    render_protocol_summary,
    render_round_report,
    round_report,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import NULL_TRACER, Tracer


@pytest.fixture(scope="module")
def traced_kmedian(small_workload):
    return partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, trace=True)


@pytest.fixture
def cluster_trace_path(small_workload, tmp_path):
    """Chrome trace of a small traced ``cluster:2`` kmedian run, on disk."""
    result = partial_kmedian(
        small_workload.points, 3, 15, n_sites=3, seed=42, backend="cluster:2", trace=True
    )
    return write_chrome_trace(result.trace, str(tmp_path / "cluster_trace.json"))


def _assert_same_result(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    assert base.cost == other.cost
    assert base.ledger.total_words() == other.ledger.total_words()
    assert base.ledger.words_by_kind() == other.ledger.words_by_kind()
    if base.outliers is None:
        assert other.outliers is None
    else:
        np.testing.assert_array_equal(base.outliers, other.outliers)


class TestTraceKnob:
    def test_default_leaves_trace_none(self, small_workload):
        result = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        assert result.trace is None

    def test_traced_run_attaches_tracer(self, traced_kmedian):
        tracer = traced_kmedian.trace
        assert isinstance(tracer, Tracer)
        assert tracer.find_spans("run", algorithm="algorithm1")
        rounds = tracer.find_spans("round")
        assert {s.tags["round"] for s in rounds} == {1, 2}
        assert tracer.find_spans("site_task")
        assert tracer.find_spans("final_solve")
        assert "coordinator" in tracer.origins()
        assert {"site-0", "site-1", "site-2"} <= set(tracer.origins())

    def test_traced_matches_untraced_all_protocols(
        self, small_workload, small_instance, small_uncertain_workload
    ):
        points = small_workload.points
        uncertain = small_uncertain_workload.instance
        runs = [
            lambda **kw: partial_kmedian(points, 3, 15, n_sites=3, seed=42, **kw),
            lambda **kw: partial_kcenter(points, 3, 15, n_sites=3, seed=42, **kw),
            lambda **kw: distributed_partial_median_no_shipping(
                small_instance, rng=42, **kw
            ),
            lambda **kw: uncertain_partial_kmedian(
                uncertain, 3, 6, n_sites=3, seed=42, **kw
            ),
            lambda **kw: uncertain_partial_kcenter_g(
                uncertain, 3, 6, n_sites=3, seed=42, **kw
            ),
        ]
        for run in runs:
            base = run()
            traced = run(trace=True)
            _assert_same_result(base, traced)
            assert base.trace is None
            assert traced.trace is not None and traced.trace.spans


class TestRoundReport:
    def test_rows_cover_every_round(self, traced_kmedian):
        rows = round_report(traced_kmedian)
        assert {r["round"] for r in rows} == {1, 2}
        for row in rows:
            assert row["host"] == "-"  # in-process: no runner hosts
            assert row["tasks"] == 3
            assert row["task_s"] > 0.0
            assert row["sent_bytes"] == 0 and row["recv_bytes"] == 0

    def test_render_round_report(self, traced_kmedian):
        text = render_round_report(traced_kmedian)
        assert "round" in text and "tasks" in text
        assert len(text.splitlines()) >= 4

    def test_untraced_result_is_rejected(self, small_workload):
        result = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        with pytest.raises(ValueError, match="trace=True"):
            round_report(result)
        with pytest.raises(ValueError, match="trace=True"):
            protocol_summary(result)


class TestProtocolSummary:
    def test_summary_fields(self, traced_kmedian):
        summary = protocol_summary(traced_kmedian)
        assert summary["total_words"] == traced_kmedian.ledger.total_words()
        # In-process: no wire ran, so both byte totals are zero.
        assert summary["wire_bytes_ledger"] == 0
        assert summary["wire_raw_ledger"] == 0
        assert summary["rounds"] == 2
        assert summary["n_spans"] == len(traced_kmedian.trace.spans)
        # The fixed counter columns are present even when the layer never ran.
        assert summary["cluster.resident_hit"] == 0.0

    def test_render_protocol_summary(self, traced_kmedian):
        text = render_protocol_summary({"kmedian": traced_kmedian})
        assert "kmedian" in text and "bytes_per_word" in text


class TestChromeExport:
    def test_export_shape(self, traced_kmedian):
        doc = to_chrome_trace(traced_kmedian.trace)
        events = doc["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "coordinator" in names
        for event in events:
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        # The document is valid JSON end to end.
        json.loads(json.dumps(doc))

    def test_write_chrome_trace(self, traced_kmedian, tmp_path):
        path = write_chrome_trace(traced_kmedian.trace, tmp_path / "trace.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert "counters" in doc["otherData"]

    def test_disabled_tracer_rejected(self):
        with pytest.raises(ValueError):
            to_chrome_trace(NULL_TRACER)


VALID_PHASES = {"M", "X", "b", "e", "i"}

REQUIRED_KEYS = {
    "M": {"ph", "name", "pid", "tid", "args"},
    "X": {"ph", "name", "pid", "tid", "cat", "ts", "dur", "args"},
    "b": {"ph", "name", "pid", "tid", "cat", "ts", "id", "args"},
    "e": {"ph", "name", "pid", "tid", "cat", "ts", "id"},
    "i": {"ph", "name", "pid", "tid", "cat", "ts", "s", "args"},
}


def validate_trace_events(doc):
    """Schema checks every exported (or committed) trace document must pass."""
    events = doc["traceEvents"]
    assert events, "empty traceEvents"
    declared_pids = set()
    for event in events:
        ph = event["ph"]
        assert ph in VALID_PHASES, f"unknown phase {ph!r}"
        missing = REQUIRED_KEYS[ph] - set(event)
        assert not missing, f"{ph!r} event missing keys {sorted(missing)}: {event}"
        if ph == "M":
            assert event["name"] == "process_name"
            declared_pids.add(event["pid"])
        else:
            assert event["ts"] >= 0.0
        if ph == "X":
            assert event["dur"] >= 0.0
    # Every timed event belongs to a process declared by a metadata event.
    for event in events:
        if event["ph"] != "M":
            assert event["pid"] in declared_pids
    # Async intervals pair up: one "b" and one "e" per id, begin before end.
    begins = {e["id"]: e["ts"] for e in events if e["ph"] == "b"}
    ends = {e["id"]: e["ts"] for e in events if e["ph"] == "e"}
    assert set(begins) == set(ends)
    for ident, ts_begin in begins.items():
        assert ends[ident] >= ts_begin, f"async {ident} ends before it begins"
    # Within one (pid, tid) thread lane, complete spans are emitted in
    # monotone end-time order: stack discipline seals a span only at exit.
    lanes = {}
    for event in events:
        if event["ph"] == "X":
            lanes.setdefault((event["pid"], event["tid"]), []).append(
                event["ts"] + event["dur"]
            )
    for lane, end_times in lanes.items():
        assert end_times == sorted(end_times), f"non-monotone lane {lane}"


class TestChromeTraceSchema:
    def test_exported_trace_passes_schema(self, traced_kmedian):
        validate_trace_events(to_chrome_trace(traced_kmedian.trace))

    @pytest.mark.cluster
    def test_cluster_trace_round_trips(self, cluster_trace_path, tmp_path):
        """A traced cluster run's exported document parses and validates."""
        with open(cluster_trace_path) as fh:
            doc = json.load(fh)
        validate_trace_events(doc)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["counters"]
        # Round-trip: rewriting the document preserves it bit for bit.
        path = tmp_path / "rt.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(path) as fh:
            assert json.load(fh) == doc


def _fake_cluster_result(tracer, wire):
    class Ledger:
        pass

    class Result:
        pass

    result = Result()
    result.trace = tracer
    result.ledger = Ledger()
    result.ledger.wire = wire
    return result


class TestRoundReportOrder:
    def test_hosts_sort_numerically_with_in_process_row_first(self):
        from repro.cluster.wire import WireLedger

        tracer = Tracer()
        wire = WireLedger()
        for host in (11, 2, 10, 0, 1):
            wire.record(round_index=1, host=host, direction="send",
                        kind="site_dispatch", n_bytes=10)
        wire.record(round_index=2, host=3, direction="send",
                    kind="site_dispatch", n_bytes=10)
        # A site-task span without a host tag: work that ran in-process.
        tracer.add_span("site_task", 0.0, 0.1, round=1)
        rows = round_report(_fake_cluster_result(tracer, wire))
        assert [(r["round"], r["host"]) for r in rows] == [
            (1, "-"), (1, 0), (1, 1), (1, 2), (1, 10), (1, 11), (2, 3),
        ]
