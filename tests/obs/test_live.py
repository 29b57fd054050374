"""Tests for repro.obs.live: snapshots, sinks, LiveMetrics, telemetry sessions."""

import json
import threading

import pytest

from repro.obs.live import (
    JsonlSink,
    LiveMetrics,
    PrometheusFileSink,
    TelemetrySession,
    build_snapshot,
    prometheus_text,
)
from repro.obs.trace import NULL_TRACER, Tracer


def make_tracer():
    tracer = Tracer()
    tracer.inc("wire.bytes", 1000)
    tracer.inc("wire.bytes_encoded", 500)
    tracer.inc("cluster.resident_hit", 3)
    tracer.inc("cluster.resident_miss", 1)
    tracer.gauge("progress.round", 2)
    return tracer


class TestBuildSnapshot:
    def test_counters_and_gauges_copied(self):
        tracer = make_tracer()
        snapshot = build_snapshot(tracer)
        assert snapshot["counters"]["wire.bytes"] == 1000
        assert snapshot["gauges"]["progress.round"] == 2
        # Copies, not views: later increments must not mutate the snapshot.
        tracer.inc("wire.bytes", 1)
        assert snapshot["counters"]["wire.bytes"] == 1000

    def test_derived_gauges(self):
        snapshot = build_snapshot(make_tracer())
        assert snapshot["gauges"]["cluster.resident_hit_rate"] == pytest.approx(0.75)
        assert snapshot["gauges"]["wire.compression"] == pytest.approx(2.0)
        # No resident counters -> no hit-rate gauge (absent, not NaN).
        assert "cluster.resident_hit_rate" not in build_snapshot(Tracer())["gauges"]

    def test_label_and_clock(self):
        snapshot = build_snapshot(make_tracer(), label="bench")
        assert snapshot["label"] == "bench"
        assert snapshot["clock"] > 0
        assert "label" not in build_snapshot(make_tracer())

    def test_null_tracer_snapshot_is_empty(self):
        snapshot = build_snapshot(NULL_TRACER)
        assert snapshot["counters"] == {}
        assert snapshot["clock"] == 0.0

    def test_json_serializable(self):
        json.dumps(build_snapshot(make_tracer(), label="x"))


class TestPrometheusText:
    def test_exposition_format(self):
        text = prometheus_text(build_snapshot(make_tracer()))
        assert "# TYPE repro_wire_bytes counter\n" in text
        assert "repro_wire_bytes 1000" in text
        assert "# TYPE repro_progress_round gauge\n" in text
        assert "repro_progress_round 2" in text
        assert text.endswith("\n")

    def test_run_label(self):
        text = prometheus_text(build_snapshot(make_tracer(), label="run-1"))
        assert 'repro_wire_bytes{run="run-1"} 1000' in text

    def test_name_sanitization(self):
        tracer = Tracer()
        tracer.gauge("resource.host-2.rss_bytes", 1.0)
        tracer.inc("9weird", 1.0)
        text = prometheus_text(build_snapshot(tracer))
        assert "repro_resource_host_2_rss_bytes 1" in text
        assert "repro__9weird 1" in text


class TestSinks:
    def test_jsonl_sink(self, tmp_path):
        path = str(tmp_path / "snaps.jsonl")
        sink = JsonlSink(path)
        sink.publish({"t": 1.0, "counters": {"a": 1}})
        sink.publish({"t": 2.0, "counters": {"a": 2}})
        sink.close()
        rows = [json.loads(line) for line in open(path)]
        assert [row["t"] for row in rows] == [1.0, 2.0]

    def test_prometheus_file_sink_atomic_rewrite(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        sink = PrometheusFileSink(path)
        sink.publish(build_snapshot(make_tracer()))
        first = open(path).read()
        assert "repro_wire_bytes 1000" in first
        tracer = make_tracer()
        tracer.inc("wire.bytes", 500)
        sink.publish(build_snapshot(tracer))
        assert "repro_wire_bytes 1500" in open(path).read()
        sink.close()


class TestLiveMetrics:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            LiveMetrics(make_tracer(), [], interval=0)

    def test_start_and_stop_publish(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "s.jsonl"))
        live = LiveMetrics(make_tracer(), [sink], interval=60.0)
        live.start()
        final = live.stop()
        sink.close()
        # Immediate snapshot on start + final snapshot on stop.
        assert live.snapshots_published == 2
        assert final["counters"]["wire.bytes"] == 1000
        rows = [json.loads(line) for line in open(sink.path)]
        assert len(rows) == 2

    def test_failing_sink_does_not_kill_publishing(self):
        class Boom:
            def publish(self, snapshot):
                raise RuntimeError("scrape failed")

        live = LiveMetrics(make_tracer(), [Boom()], interval=60.0)
        snapshot = live.publish_once()
        assert snapshot["counters"]["wire.bytes"] == 1000


class TestTelemetrySession:
    def test_watch_binds_the_run_tracer(self):
        session = TelemetrySession(snapshot_interval=60.0)
        first, second = Tracer(), Tracer()
        with session.watch(first) as watched:
            assert watched is first and session.tracer is first
        # Each watched run rebinds the session; the last tracer stays
        # readable after the run.
        with session.watch(second):
            assert session.tracer is second
        assert session.tracer is second
        session.close()

    def test_scope_runs_sampler_and_snapshots(self, tmp_path):
        session = TelemetrySession(
            sample_interval=0.01,
            snapshot_interval=0.01,
            jsonl_path=str(tmp_path / "s.jsonl"),
        )
        threads = {"repro-sampler-coordinator", "repro-live-metrics"}
        with session.watch(Tracer()):
            assert threads <= {t.name for t in threading.enumerate()}
        assert not threads & {t.name for t in threading.enumerate()}
        assert session.peak_rss > 0
        assert session.last_snapshot is not None
        gauges = session.last_snapshot["gauges"]
        assert gauges["resource.coordinator.rss_bytes"] > 0
        session.close()
        assert len(open(tmp_path / "s.jsonl").readlines()) >= 2

    def test_declarative_sinks(self, tmp_path):
        session = TelemetrySession(
            prometheus_path=str(tmp_path / "m.prom"),
            jsonl_path=str(tmp_path / "s.jsonl"),
        )
        try:
            assert [type(sink) for sink in session.sinks] == [JsonlSink, PrometheusFileSink]
        finally:
            session.close()
