"""The live-telemetry plane on a real cluster: heartbeats, samples, parity.

The acceptance bar for the live plane: with ``trace=`` a telemetry session,
every protocol stays bit-identical to a plain serial run while (a) runner resource
samples ride the heartbeat frames onto the coordinator timeline — zero extra
round trips, every heartbeat byte accounted under the wire ledger's ``hb``
kind and mirrored into the trace's counters — and (b) the snapshot thread
publishes live Prometheus/JSONL views whose mid-run rows carry nonzero
round/task/wire gauges.  With telemetry off (the default), nothing changes,
and a session never outlives its run on a caller's warm pool.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    partial_kcenter,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.cluster import ClusterBackend
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping
from repro.distributed.messages import CommunicationLedger
from repro.obs.live import TelemetrySession
from repro.obs.trace import Tracer
from repro.runtime.tasks import run_tasks
from tests.helpers import assert_counters_equal_ledger

pytestmark = pytest.mark.cluster

#: Long enough that heartbeats (20-50/s) flow while every runner is busy.
SLEEP_S = 0.4


def _sleep_task(payload):
    """Module-level so runner subprocesses can import it by qualified name."""
    index, duration = payload
    time.sleep(duration)
    return index


def _assert_same_result(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    assert base.cost == other.cost
    assert base.ledger.total_words() == other.ledger.total_words()
    assert base.ledger.words_by_kind() == other.ledger.words_by_kind()
    if base.outliers is None:
        assert other.outliers is None
    else:
        np.testing.assert_array_equal(base.outliers, other.outliers)


@pytest.fixture(scope="module")
def live_run(tmp_path_factory):
    """One slow structure-free round on cluster:3 with the full plane on.

    Heartbeats every 20ms against a 0.4s task guarantee mid-run liveness
    traffic on every host; the snapshot thread writes JSONL rows at the
    same cadence.  Yields everything the assertions below inspect.
    """
    tmp = tmp_path_factory.mktemp("telemetry")
    jsonl_path = str(tmp / "snapshots.jsonl")
    session = TelemetrySession(
        sample_interval=0.02, snapshot_interval=0.02,
        jsonl_path=jsonl_path, label="live-test",
    )
    backend = ClusterBackend(n_hosts=3)
    # Installed before the first dispatch so runners spawn with heartbeat
    # sampling in their environment (the driver path does the same inside
    # ProtocolRun.backend).
    backend.set_telemetry(session)
    tracer = Tracer()
    ledger = CommunicationLedger()
    try:
        with session.watch(tracer):
            results = run_tasks(
                _sleep_task, [(i, SLEEP_S) for i in range(3)],
                backend=backend, ledger=ledger, round_index=1, tracer=tracer,
            )
    finally:
        backend.close()
    session.close()
    with open(jsonl_path) as fh:
        rows = [json.loads(line) for line in fh]
    yield SimpleNamespace(
        session=session, tracer=tracer, ledger=ledger, wire=ledger.wire,
        rows=rows, results=results,
    )


class TestHeartbeatAccounting:
    def test_results_unaffected(self, live_run):
        assert live_run.results == [0, 1, 2]

    def test_hb_frames_on_the_wire_ledger(self, live_run):
        """Heartbeat bytes land under their own ``hb`` kind, recv direction."""
        by_kind = live_run.wire.bytes_by_kind()
        assert by_kind.get("hb", 0) > 0
        hb_records = [r for r in live_run.wire.records if r.kind == "hb"]
        # ~20 heartbeats/s/host over a 0.4s round: plenty, from every host.
        assert len(hb_records) >= 3
        assert all(r.direction == "recv" for r in hb_records)
        assert {r.host for r in hb_records} == {0, 1, 2}

    def test_hb_counters_equal_ledger(self, live_run):
        """Trace counters mirror the ledger exactly, heartbeats included."""
        assert_counters_equal_ledger(
            SimpleNamespace(trace=live_run.tracer, ledger=live_run.ledger)
        )
        hb_raw = sum(r.raw_bytes for r in live_run.wire.records if r.kind == "hb")
        assert int(live_run.tracer.counter("wire.bytes.hb")) == hb_raw > 0


class TestRunnerSamplesOnTimeline:
    def test_resource_sample_events_from_every_host(self, live_run):
        samples = [e for e in live_run.tracer.events if e.name == "resource_sample"]
        assert samples
        assert {e.origin for e in samples} == {"host-0", "host-1", "host-2"}
        for event in samples:
            assert event.tags["rss_bytes"] > 0
            assert event.tags["cpu_s"] >= 0.0

    def test_per_host_resource_gauges(self, live_run):
        gauges = live_run.tracer.metrics.gauges
        for host in range(3):
            assert gauges[f"resource.host-{host}.rss_bytes"] > 0
            assert gauges[f"resource.host-{host}.peak_rss_bytes"] > 0
            assert gauges[f"resource.host-{host}.peak_rss_bytes"] >= (
                gauges[f"resource.host-{host}.rss_bytes"]
            )

    def test_coordinator_sampler_ran_too(self, live_run):
        assert live_run.session.peak_rss > 0
        gauges = live_run.session.last_snapshot["gauges"]
        assert gauges["resource.coordinator.rss_bytes"] > 0


class TestMidRunSnapshots:
    def test_snapshots_streamed_during_the_run(self, live_run):
        # Start + final + at least one 20ms tick inside the 0.4s round.
        assert len(live_run.rows) >= 3

    def test_mid_run_row_has_live_gauges(self, live_run):
        """A snapshot taken while tasks were in flight shows real progress."""
        mid = [
            row for row in live_run.rows[:-1]
            if row["counters"].get("wire.bytes", 0) > 0
            and row["gauges"].get("progress.round") == 1
            and row["gauges"].get("progress.tasks_in_flight", 0) > 0
        ]
        assert mid, "no mid-run snapshot observed dispatched-but-unfinished tasks"

    def test_rows_labelled_and_monotone(self, live_run):
        assert all(row["label"] == "live-test" for row in live_run.rows)
        clocks = [row["clock"] for row in live_run.rows]
        assert clocks == sorted(clocks)
        # Counters only grow: the final row carries the round's full traffic.
        totals = [row["counters"].get("wire.bytes", 0) for row in live_run.rows]
        assert totals == sorted(totals)
        assert live_run.rows[-1]["counters"]["wire.bytes"] > 0


@pytest.fixture(scope="module")
def telemetry_cluster():
    """cluster:3 spawned with a telemetry session installed: runners heartbeat
    (20ms) and sample from the first dispatch on."""
    session = TelemetrySession(sample_interval=0.02, snapshot_interval=0.1)
    backend = ClusterBackend(n_hosts=3)
    backend.set_telemetry(session)
    yield backend, session
    backend.close()
    session.close()


class TestTelemetryParity:
    """Every protocol: telemetry on cluster:3 == plain serial; counters
    equal the wire ledger."""

    def test_kmedian(self, small_workload, telemetry_cluster):
        backend, session = telemetry_cluster
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        live = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=backend, trace=session,
        )
        _assert_same_result(base, live)
        assert_counters_equal_ledger(live)

    def test_kcenter(self, small_workload, telemetry_cluster):
        backend, session = telemetry_cluster
        base = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42)
        live = partial_kcenter(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=backend, trace=session,
        )
        _assert_same_result(base, live)
        assert_counters_equal_ledger(live)

    def test_no_shipping_variant(self, small_instance, telemetry_cluster):
        backend, session = telemetry_cluster
        base = distributed_partial_median_no_shipping(small_instance, rng=42)
        live = distributed_partial_median_no_shipping(
            small_instance, rng=42, backend=backend, trace=session,
        )
        _assert_same_result(base, live)
        assert_counters_equal_ledger(live)

    def test_uncertain_kmedian(self, small_uncertain_workload, telemetry_cluster):
        backend, session = telemetry_cluster
        base = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        live = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            backend=backend, trace=session,
        )
        _assert_same_result(base, live)
        assert_counters_equal_ledger(live)

    def test_center_g(self, small_uncertain_workload, telemetry_cluster):
        backend, session = telemetry_cluster
        base = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        live = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            backend=backend, trace=session,
        )
        _assert_same_result(base, live)
        assert_counters_equal_ledger(live)

    def test_telemetry_implies_trace(self, small_workload, telemetry_cluster):
        """A fresh session alone still yields a private traced timeline."""
        backend, _ = telemetry_cluster
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        live = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=backend, trace=TelemetrySession(),
        )
        _assert_same_result(base, live)
        assert live.trace is not None and live.trace.enabled
        assert_counters_equal_ledger(live)


class TestTelemetryOffIsInert:
    def test_default_run_carries_no_telemetry_state(self, small_workload):
        result = partial_kmedian(small_workload.points, 3, 15, n_sites=3,
                                 seed=42, trace=True)
        assert not any(
            name.startswith("resource.") for name in result.trace.metrics.gauges
        )

    def test_fresh_backend_without_telemetry_has_none(self):
        backend = ClusterBackend(n_hosts=2)
        try:
            assert backend.telemetry is None
        finally:
            backend.close()


def _resource_samples(tracer):
    return sum(1 for event in tracer.events if event.name == "resource_sample")


class TestSessionEndsWithTheRun:
    def test_warm_backend_drops_the_session_when_the_run_ends(self, small_workload):
        """A caller's warm pool outlives a run; the run's session must not.

        After the run returns, idle heartbeat samples must not land on its
        trace, not even across a later untelemetered run on the same pool.
        """
        session = TelemetrySession(sample_interval=0.02, snapshot_interval=0.1)
        backend = ClusterBackend(n_hosts=2)
        try:
            first = partial_kmedian(
                small_workload.points, 3, 15, n_sites=3, seed=42,
                backend=backend, trace=session,
            )
            assert backend.telemetry is None
            samples = _resource_samples(first.trace)
            assert samples > 0
            partial_kmedian(
                small_workload.points, 3, 15, n_sites=3, seed=42,
                backend=backend, trace=True,
            )
            time.sleep(0.5)
            assert _resource_samples(first.trace) == samples
        finally:
            backend.close()
            session.close()
