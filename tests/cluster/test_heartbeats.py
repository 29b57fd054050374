"""Runner heartbeats on a real cluster: accounting, parity, and ownership.

A pool built with ``RetryPolicy(heartbeat_timeout=...)`` has every runner
send unsolicited ``("hb", seq)`` frames at a quarter of the timeout.  They
are the liveness signal the heartbeat monitor reads, and they cross the
same sockets as site frames.  Each names the frame its runner is executing
and lands on that frame's wire ledger under the ``hb`` kind and in its
trace's ``wire.bytes*`` counters; an idle runner's land on no ledger.
Every protocol stays bit-identical to a plain serial run.  A heartbeat
naming a frame crosses the socket before that frame's reply, so a returned
run's books are frozen: a warm pool's later heartbeats never land on them,
on a direct backend or on a service job, and a job never gets the
heartbeats of another job's task that it queued behind.
"""

import threading
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
from repro.cluster import ClusterBackend, ClusterService, RetryPolicy
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping
from repro.distributed.messages import CommunicationLedger
from repro.obs.trace import Tracer
from tests.helpers import assert_counters_equal_ledger, run_site_round

pytestmark = pytest.mark.cluster

#: The heartbeat timeout the recovery tests use; runners beat every 0.25 s.
HEARTBEATS = RetryPolicy(heartbeat_timeout=1.0)

#: Spans several heartbeat intervals, so every busy host beats mid-task.
SLEEP_S = 1.0


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


def _traced_sleep_round(backend, n_tasks, seconds=SLEEP_S):
    """One traced round of sleeping site tasks; the books it was charged to."""
    tracer = Tracer()
    ledger = CommunicationLedger()
    results = run_site_round(
        backend, _sleep_task, [(i, seconds) for i in range(n_tasks)],
        tracer=tracer, ledger=ledger,
    )
    return SimpleNamespace(trace=tracer, ledger=ledger, results=results)


def _hb_books(run):
    """What heartbeats have charged to a run: frame count and counter."""
    n_frames = sum(1 for rec in run.ledger.wire.records if rec.kind == "hb")
    return n_frames, run.trace.counter("wire.bytes.hb")


@pytest.fixture(scope="module")
def slow_round():
    """One slow traced round of site tasks on a heartbeating cluster:3."""
    backend = ClusterBackend(n_hosts=3, retry=HEARTBEATS)
    try:
        yield _traced_sleep_round(backend, 3)
    finally:
        backend.close()


class TestHeartbeatAccounting:
    def test_results_unaffected(self, slow_round):
        assert slow_round.results == [0, 1, 2]

    def test_hb_frames_on_the_wire_ledger(self, slow_round):
        """Heartbeat bytes land under their own ``hb`` kind, recv direction."""
        wire = slow_round.ledger.wire
        assert wire.bytes_by_kind().get("hb", 0) > 0
        hb_records = [r for r in wire.records if r.kind == "hb"]
        assert len(hb_records) >= 3
        assert all(r.direction == "recv" for r in hb_records)
        assert {r.host for r in hb_records} == {0, 1, 2}

    def test_hb_counters_equal_ledger(self, slow_round):
        """Trace counters mirror the ledger exactly, heartbeats included."""
        assert_counters_equal_ledger(slow_round)
        hb_raw = sum(
            r.raw_bytes for r in slow_round.ledger.wire.records if r.kind == "hb"
        )
        assert int(slow_round.trace.counter("wire.bytes.hb")) == hb_raw > 0


@pytest.fixture(scope="module")
def heartbeat_cluster():
    """A warm cluster:3 whose runners heartbeat every 0.25 s."""
    backend = ClusterBackend(n_hosts=3, retry=HEARTBEATS)
    yield backend
    backend.close()


class TestHeartbeatParity:
    """Every protocol, traced on a heartbeating cluster:3, equals plain
    serial, and its counters equal its wire ledger."""

    def test_kmedian(self, small_workload, heartbeat_cluster):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        traced = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=heartbeat_cluster, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)

    def test_kcenter(self, small_workload, heartbeat_cluster):
        base = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42)
        traced = partial_kcenter(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=heartbeat_cluster, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)

    def test_no_shipping_variant(self, small_instance, heartbeat_cluster):
        base = distributed_partial_median_no_shipping(small_instance, rng=42)
        traced = distributed_partial_median_no_shipping(
            small_instance, rng=42, backend=heartbeat_cluster, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)

    def test_uncertain_kmedian(self, small_uncertain_workload, heartbeat_cluster):
        base = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        traced = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            backend=heartbeat_cluster, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)

    def test_center_g(self, small_uncertain_workload, heartbeat_cluster):
        base = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        traced = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            backend=heartbeat_cluster, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)


def _assert_books_frozen_after_scope(first_backend, later_backend, hosts):
    """A returned run's heartbeat books stop growing on a warm pool.

    Runs a slow traced round on ``first_backend``, idles for several
    heartbeat intervals while ``hosts`` keep beating, then runs another
    slow round on ``later_backend``: the later run sees heartbeats, the
    first run's ``hb`` records and ``wire.bytes.hb`` counter do not move.
    """
    first = _traced_sleep_round(first_backend, len(hosts))
    books = _hb_books(first)
    assert books[0] > 0
    seen = [host.last_seen for host in hosts]
    time.sleep(SLEEP_S)
    assert all(host.last_seen > before for host, before in zip(hosts, seen))
    later = _traced_sleep_round(later_backend, len(hosts))
    assert _hb_books(later)[0] > 0
    assert _hb_books(first) == books
    assert_counters_equal_ledger(first)


class TestHeartbeatsDetachWithTheRun:
    """Once its frames have replied, a run's heartbeat books never change."""

    def test_warm_backend_freezes_a_finished_runs_books(self):
        """Heartbeats of an idle warm pool name no frame and go on no books."""
        backend = ClusterBackend(n_hosts=2, retry=HEARTBEATS)
        try:
            # Starts the runners; the rounds below run on a warm pool.
            run_site_round(backend, _sleep_task, [(0, 0.0), (1, 0.0)])
            _assert_books_frozen_after_scope(backend, backend, backend._hosts)
        finally:
            backend.close()

    def test_service_lane_freezes_its_jobs_books(self):
        """A service job's books freeze as its frames reply, while another
        job on the same pool keeps receiving its own heartbeats."""
        with ClusterService(n_hosts=2, retry=HEARTBEATS) as service:
            first, later = service.checkout(), service.checkout()
            try:
                run_site_round(first, _sleep_task, [(0, 0.0), (1, 0.0)])
                hosts = first._pool._hosts
                _assert_books_frozen_after_scope(first, later, hosts)
            finally:
                first.close()
                later.close()


class TestHeartbeatsGoOnTheExecutingFramesBooks:
    def test_queued_job_gets_no_heartbeat_of_the_task_ahead(self):
        """Job B's task queues behind job A's 1.5 s task on the one host.

        Every heartbeat the runner sends while A's task runs names A's
        frame, so all of them go on A's books and none on B's, although B
        dispatched last.
        """
        with ClusterService(n_hosts=1, retry=HEARTBEATS) as service:
            a, b = service.checkout(label="a"), service.checkout(label="b")
            try:
                run_site_round(a, _sleep_task, [(0, 0.0)])  # start the runner
                first = {}
                thread = threading.Thread(
                    target=lambda: first.update(run=_traced_sleep_round(a, 1, 1.5))
                )
                thread.start()
                time.sleep(0.2)
                later = _traced_sleep_round(b, 1, 0.0)
                thread.join(timeout=60)
                assert not thread.is_alive()
            finally:
                a.close()
                b.close()
        assert first["run"].results == [0] and later.results == [0]
        assert _hb_books(first["run"])[0] >= 3
        assert _hb_books(later) == (0, 0)
        assert_counters_equal_ledger(first["run"])
        assert_counters_equal_ledger(later)
