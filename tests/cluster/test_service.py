"""Clustering-as-a-service: admission, isolation, and the event-loop shape.

Covers the service tentpole's acceptance surface:

* concurrent jobs on one shared warm pool are bit-identical to their
  serial-backend runs, with disjoint wire ledgers and no cross-job
  resident-state leakage;
* FIFO admission keyed on ``memory_budget`` admits >= 4 concurrent jobs
  and never starves an oversized job;
* the coordinator runs **zero per-host threads** — one selector loop
  multiplexes every runner channel — and ``close()`` leaks neither
  threads nor file descriptors (sampler fd accounting);
* ``when=io`` faults fire at exact loop-dispatch ordinals and recovery
  keeps results bit-identical.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro import partial_kcenter, partial_kmedian
from repro.cluster import (
    ClusterBackend,
    ClusterService,
    FaultPlan,
    RetryPolicy,
)
from repro.distributed.messages import CommunicationLedger
from repro.obs.sampler import read_resource_sample
from tests.helpers import run_site_round

pytestmark = pytest.mark.cluster


def _double(x):
    return x * 2


def _slow_double(x):
    time.sleep(0.05)  # keep later tasks in flight when an io fault fires
    return x * 2


def _points(seed=0, n=240):
    return np.random.default_rng(seed).normal(size=(n, 3))


def _die(x):
    os._exit(3)  # simulate a host crash mid-task: no cleanup, no goodbye


def _assert_same_result(cluster_result, serial_result):
    np.testing.assert_array_equal(cluster_result.centers, serial_result.centers)
    assert cluster_result.cost == serial_result.cost
    assert (cluster_result.ledger.total_words()
            == serial_result.ledger.total_words())
    assert (cluster_result.ledger.words_by_kind()
            == serial_result.ledger.words_by_kind())


@pytest.fixture(scope="module")
def service2():
    with ClusterService(n_hosts=2) as svc:
        yield svc


class TestConcurrentJobs:
    def test_two_jobs_bit_identical_to_serial_with_disjoint_ledgers(self, service2):
        pts = _points(3)
        jobs = [
            service2.submit(
                lambda b, s=s: partial_kmedian(
                    pts, 3, 10, n_sites=4, seed=s, backend=b
                ),
                label=f"kmedian-{s}",
            )
            for s in (1, 2)
        ]
        results = [job.result(timeout=180) for job in jobs]
        for seed, result in zip((1, 2), results):
            _assert_same_result(
                result, partial_kmedian(pts, 3, 10, n_sites=4, seed=seed)
            )
        # Disjoint wire accounting: each job's ledger is its own object and
        # each matches its standalone-run byte totals independently.
        first, second = (r.ledger.wire for r in results)
        assert first is not second
        assert first.summary()["total_bytes"] > 0
        assert second.summary()["total_bytes"] > 0

    def test_mixed_protocols_concurrently(self, service2):
        pts = _points(4)
        j1 = service2.submit(
            lambda b: partial_kmedian(pts, 3, 8, n_sites=4, seed=5, backend=b)
        )
        j2 = service2.submit(
            lambda b: partial_kcenter(pts, 3, 8, n_sites=4, seed=5, backend=b)
        )
        _assert_same_result(
            j1.result(180), partial_kmedian(pts, 3, 8, n_sites=4, seed=5)
        )
        _assert_same_result(
            j2.result(180), partial_kcenter(pts, 3, 8, n_sites=4, seed=5)
        )

    def test_resident_state_keyed_by_job_namespace(self, service2):
        """Two concurrent protocol runs keep per-job site slots on the pool."""
        pts = _points(6)
        a = service2.checkout(label="slots-a")
        b = service2.checkout(label="slots-b")
        try:
            ra = partial_kmedian(pts, 3, 6, n_sites=4, seed=1, backend=a)
            rb = partial_kmedian(pts, 3, 6, n_sites=4, seed=2, backend=b)
            pool = a._pool
            namespaces = {job for (job, _site) in
                          pool._hosts[0].resident_by_site}
            assert a.job in namespaces and b.job in namespaces
            _assert_same_result(ra, partial_kmedian(pts, 3, 6, n_sites=4, seed=1))
            _assert_same_result(rb, partial_kmedian(pts, 3, 6, n_sites=4, seed=2))
        finally:
            a.close()
            b.close()


class TestAdmission:
    def test_admits_four_concurrent_jobs(self):
        with ClusterService(n_hosts=2, capacity="256MB") as svc:
            started = threading.Barrier(4, timeout=60)

            def job(backend):
                started.wait()  # all four must be admitted simultaneously
                return run_site_round(backend, _double, [1, 2, 3, 4])

            jobs = [
                svc.submit(job, memory_budget="16MB", label=f"j{i}")
                for i in range(4)
            ]
            for j in jobs:
                assert j.result(timeout=120) == [2, 4, 6, 8]
            lanes = {j.job for j in jobs}
            assert len(lanes) == 4

    def test_memory_budget_gates_admission_fifo(self):
        with ClusterService(n_hosts=1, capacity=100) as svc:
            first = svc.checkout(memory_budget=60, label="big")
            admitted = threading.Event()
            second = []

            def waiter():
                backend = svc.checkout(memory_budget=60, label="blocked")
                second.append(backend)
                admitted.set()

            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            # 60 + 60 > 100: the second job must wait for the first lane.
            assert not admitted.wait(timeout=0.3)
            first.close()
            assert admitted.wait(timeout=30)
            second[0].close()
            thread.join(timeout=10)

    def test_oversized_job_admitted_alone(self):
        with ClusterService(n_hosts=1, capacity=10) as svc:
            backend = svc.checkout(memory_budget="64MB", label="oversized")
            try:
                assert run_site_round(backend, _double, [7]) == [14]
            finally:
                backend.close()

    def test_lanes_recycle_smallest_first(self):
        with ClusterService(n_hosts=1) as svc:
            a, b, c = (svc.checkout() for _ in range(3))
            assert [a.job, b.job, c.job] == ["job-1", "job-2", "job-3"]
            a.close()
            b.close()
            d = svc.checkout()
            assert d.job == "job-1"  # the smallest freed lane comes back first
            d.close()
            c.close()

    def test_closed_service_refuses_checkout(self):
        svc = ClusterService(n_hosts=1)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.checkout()


class TestEventLoopShape:
    def test_zero_per_host_threads_and_clean_close(self):
        """cluster:3 runs one loop thread total, and close() leaks nothing."""
        before_threads = set(threading.enumerate())
        before_fds = read_resource_sample()["n_fds"]

        backend = ClusterBackend(n_hosts=3)
        try:
            assert run_site_round(backend, _double, [1, 2, 3, 4, 5, 6]) == [
                2, 4, 6, 8, 10, 12,
            ]
            new_threads = [
                t for t in threading.enumerate() if t not in before_threads
            ]
            # One selector loop multiplexes all three runner channels: no
            # per-host reader or sender threads exist at all.
            assert len(new_threads) == 1
            assert new_threads[0].name == "repro-cluster-loop"
        finally:
            backend.close()

        leaked = [t for t in threading.enumerate() if t not in before_threads]
        assert leaked == []
        # All sockets, the selector and its wakeup pair are gone; give the
        # kernel a beat to reap the runner processes' pipe ends.
        deadline = time.monotonic() + 5.0
        while (read_resource_sample()["n_fds"] > before_fds
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert read_resource_sample()["n_fds"] <= before_fds

    def test_service_jobs_share_one_loop_thread(self, service2):
        jobs = [
            service2.submit(lambda b: run_site_round(b, _double, [1, 2, 3]))
            for _ in range(3)
        ]
        for j in jobs:
            assert j.result(timeout=60) == [2, 4, 6]
        loops = [
            t for t in threading.enumerate() if t.name == "repro-cluster-loop"
        ]
        assert len(loops) == 1


class TestIoFaults:
    def test_io_trigger_fires_at_exact_loop_ordinal(self):
        """A when=io kill lands while the loop handles host 0's 2nd reply.

        The task sleeps, so host 0's later site tasks are still in flight
        at the trigger point: the kill forces a real replay, and the round
        can only join after recovery ran.
        """
        plan = FaultPlan.parse("kill host=0 when=io task=2")
        assert plan.has_io_actions
        backend = ClusterBackend(
            n_hosts=2, retry=RetryPolicy(max_retries=1), fault_plan=plan
        )
        try:
            ledger = CommunicationLedger()
            values = run_site_round(backend, _slow_double, range(8), ledger=ledger)
            assert values == [x * 2 for x in range(8)]
            assert plan.actions[0].fired
            assert backend.dead_hosts() == {0: backend.dead_hosts()[0]}
            events = ledger.wire.summary()["recovery"]
            assert len(events) == 1 and events[0]["host"] == 0
        finally:
            backend.close()

    def test_io_ordinals_count_per_host(self):
        plan = FaultPlan.parse("stall host=1 when=io task=3")
        assert plan.next_io_ordinal(0) == 1
        assert plan.next_io_ordinal(1) == 1
        assert plan.next_io_ordinal(1) == 2
        assert plan.next_io_ordinal(0) == 2
        # The only io action matches host 1's 3rd loop-handled reply, ever.
        assert plan.take(1, 0, 2, "io") == []
        assert len(plan.take(1, 5, 3, "io")) == 1

    def test_io_fault_protocol_run_stays_bit_identical(self):
        pts = _points(11, n=180)
        base = partial_kmedian(pts, 3, 9, n_sites=3, seed=11)
        backend = ClusterBackend(
            n_hosts=3,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse("kill host=1 when=io task=2"),
        )
        try:
            result = partial_kmedian(pts, 3, 9, n_sites=3, seed=11, backend=backend)
        finally:
            backend.close()
        _assert_same_result(result, base)
        assert len(result.ledger.wire.summary()["recovery"]) == 1


class TestBrokenPoolRetirement:
    def test_release_discards_dead_failfast_pool(self):
        with ClusterService(n_hosts=1) as svc:
            backend = svc.checkout(label="doomed")
            pool = backend._pool
            with pytest.raises(RuntimeError, match="cluster host 0"):
                run_site_round(backend, _die, [1])
            assert pool.dead_hosts()
            backend.close()
            # The wreck was retired with its scratch dir; the next checkout
            # gets a fresh, working pool.
            assert pool.socket_dir is None
            fresh = svc.checkout(label="replacement")
            try:
                assert fresh._pool is not pool
                assert run_site_round(fresh, _double, [4]) == [8]
            finally:
                fresh.close()
