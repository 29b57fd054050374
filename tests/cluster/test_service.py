"""Clustering-as-a-service: admission, isolation, and the event-loop shape.

Covers the service tentpole's acceptance surface:

* concurrent jobs on one shared warm pool are bit-identical to their
  serial-backend runs, with disjoint wire ledgers and no cross-job
  resident-state leakage;
* FIFO admission keyed on ``memory_budget`` admits >= 4 concurrent jobs
  and never starves an oversized job;
* the coordinator runs **zero per-host threads** — one selector loop
  multiplexes every runner channel — and ``close()`` leaks neither
  threads nor file descriptors (``/proc/self/fd`` count);
* ``when=io`` faults fire at exact loop-dispatch ordinals and recovery
  keeps results bit-identical;
* a runner death on the shared pool goes on each interrupted job's own
  wire ledger, listing only that job's sites and replay frames.
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
from repro.distributed.instance import DistributedInstance
from repro.distributed.messages import CommunicationLedger
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import SiteTask, run_site_tasks
from tests.helpers import pool_holdings, run_site_round

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


def _stateful_task(ctx, scale):
    round_no = ctx.state.get("rounds", 0) + 1
    ctx.state["rounds"] = round_no
    if round_no == 1:
        ctx.state["big"] = np.full(2048, float(ctx.site_id))
    return float(np.sum(ctx.state["big"])) + ctx.site_id * scale * round_no


def _stateful_round(network, backend):
    """One round of ``_stateful_task`` on every site; returns the values."""
    network.next_round()
    tasks = [SiteTask(i, _stateful_task, args=(2.0,)) for i in range(network.n_sites)]
    return [r.value for r in run_site_tasks(network, tasks, backend=backend)]


def _site_network(n_sites):
    points = np.arange(8.0 * n_sites).reshape(-1, 2)
    shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
    return StarNetwork(DistributedInstance.from_partition(
        EuclideanMetric(points), shards, 2, 1, "median"
    ))


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
        """Two concurrent jobs' runs add no resident key or site log to the
        shared pool: each run's state ends with the run, so the same site
        ids in two jobs never meet."""
        pts = _points(6)
        backends = [service2.checkout(label=f"slots-{seed}") for seed in (1, 2)]
        pool = backends[0]._pool
        before = pool_holdings(pool)
        results = {}

        def run(seed, backend):
            results[seed] = partial_kmedian(pts, 3, 6, n_sites=4, seed=seed, backend=backend)

        try:
            threads = [
                threading.Thread(target=run, args=(seed, backend))
                for seed, backend in zip((1, 2), backends)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert pool_holdings(pool) == before
        finally:
            for backend in backends:
                backend.close()
        for seed in (1, 2):
            _assert_same_result(
                results[seed], partial_kmedian(pts, 3, 6, n_sites=4, seed=seed)
            )


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

    def test_closed_service_refuses_checkout(self):
        svc = ClusterService(n_hosts=1)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.checkout()


def _open_fds():
    """Open file descriptors of this process."""
    return len(os.listdir("/proc/self/fd"))


class TestEventLoopShape:
    def test_zero_per_host_threads_and_clean_close(self):
        """cluster:3 runs one loop thread total, and close() leaks nothing."""
        before_threads = set(threading.enumerate())
        before_fds = _open_fds()

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
        while _open_fds() > before_fds and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _open_fds() <= before_fds

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
        """Host 1 dies as the loop handles its round-1 reply.

        Its round-2 task still has to run, so the run observes the death,
        replays the site's log and stays bit-identical.  (Host 1's round-2
        reply is its last frame of the run: a kill there lands after the
        run stopped needing the host.)
        """
        pts = _points(11, n=180)
        base = partial_kmedian(pts, 3, 9, n_sites=3, seed=11)
        backend = ClusterBackend(
            n_hosts=3,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse("kill host=1 when=io task=1"),
        )
        try:
            result = partial_kmedian(pts, 3, 9, n_sites=3, seed=11, backend=backend)
        finally:
            backend.close()
        _assert_same_result(result, base)
        assert len(result.ledger.wire.summary()["recovery"]) == 1


class TestRecoveryAccounting:
    def test_shared_pool_death_goes_on_each_jobs_own_books(self):
        """Host 1 dies between rounds while two jobs hold state on it.

        Job A (4 sites) holds sites 1 and 3 there, job B (2 sites) site 1.
        Each job's round 2 replays its own sites, and each job's ledger
        gets one event listing only its own re-pins and replay frames.
        """
        with ClusterService(n_hosts=2, retry=RetryPolicy(max_retries=1)) as svc:
            jobs = [(svc.checkout(label="a"), _site_network(4)),
                    (svc.checkout(label="b"), _site_network(2))]
            try:
                for backend, network in jobs:
                    _stateful_round(network, backend)
                pool = jobs[0][0]._pool
                pool._hosts[1].process.kill()
                deadline = time.monotonic() + 30.0
                while 1 not in pool.dead_hosts():
                    assert time.monotonic() < deadline, "host death never observed"
                    time.sleep(0.02)
                values = [_stateful_round(network, backend) for backend, network in jobs]
            finally:
                for backend, _ in jobs:
                    backend.close()
        for (_, network), got, repin in zip(jobs, values, ({1: 0, 3: 0}, {1: 0})):
            serial = _site_network(network.n_sites)
            _stateful_round(serial, None)
            assert got == _stateful_round(serial, None)
            wire = network.ledger.wire
            [event] = wire.recovery
            assert event.host == 1 and event.repin == repin
            replays = [r for r in wire.records if r.kind == "replay_dispatch"]
            assert event.replayed_frames == len(replays) == len(repin)


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
