"""Tests for the ClusterBackend: backend specs, site rounds, resident state, bytes."""

import glob
import os
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro import partial_kcenter, partial_kmedian
from repro.cluster import ClusterBackend
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import SiteTask, resolve_backend, run_site_tasks
from tests.helpers import pool_holdings, run_site_round

pytestmark = pytest.mark.cluster


def _square(x):
    return x * x


def _raise_key_error(x):
    raise KeyError(f"payload {x} failed on purpose")


def _return_unpicklable(x):
    return lambda: x  # lambdas cannot cross the wire back


def _ping_task(ctx, scale):
    """Tiny site task: one word to the coordinator, one state entry.

    Returns the site's size and how many rounds it has seen.
    """
    ctx.state["seen"] = ctx.state.get("seen", 0) + 1
    ctx.send_to_coordinator("ping", float(ctx.site_id) * scale, words=1)
    return ctx.n_points, ctx.state["seen"]


def _send_and_return_array(ctx, seed, size):
    """Send one random float64 array to the coordinator and return it too."""
    array = np.random.default_rng(seed).random(size)
    ctx.send_to_coordinator("array", array, words=size)
    return array


def _make_network(n_sites=3):
    points = np.arange(6 * n_sites, dtype=float).reshape(-1, 2)
    metric = EuclideanMetric(points)
    shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
    instance = DistributedInstance.from_partition(metric, shards, 2, 1, "median")
    return StarNetwork(instance)


@pytest.fixture(scope="module")
def cluster2():
    backend = ClusterBackend(n_hosts=2)
    yield backend
    backend.close()


class TestRegistry:
    def test_cluster_spec_resolves(self):
        backend = resolve_backend("cluster:2")
        if os.environ.get("REPRO_CLUSTER_SERVICE", "") not in ("", "0"):
            # Service-mode CI: the spec checks a job out of the shared pool.
            from repro.cluster import ServiceBackend

            assert isinstance(backend, ServiceBackend)
        else:
            assert isinstance(backend, ClusterBackend)
        assert backend.n_hosts == 2
        backend.close()  # never started: close must still be a no-op

    def test_cluster_listed(self):
        names = r"\['cluster', 'serial', 'service'\]"
        with pytest.raises(ValueError, match=f"choose from {names}"):
            resolve_backend("gpu")

    def test_process_is_an_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'process'"):
            resolve_backend("process:2")

    def test_serial_rejects_worker_count(self):
        with pytest.raises(ValueError, match="serial backend"):
            resolve_backend("serial:2")

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            resolve_backend("cluster:x")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_backend("cluster:0")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu:4")

    def test_bad_host_count(self):
        with pytest.raises(ValueError, match="n_hosts"):
            ClusterBackend(n_hosts=0)


class TestGenericTasks:
    """Plain callables run as one round of site tasks (``run_site_round``)."""

    def test_empty_batch(self):
        backend = ClusterBackend(n_hosts=2)
        try:
            network = _make_network()
            network.next_round()
            assert run_site_tasks(network, [], backend=backend) == []
            assert backend.socket_dir is None  # empty rounds never spawn hosts
        finally:
            backend.close()

    def test_original_exception_type_surfaces(self, cluster2):
        with pytest.raises(KeyError, match="payload 2 failed on purpose"):
            run_site_round(cluster2, _raise_key_error, [2, 3])
        # The runner survives a task failure and serves the next round.
        assert run_site_round(cluster2, _square, [6]) == [36]

    def test_numpy_payloads_cross_the_wire(self, cluster2):
        arrays = [np.full((10, 10), i, dtype=float) for i in range(3)]
        out = run_site_round(cluster2, _square, arrays)
        for i, result in enumerate(out):
            np.testing.assert_array_equal(result, arrays[i] * arrays[i])

    def test_unpicklable_result_fails_task_not_host(self, cluster2):
        with pytest.raises(RuntimeError, match="could not be serialized"):
            run_site_round(cluster2, _return_unpicklable, [1])
        # The runner relayed the failure instead of dying with it.
        assert run_site_round(cluster2, _square, [3]) == [9]

    def test_unpicklable_dispatch_fails_task_not_host(self, cluster2):
        with pytest.raises(RuntimeError, match="could not be serialized"):
            run_site_round(cluster2, _square, [lambda: 1])
        assert run_site_round(cluster2, _square, [4]) == [16]


class TestSiteTasks:
    def test_round_merges_results_and_messages(self, cluster2):
        network = _make_network()
        network.next_round()
        results = run_site_tasks(
            network,
            [SiteTask(i, _ping_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=cluster2,
        )
        assert [r.site_id for r in results] == [0, 1, 2]
        assert [r.value for r in results] == [
            (site.n_points, 1) for site in network.sites
        ]
        messages = network.ledger.filter(kind="ping")
        assert [m.sender for m in messages] == [0, 1, 2]
        assert [m.payload for m in messages] == [0.0, 2.0, 4.0]
        assert network.ledger.total_bytes() > 0

    def test_sent_and_returned_object_crosses_once(self, cluster2):
        """A payload the task also returns rides its result frame once."""
        size = 1 << 17  # 1 MiB of float64
        network = _make_network(n_sites=1)
        network.next_round()
        (result,) = run_site_tasks(
            network, [SiteTask(0, _send_and_return_array, args=(7, size))],
            backend=cluster2,
        )
        expected = np.random.default_rng(7).random(size)
        (message,) = network.ledger.filter(kind="array")
        np.testing.assert_array_equal(message.payload, expected)
        assert result.value is message.payload  # one object, pickled once
        raw = network.ledger.wire.raw_bytes_by_kind()["site_result"]
        assert raw < 1.5 * expected.nbytes

    def test_resident_state_saves_round2_dispatch_bytes(self, cluster2):
        network = _make_network()
        tasks = lambda: [  # noqa: E731 - tiny local factory
            SiteTask(i, _ping_task, args=(1.0,)) for i in range(network.n_sites)
        ]
        network.next_round()
        run_site_tasks(network, tasks(), backend=cluster2)
        network.next_round()
        run_site_tasks(network, tasks(), backend=cluster2)
        wire = network.ledger.wire
        dispatch_by_round = {1: 0, 2: 0}
        for rec in wire.records:
            if rec.kind == "site_dispatch":
                dispatch_by_round[rec.round_index] += rec.n_bytes
        # Round 1 ships the site view; round 2 reuses the resident copy and
        # ships only the per-round state — materially fewer bytes.
        assert 0 < dispatch_by_round[2] < dispatch_by_round[1]

    def test_shared_pool_evicts_superseded_resident_state(self, cluster2, small_workload):
        """A run owns what the pool holds for it: two ended hand-driven
        networks and two driver runs add no resident key or site log to the
        warm pool.  Earlier tests may leave networks they never ended, so the
        test compares against the pool as it found it."""
        before = pool_holdings(cluster2)
        ended = []
        for _ in range(2):
            network = _make_network()
            network.next_round()
            run_site_tasks(
                network,
                [SiteTask(i, _ping_task, args=(1.0,)) for i in range(network.n_sites)],
                backend=cluster2,
            )
            # Until its run ends, a hand-driven network keeps its state.
            assert len(cluster2._site_logs) == before[1] + network.n_sites
            cluster2.end_run(network)
            ended.extend(site.resident_key for site in network.sites)
        for seed in range(2):
            partial_kmedian(
                small_workload.points, 3, 15, n_sites=3, seed=seed, backend=cluster2
            )
        assert pool_holdings(cluster2) == before
        # The ended networks' evictions rode the driver runs' frames.
        assert not {key for host in cluster2._hosts for key in host.evict} & set(ended)

    def test_deterministic_repeat_run_bytes(self):
        # Raw bytes are the run-invariant column: the per-run uuid resident
        # keys pickle to the same *length* every run, but their bytes differ,
        # so the zlib-encoded frame sizes may wobble by a few bytes.
        def one_run():
            backend = ClusterBackend(n_hosts=2)
            try:
                network = _make_network()
                network.next_round()
                run_site_tasks(
                    network,
                    [SiteTask(i, _ping_task, args=(1.0,)) for i in range(3)],
                    backend=backend,
                )
                return network.ledger.total_raw_bytes(), network.ledger.total_words()
            finally:
                backend.close()

        assert one_run() == one_run()


class TestConcurrentRuns:
    def test_two_threads_share_one_caller_owned_pool(self):
        """Two protocols run at once on one pool, two runs each.

        Each run owns its sites' state, whatever site ids the other run
        uses: every run equals its serial run, and once both threads are
        done the pool holds no resident key or site log of theirs.
        """
        points = np.random.default_rng(0).normal(size=(400, 2))
        drivers = {"kmedian": partial_kmedian, "kcenter": partial_kcenter}
        pool = ClusterBackend(n_hosts=2)
        results, errors = {}, []

        def drive(name):
            try:
                for seed in (1, 2):
                    results[name, seed] = drivers[name](
                        points, 4, 20, n_sites=4, seed=seed, backend=pool
                    )
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        try:
            before = pool_holdings(pool)
            threads = [threading.Thread(target=drive, args=(name,)) for name in drivers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert pool_holdings(pool) == before
        finally:
            pool.close()
        assert len(results) == 4
        for (name, seed), result in results.items():
            serial = drivers[name](points, 4, 20, n_sites=4, seed=seed)
            np.testing.assert_array_equal(result.centers, serial.centers)
            assert result.cost == serial.cost
            assert result.ledger.total_words() == serial.ledger.total_words()
            np.testing.assert_array_equal(result.outliers, serial.outliers)

    def test_hand_driven_networks_end_cleanly_under_thread_switching(self, cluster2):
        """Four threads drive and end two-round networks on one pool while
        the interpreter switches threads every microsecond: every round is
        right, and the pool ends up holding what it held before."""
        before = pool_holdings(cluster2)
        errors = []

        def drive():
            try:
                for _ in range(3):
                    network = _make_network()
                    for round_no in (1, 2):
                        network.next_round()
                        results = run_site_tasks(
                            network,
                            [SiteTask(i, _ping_task, args=(1.0,)) for i in range(3)],
                            backend=cluster2,
                        )
                        assert [r.value for r in results] == [(3, round_no)] * 3
                    cluster2.end_run(network)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert pool_holdings(cluster2) == before


class TestLifecycle:
    def test_close_removes_socket_dir_and_is_idempotent(self):
        backend = ClusterBackend(n_hosts=1)
        assert run_site_round(backend, _square, [3]) == [9]
        socket_dir = backend.socket_dir
        assert socket_dir is not None and os.path.exists(socket_dir)
        backend.close()
        assert not os.path.exists(socket_dir)
        assert backend.socket_dir is None
        backend.close()  # second close is a no-op

    def test_failed_start_reaps_every_runner(self, tmp_path, monkeypatch):
        """A runner that exits before connecting fails the start at once
        (not after the 60 s start timeout) and leaves nothing behind."""
        backend = ClusterBackend(n_hosts=2)
        env = backend._runner_environment()
        env["PYTHONPATH"] = str(tmp_path)  # empty: no runner can import repro
        monkeypatch.setattr(backend, "_runner_environment", lambda: env)
        spawned = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        socket_dirs = os.path.join(tempfile.gettempdir(), "repro-cluster-*")
        before = set(glob.glob(socket_dirs))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="cluster host 0 failed to connect"):
            backend._ensure_started()
        assert time.monotonic() - t0 < 10.0
        # Every runner was started before the first accept, and every one
        # was reaped by the cleanup path with the socket directory.
        assert len(spawned) == 2
        assert all(process.poll() is not None for process in spawned)
        assert set(glob.glob(socket_dirs)) == before
        assert backend.socket_dir is None

    def test_silent_runner_fails_at_start_timeout(self, monkeypatch):
        """A runner that stays alive but never connects is bounded by the
        start timeout, and the cleanup path reaps it."""
        backend = ClusterBackend(n_hosts=1, start_timeout=0.5)
        spawned = []
        popen = subprocess.Popen

        def silent_popen(args, **kwargs):
            spawned.append(popen([sys.executable, "-c", "import time; time.sleep(60)"], **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", silent_popen)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"host 0 failed to connect .*\(exit code None\)"):
            backend._ensure_started()
        assert 0.5 <= time.monotonic() - t0 < 10.0
        assert all(process.poll() is not None for process in spawned)
        assert backend.socket_dir is None

    def test_backend_restarts_after_close(self):
        backend = ClusterBackend(n_hosts=1)
        try:
            assert run_site_round(backend, _square, [2]) == [4]
            backend.close()
            assert run_site_round(backend, _square, [5]) == [25]
        finally:
            backend.close()
