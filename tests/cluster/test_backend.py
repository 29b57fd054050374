"""Tests for the ClusterBackend: registry, site rounds, resident state, bytes."""

import os

import numpy as np
import pytest

from repro import partial_kmedian
from repro.cluster import ClusterBackend, WireLedger
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import (
    SiteTask,
    ThreadPoolBackend,
    available_backends,
    register_backend,
    resolve_backend,
    run_site_tasks,
)
from tests.helpers import run_site_round

pytestmark = pytest.mark.cluster


def _square(x):
    return x * x


def _raise_key_error(x):
    raise KeyError(f"payload {x} failed on purpose")


def _return_unpicklable(x):
    return lambda: x  # lambdas cannot cross the wire back


def _ping_task(ctx, scale):
    """Tiny site task: one word to the coordinator, one state entry."""
    ctx.state["seen"] = ctx.state.get("seen", 0) + 1
    ctx.send_to_coordinator("ping", float(ctx.site_id) * scale, words=1)
    return ctx.n_points


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
        assert "cluster" in available_backends()
        assert "service" in available_backends()

    def test_thread_spec_sets_workers(self):
        backend = resolve_backend("thread:4")
        assert isinstance(backend, ThreadPoolBackend)
        assert backend.max_workers == 4
        backend.close()

    def test_serial_rejects_worker_count(self):
        with pytest.raises(ValueError, match="serial backend"):
            resolve_backend("serial:2")

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            resolve_backend("thread:x")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_backend("thread:0")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu:4")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("cluster", lambda workers: ClusterBackend(n_hosts=workers))

    def test_bad_registration_name_rejected(self):
        with pytest.raises(ValueError, match="':'-free"):
            register_backend("bad:name", lambda workers: None)

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

    def test_map_ordered_raises_type_error(self, cluster2):
        """Site tasks are the only work a cluster pool or service lane runs."""
        from repro.cluster import ClusterService

        with ClusterService(n_hosts=1) as service:
            lane = service.checkout()
            try:
                for backend in (cluster2, lane):
                    for method in (backend.map_ordered, backend.submit_ordered):
                        with pytest.raises(TypeError, match="run_site_tasks"):
                            method(_square, [1])
            finally:
                lane.close()


class TestSiteTasks:
    def test_round_merges_and_stamps_bytes(self, cluster2):
        network = _make_network()
        network.next_round()
        results = run_site_tasks(
            network,
            [SiteTask(i, _ping_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=cluster2,
        )
        assert [r.site_id for r in results] == [0, 1, 2]
        assert all(site.state["seen"] == 1 for site in network.sites)
        messages = network.ledger.filter(kind="ping")
        assert [m.sender for m in messages] == [0, 1, 2]
        # Every uplink payload crossed a socket: its wire size is stamped.
        assert all(m.n_bytes is not None and m.n_bytes > 0 for m in messages)
        assert network.ledger.total_bytes() > 0

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
        # Round 1 ships (shard, local_metric); round 2 reuses the resident
        # copy and ships only the per-round state — materially fewer bytes.
        assert 0 < dispatch_by_round[2] < dispatch_by_round[1]

    def test_clear_resident_forces_reshipping(self, cluster2):
        network = _make_network()
        network.next_round()
        run_site_tasks(
            network, [SiteTask(0, _ping_task, args=(1.0,))], backend=cluster2
        )
        network.next_round()
        run_site_tasks(
            network, [SiteTask(0, _ping_task, args=(1.0,))], backend=cluster2
        )
        cluster2.clear_resident()
        network.next_round()
        run_site_tasks(
            network, [SiteTask(0, _ping_task, args=(1.0,))], backend=cluster2
        )
        wire = network.ledger.wire
        dispatch = {}
        for rec in wire.records:
            if rec.kind == "site_dispatch":
                dispatch[rec.round_index] = dispatch.get(rec.round_index, 0) + rec.n_bytes
        assert dispatch[2] < dispatch[1]          # cached
        assert dispatch[3] > dispatch[2]          # cache dropped: sticky re-shipped

    def test_shared_pool_evicts_superseded_resident_state(self, cluster2, small_workload):
        """Fresh protocol runs reuse site slots: runner-resident memory and
        the coordinator's site logs are bounded by live slots, not by the
        number of runs served."""
        for _ in range(2):
            network = _make_network()
            network.next_round()
            run_site_tasks(
                network,
                [SiteTask(i, _ping_task, args=(1.0,)) for i in range(network.n_sites)],
                backend=cluster2,
            )
        for seed in range(2):
            partial_kmedian(
                small_workload.points, 3, 15, n_sites=3, seed=seed, backend=cluster2
            )
        # One resident key per (host, site slot) — superseded keys are gone.
        for host in cluster2._hosts:
            assert len(host.resident_keys) == len(host.resident_by_site)
        total_slots = sum(len(h.resident_by_site) for h in cluster2._hosts)
        assert sum(len(h.resident_keys) for h in cluster2._hosts) == total_slots == 3
        # Every dispatch is logged, one log per live resident key.
        assert len(cluster2._site_logs) == total_slots
        cluster2.clear_resident()
        assert not cluster2._site_logs
        assert not any(h.resident_keys for h in cluster2._hosts)

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

    def test_backend_restarts_after_close(self):
        backend = ClusterBackend(n_hosts=1)
        try:
            assert run_site_round(backend, _square, [2]) == [4]
            backend.close()
            assert run_site_round(backend, _square, [5]) == [25]
        finally:
            backend.close()
