"""Runner-crash propagation: a dying host must fail loudly and clean up."""

import os
import time

import numpy as np
import pytest

from repro import partial_kmedian
from repro.cluster import ClusterBackend
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import SiteTask, backend_scope, run_site_tasks
from tests.helpers import run_site_round

pytestmark = pytest.mark.cluster


def _square(x):
    return x * x


def _kill_runner(x):
    os._exit(3)  # simulate a host crash mid-task: no cleanup, no goodbye


def _kill_runner_if_odd(x):
    if x % 2:
        os._exit(3)
    return x


def _kill_runner_site_task(ctx):
    os._exit(3)


def _echo_site_task(ctx):
    return ctx.site_id


def _make_network(n_sites=2):
    points = np.arange(6 * n_sites, dtype=float).reshape(-1, 2)
    metric = EuclideanMetric(points)
    shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
    instance = DistributedInstance.from_partition(metric, shards, 2, 1, "median")
    return StarNetwork(instance)


class TestCrashPropagation:
    def test_error_names_the_host(self):
        backend = ClusterBackend(n_hosts=1)
        try:
            with pytest.raises(RuntimeError, match="cluster host 0"):
                run_site_round(backend, _kill_runner, [1])
        finally:
            backend.close()

    def test_later_submissions_fail_fast_after_death(self):
        backend = ClusterBackend(n_hosts=1)
        try:
            with pytest.raises(RuntimeError, match="cluster host 0"):
                run_site_round(backend, _kill_runner, [1])
            with pytest.raises(RuntimeError, match="cluster host 0"):
                run_site_round(backend, _square, [2])
        finally:
            backend.close()

    def test_mid_round_crash_names_host_and_cleans_up(self):
        """A site task kills its runner mid-round; the scheduler surfaces a
        RuntimeError naming the host and backend_scope's finally removes the
        sockets and scratch directory."""
        network = _make_network(n_sites=2)
        network.next_round()
        socket_dir = None
        with pytest.raises(RuntimeError, match="cluster host 1"):
            with backend_scope("cluster:2") as backend:
                tasks = [
                    SiteTask(0, _echo_site_task),
                    SiteTask(1, _kill_runner_site_task),
                ]
                try:
                    run_site_tasks(network, tasks, backend=backend)
                finally:
                    socket_dir = backend.socket_dir
        assert socket_dir is not None
        assert not os.path.exists(socket_dir)

    def test_externally_killed_runner_fails_protocol_run(self, small_workload):
        """Kill a runner process out from under a protocol: the run raises a
        clean RuntimeError naming the host instead of hanging."""
        backend = ClusterBackend(n_hosts=2)
        try:
            run_site_round(backend, _square, [1, 2])  # spawn the hosts
            victim = backend._hosts[0]
            victim.process.kill()
            victim.process.wait(timeout=10)
            time.sleep(0.1)  # let the reader observe the EOF
            with pytest.raises(RuntimeError, match="cluster host 0"):
                partial_kmedian(
                    small_workload.points, 3, 15, n_sites=3, seed=42, backend=backend
                )
        finally:
            socket_dir = backend.socket_dir
            backend.close()
            assert socket_dir is not None and not os.path.exists(socket_dir)

    def test_surviving_hosts_keep_serving(self):
        backend = ClusterBackend(n_hosts=2)
        try:
            # Site id picks the host: site 1 -> host 1 dies, host 0 lives.
            with pytest.raises(RuntimeError, match="cluster host 1"):
                run_site_round(backend, _kill_runner_if_odd, [0, 1])
            assert run_site_round(backend, _square, [8]) == [64]  # site 0 -> host 0
        finally:
            backend.close()
