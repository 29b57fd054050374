"""Tests for site tasks and the run_site_tasks scheduler."""

import numpy as np
import pytest

from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import ResidentState, SiteTask, run_site_tasks
from repro.utils.rng import spawn_rngs

ALL_BACKENDS = ["serial", pytest.param("cluster:2", marks=pytest.mark.cluster)]


def _make_network(n_sites=3):
    points = np.arange(6 * n_sites, dtype=float).reshape(-1, 2)
    metric = EuclideanMetric(points)
    shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
    instance = DistributedInstance.from_partition(metric, shards, 2, 1, "median")
    return StarNetwork(instance)


def _sum_task(ctx, scale):
    """Report the scaled sum of the site's own coordinates."""
    with ctx.timer.measure("sum"):
        total = float(ctx.local_metric.pairwise(np.arange(ctx.n_points), [0]).sum())
    ctx.state["total"] = total
    ctx.send_to_coordinator("partial_sum", total * scale, words=1)
    return total * scale


def _rng_task(ctx):
    """Draw from the site's stream so its state must advance."""
    value = float(ctx.rng.uniform())
    ctx.state["draw"] = value
    return value


def _echo_inbox_task(ctx):
    return [m.payload for m in ctx.messages("config")]


def _boom_task(ctx):
    raise RuntimeError(f"site {ctx.site_id} exploded")


class TestRunSiteTasks:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_state_timer_and_ledger_merge_back(self, backend):
        network = _make_network()
        network.next_round()
        results = run_site_tasks(
            network,
            [SiteTask(i, _sum_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=backend,
        )
        # Results come back in site order with the task's return value.
        assert [r.site_id for r in results] == [0, 1, 2]
        for site, result in zip(network.sites, results):
            if isinstance(site.state, ResidentState):
                # Cluster: the state dict stayed on the site's runner.
                assert site.state.site_id == site.site_id
            else:
                assert site.state["total"] * 2.0 == result.value
            assert site.timer.count("sum") == 1
        # One charged message per site, replayed in site order.
        messages = network.ledger.filter(kind="partial_sum")
        assert [m.sender for m in messages] == [0, 1, 2]
        assert network.ledger.total_words() == 3.0
        assert len(network.coordinator.inbox) == 3

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_rng_stream_advances_and_returns(self, backend):
        network = _make_network()
        network.next_round()
        rngs = spawn_rngs(123, network.n_sites)
        reference = [rng.uniform() for rng in spawn_rngs(123, network.n_sites)]
        results = run_site_tasks(
            network,
            [SiteTask(i, _rng_task, rng=rngs[i]) for i in range(network.n_sites)],
            backend=backend,
        )
        assert [r.value for r in results] == reference
        # The returned generators continue the per-site streams: a second
        # round must see the draws a serial run would have seen.
        continued = [float(r.rng.uniform()) for r in results]
        fresh = spawn_rngs(123, network.n_sites)
        for rng in fresh:
            rng.uniform()
        assert continued == [float(rng.uniform()) for rng in fresh]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_inbox_is_delivered_and_drained(self, backend):
        network = _make_network()
        network.next_round()
        for i in range(network.n_sites):
            network.send_to_site(i, "config", {"offset": i}, words=1)
        results = run_site_tasks(
            network,
            [SiteTask(i, _echo_inbox_task) for i in range(network.n_sites)],
            backend=backend,
        )
        assert [r.value for r in results] == [[{"offset": i}] for i in range(network.n_sites)]
        assert all(not site.inbox for site in network.sites)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_original_exception_surfaces(self, backend):
        network = _make_network()
        network.next_round()
        with pytest.raises(RuntimeError, match="site 1 exploded"):
            run_site_tasks(
                network,
                [SiteTask(i, _boom_task if i == 1 else _echo_inbox_task) for i in range(3)],
                backend=backend,
            )

    def test_rejects_unknown_site(self):
        network = _make_network()
        with pytest.raises(ValueError, match="unknown site id"):
            run_site_tasks(network, [SiteTask(99, _rng_task)])

    def test_rejects_duplicate_site(self):
        network = _make_network()
        with pytest.raises(ValueError, match="multiple tasks"):
            run_site_tasks(network, [SiteTask(0, _rng_task), SiteTask(0, _rng_task)])
