"""Runner-resident mutable site state: digests, handles, tokens, ceilings.

The honesty bug this guards against: site state (e.g. the precluster's
cached ``n_i x n_i`` cost matrix) being pickled back to the coordinator
after round 1 and re-shipped in the round-2 dispatch.  With residency, the
result frame carries a digest, ``Site.state`` an opaque handle and the next
dispatch an epoch token; the coordinator reads no site state at all — so
round>=2 dispatch bytes must stay near the frame floor, which
``test_kmedian_round2_dispatch_byte_ceiling`` pins with a fixed ceiling.
"""

import os
import tempfile

import numpy as np
import pytest

from repro import partial_kmedian
from repro.cluster import ClusterBackend
from repro.cluster.wire import FRAME_KINDS
from repro.data import gaussian_mixture_with_outliers
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import ResidentState, SiteTask, run_site_tasks

pytestmark = pytest.mark.cluster

#: Fixed byte ceiling for the whole round-2 site dispatch of the kmedian
#: regression run below (3 sites on 2 hosts).  A dispatch that re-ships the
#: preclusters is two orders of magnitude above this; the honest token
#: dispatch measures ~2.6 KB.
KMEDIAN_ROUND2_DISPATCH_CEILING = 8 * 1024


def _accumulate_task(ctx, scale):
    """Two-round toy: grows state in round 1, consumes it in round 2.

    Returns what it read from its state, so the coordinator can compare
    backends without reading site state.
    """
    round_no = ctx.state.get("rounds", 0) + 1
    ctx.state["rounds"] = round_no
    if round_no == 1:
        ctx.state["big"] = np.full(4096, float(ctx.site_id))  # 32 KiB of state
        ctx.state["small"] = ctx.site_id * scale
    total = float(np.sum(ctx.state["big"])) + ctx.state["small"]
    ctx.send_to_coordinator("probe", total, words=1)
    return round_no, total, sorted(ctx.state)


def _make_network(n_sites=3):
    points = np.arange(8 * n_sites, dtype=float).reshape(-1, 2)
    metric = EuclideanMetric(points)
    shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
    instance = DistributedInstance.from_partition(metric, shards, 2, 1, "median")
    return StarNetwork(instance)


def _dispatch_bytes_by_round(ledger, kind="site_dispatch"):
    out = {}
    for rec in ledger.wire.records:
        if rec.kind == kind:
            out[rec.round_index] = out.get(rec.round_index, 0) + rec.n_bytes
    return out


def _round(network, backend):
    network.next_round()
    return run_site_tasks(
        network,
        [SiteTask(i, _accumulate_task, args=(2.0,)) for i in range(network.n_sites)],
        backend=backend,
    )


def _two_rounds(backend):
    """Run the toy task for two rounds; returns (network, round-2 values)."""
    network = _make_network()
    _round(network, backend)
    results = _round(network, backend)
    return network, [r.value for r in results]


@pytest.fixture(scope="module")
def cluster2():
    backend = ClusterBackend(n_hosts=2)
    yield backend
    backend.close()


class TestStateResidency:
    def test_state_comes_back_as_a_handle(self, cluster2):
        network, _ = _two_rounds(cluster2)
        for site in network.sites:
            handle = site.state
            assert isinstance(handle, ResidentState)
            assert handle.epoch == 2  # one epoch per completed round
            assert handle.resident_key == site.resident_key
            assert handle.site_id == site.site_id
            # Opaque: the coordinator cannot read site state through it.
            with pytest.raises(TypeError):
                handle["big"]

    def test_round2_dispatch_ships_token_not_state(self, cluster2):
        network, _ = _two_rounds(cluster2)
        dispatch = _dispatch_bytes_by_round(network.ledger)
        results = _dispatch_bytes_by_round(network.ledger, "site_result")
        # Round 1 pays for the sticky half; round 2 is a token + inbox —
        # and neither is within sight of the 3 x 32 KiB of mutable state.
        assert 0 < dispatch[2] < dispatch[1]
        assert dispatch[2] < 8192
        # Neither result frame carried the 3 x 32 KiB of mutable state.
        assert results[1] < 8192 and results[2] < 8192

    def test_matches_serial_bit_for_bit(self, cluster2):
        base_net, base_values = _two_rounds(None)
        net, values = _two_rounds(cluster2)
        # Round 2 read back, on the runner, exactly the state round 1 left.
        assert values == base_values
        assert [v[0] for v in values] == [2, 2, 2]
        assert all(v[2] == ["big", "rounds", "small"] for v in values)
        assert net.ledger.total_words() == base_net.ledger.total_words()
        assert net.ledger.words_by_kind() == base_net.ledger.words_by_kind()

    def test_stale_handle_dispatch_raises(self, cluster2):
        network = _make_network()
        _round(network, cluster2)
        stale = network.sites[0].state
        _round(network, cluster2)
        assert network.sites[0].state is not stale
        network.sites[0].state = stale
        with pytest.raises(RuntimeError, match=network.sites[0].resident_key):
            _round(network, cluster2)


class TestKmedianDispatchCeiling:
    """Tier-1 regression: the kmedian state round-trip must not return."""

    def test_kmedian_round2_dispatch_byte_ceiling(self, small_workload):
        backend = ClusterBackend(n_hosts=2)
        try:
            result = partial_kmedian(
                small_workload.points, 3, 15, n_sites=3, seed=42, backend=backend
            )
        finally:
            backend.close()
        # Every frame the run recorded is a declared kind (the ledger's
        # vocabulary and the backend's `kind + suffix` construction agree).
        assert {rec.kind for rec in result.ledger.wire.records} <= set(FRAME_KINDS)
        dispatch = _dispatch_bytes_by_round(result.ledger)
        assert dispatch[2] > 0
        # Before residency this was ~300 KB (the preclusters riding back
        # out); the honest token dispatch is ~2.6 KB.  A fixed ceiling keeps
        # the bug from silently returning.
        assert dispatch[2] < KMEDIAN_ROUND2_DISPATCH_CEILING
        # The result frames must not round-trip the state either: their
        # bytes stay near the outbox payloads, far below the precluster.
        results_bytes = _dispatch_bytes_by_round(result.ledger, "site_result")
        assert results_bytes[1] < 64 * 1024
        assert results_bytes[2] < 64 * 1024


class TestWarmPoolFiles:
    """Site state lives in its runner's memory: a warm pool leaves no files."""

    def test_warm_pool_writes_no_file_per_job(self, tmp_path, monkeypatch):
        # The coordinator's temp directory (which holds the pool's socket
        # directory) is pinned first; the runners inherit TMPDIR=tmp_path.
        tempfile.gettempdir()
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        points = gaussian_mixture_with_outliers(
            n_inliers=1580, n_outliers=20, n_clusters=4, dim=2, separation=12.0,
            rng=2017,
        ).points
        backend = ClusterBackend(n_hosts=2)
        try:
            for seed in range(3):
                # 400 points per site: each site's cost matrix is 1.28 MB.
                partial_kmedian(points, 4, 20, n_sites=4, seed=seed, backend=backend)
                socket_dir = os.path.join(backend.socket_dir, "")
                files = [
                    path for path in tmp_path.rglob("*")
                    if path.is_file() and not str(path).startswith(socket_dir)
                ]
                assert files == [], f"job {seed} left files in TMPDIR: {files}"
        finally:
            backend.close()
