"""Runner-resident mutable site state: digests, lazy faults, clears, ceilings.

The honesty bug this guards against: site state (e.g. the precluster's
cached ``n_i x n_i`` cost matrix) being pickled back to the coordinator
after round 1 and re-shipped in the round-2 dispatch.  With residency, the
result frame carries a digest, the next dispatch an epoch token, and the
coordinator faults individual entries only on explicit access — so round>=2
dispatch bytes must stay near the frame floor, which
``test_kmedian_round2_dispatch_byte_ceiling`` pins with a fixed ceiling.
"""

import numpy as np
import pytest

from repro import partial_kmedian
from repro.cluster import ClusterBackend
from repro.cluster.wire import FRAME_KINDS
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.runtime import RemoteStateProxy, SiteTask, run_site_tasks

pytestmark = pytest.mark.cluster

#: Fixed byte ceiling for the whole round-2 site dispatch of the kmedian
#: regression run below (3 sites on 2 hosts).  A dispatch that re-ships the
#: preclusters is two orders of magnitude above this; the honest token
#: dispatch measures ~2.6 KB.
KMEDIAN_ROUND2_DISPATCH_CEILING = 8 * 1024


def _accumulate_task(ctx, scale):
    """Two-round toy: grows state in round 1, consumes it in round 2."""
    round_no = ctx.state.get("rounds", 0) + 1
    ctx.state["rounds"] = round_no
    if round_no == 1:
        ctx.state["big"] = np.full(4096, float(ctx.site_id))  # 32 KiB of state
        ctx.state["small"] = ctx.site_id * scale
    total = float(np.sum(ctx.state["big"])) + ctx.state["small"]
    extra = float(ctx.state.get("injected", 0.0))
    ctx.send_to_coordinator("probe", total + extra, words=1)
    return total + extra


def _make_network(n_sites=3):
    points = np.arange(8 * n_sites, dtype=float).reshape(-1, 2)
    metric = EuclideanMetric(points)
    shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
    instance = DistributedInstance.from_partition(metric, shards, 2, 1, "median")
    return StarNetwork(instance)


def _dispatch_bytes_by_round(ledger, kind="site_dispatch", *, raw=False):
    out = {}
    for rec in ledger.wire.records:
        if rec.kind == kind:
            n = rec.raw_bytes if raw else rec.n_bytes
            out[rec.round_index] = out.get(rec.round_index, 0) + n
    return out


def _two_rounds(backend, *, clear_between=False, inject=None):
    """Run the toy task for two rounds; returns (network, round-2 values)."""
    network = _make_network()
    for round_no in (1, 2):
        network.next_round()
        results = run_site_tasks(
            network,
            [SiteTask(i, _accumulate_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=backend,
        )
        if round_no == 1:
            if inject is not None:
                for site in network.sites:
                    site.state["injected"] = inject
            if clear_between and isinstance(backend, ClusterBackend):
                backend.clear_resident()
    return network, [r.value for r in results]


@pytest.fixture(scope="module")
def cluster2():
    backend = ClusterBackend(n_hosts=2)
    yield backend
    backend.close()


class TestStateResidency:
    def test_state_comes_back_as_a_lazy_proxy(self, cluster2):
        network, _ = _two_rounds(cluster2)
        for site in network.sites:
            proxy = site.state
            assert isinstance(proxy, RemoteStateProxy)
            assert proxy.epoch == 2  # one epoch per completed round
            assert set(proxy) == {"rounds", "big", "small"}
            # The 32 KiB entry is priced in the digest but still remote.
            assert proxy.sizes["big"] > 30_000
            assert proxy.resident_bytes() > 30_000

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

    def test_faults_are_lazy_accounted_and_correct(self, cluster2):
        network, values = _two_rounds(cluster2)
        wire = network.ledger.wire
        assert "state_pull_dispatch" not in wire.bytes_by_kind()
        site = network.sites[1]
        big = site.state["big"]  # faults 32 KiB over the wire, once
        np.testing.assert_array_equal(big, np.full(4096, 1.0))
        kinds = wire.bytes_by_kind()
        assert kinds["state_pull_result"] > 30_000
        before = wire.n_frames()
        _ = site.state["big"]  # cached: no second fault
        assert wire.n_frames() == before
        assert values[1] == float(np.sum(big)) + 1 * 2.0

    def test_matches_serial_bit_for_bit(self, cluster2):
        base_net, base_values = _two_rounds(None)
        net, values = _two_rounds(cluster2)
        assert values == base_values
        assert net.ledger.total_words() == base_net.ledger.total_words()
        assert net.ledger.words_by_kind() == base_net.ledger.words_by_kind()
        for site, base_site in zip(net.sites, base_net.sites):
            assert set(site.state) == set(base_site.state)
            np.testing.assert_array_equal(site.state["big"], base_site.state["big"])
            assert site.state["small"] == base_site.state["small"]
            assert site.state["rounds"] == base_site.state["rounds"]

    def test_coordinator_writes_ride_the_token(self, cluster2):
        base_net, base_values = _two_rounds(None, inject=7.5)
        net, values = _two_rounds(cluster2, inject=7.5)
        assert values == base_values
        assert net.ledger.words_by_kind() == base_net.ledger.words_by_kind()

    def test_stale_epoch_proxy_raises(self, cluster2):
        network = _make_network()
        network.next_round()
        run_site_tasks(
            network,
            [SiteTask(i, _accumulate_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=cluster2,
        )
        stale = network.sites[0].state
        network.next_round()
        run_site_tasks(
            network,
            [SiteTask(i, _accumulate_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=cluster2,
        )
        assert network.sites[0].state is not stale
        with pytest.raises(RuntimeError, match="stale|advanced"):
            _ = stale["big"]

    def test_pull_state_detaches_and_survives_eviction(self, cluster2):
        network, _ = _two_rounds(cluster2)
        snapshots = [site.state.pull_state() for site in network.sites]
        for site, snap in zip(network.sites, snapshots):
            assert site.state.detached
            assert set(snap) == {"rounds", "big", "small"}
        # Residency can now be dropped without losing anything.
        cluster2.clear_resident()
        for site in network.sites:
            np.testing.assert_array_equal(
                site.state["big"], np.full(4096, float(site.site_id))
            )

    def test_evict_frees_the_read_cache(self, cluster2):
        network, _ = _two_rounds(cluster2)
        site = network.sites[0]
        _ = site.state["big"]
        wire = network.ledger.wire
        before = wire.n_frames()
        site.state.evict("big")
        _ = site.state["big"]  # re-faults after the evict
        # One fault = one dispatch frame + one result frame.
        assert wire.n_frames() == before + 2


class TestClearResident:
    """End-to-end coverage for the runner's ``clear_resident`` path."""

    def test_clear_forces_full_reshipping(self, cluster2):
        kept, _ = _two_rounds(cluster2)
        cleared, _ = _two_rounds(cluster2, clear_between=True)
        kept_dispatch = _dispatch_bytes_by_round(kept.ledger)
        cleared_dispatch = _dispatch_bytes_by_round(cleared.ledger)
        kept_raw = _dispatch_bytes_by_round(kept.ledger, raw=True)
        cleared_raw = _dispatch_bytes_by_round(cleared.ledger, raw=True)
        # Round 1 ships the same things either way (raw column: the runs'
        # uuid resident keys differ byte-for-byte, so encoded sizes wobble)...
        assert cleared_raw[1] == kept_raw[1]
        # ...but after the clear, round 2 re-ships the sticky half AND the
        # full mutable state (32 KiB per site) instead of a token.  The
        # constant-valued state compresses to almost nothing on the wire,
        # so the content claim lives in the raw (pre-codec) column too.
        assert cleared_dispatch[2] > kept_dispatch[2]
        assert cleared_raw[2] > kept_raw[2] + 3 * 30_000

    def test_mid_run_clear_is_bit_identical(self, cluster2):
        base_net, base_values = _two_rounds(None)
        net, values = _two_rounds(cluster2, clear_between=True)
        assert values == base_values
        assert net.ledger.total_words() == base_net.ledger.total_words()
        assert net.ledger.words_by_kind() == base_net.ledger.words_by_kind()
        for site, base_site in zip(net.sites, base_net.sites):
            np.testing.assert_array_equal(site.state["big"], base_site.state["big"])
            assert site.state["rounds"] == base_site.state["rounds"] == 2

    def test_clear_materializes_live_proxies_first(self, cluster2):
        network = _make_network()
        network.next_round()
        run_site_tasks(
            network,
            [SiteTask(i, _accumulate_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=cluster2,
        )
        proxies = [site.state for site in network.sites]
        assert all(not p.detached for p in proxies)
        cluster2.clear_resident()
        # Nothing was lost: the clear pulled every entry to the coordinator.
        for site_id, proxy in enumerate(proxies):
            assert proxy.detached
            np.testing.assert_array_equal(
                proxy["big"], np.full(4096, float(site_id))
            )


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
