"""Cluster parity: every protocol is bit-identical on the cluster backend.

The acceptance bar for the cluster subsystem: for a fixed seed, all five
distributed protocols return the same centers, cost, outliers and — down to
the per-kind/per-round breakdown — the same word ledger on
``backend="cluster:3"`` as on ``"serial"``, while only the cluster run
reports positive wire bytes (``total_bytes``).

One shared three-host backend serves the module (the runners are real
subprocesses; spawning them once keeps the suite fast).  The accounting is
per run — each protocol's ledger gets its own wire ledger — so sharing the
pool never leaks bytes between runs.
"""

import numpy as np
import pytest

from repro import (
    partial_kcenter,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.cluster import ClusterBackend, FaultPlan, RetryPolicy
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def cluster3():
    backend = ClusterBackend(n_hosts=3)
    yield backend
    backend.close()


def _assert_same_result(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    assert base.cost == other.cost
    assert base.rounds == other.rounds
    assert base.ledger.total_words() == other.ledger.total_words()
    assert base.ledger.words_by_round() == other.ledger.words_by_round()
    assert base.ledger.words_by_kind() == other.ledger.words_by_kind()
    assert base.ledger.words_by_site() == other.ledger.words_by_site()
    assert base.ledger.n_messages() == other.ledger.n_messages()
    if base.outliers is None:
        assert other.outliers is None
    else:
        np.testing.assert_array_equal(base.outliers, other.outliers)
    # All of it: the scalars a driver gets from its sites' task return
    # values (t_used, local_k, cost_matrix_storage, ...) included.
    np.testing.assert_equal(base.metadata, other.metadata)


def _assert_cluster_bytes(base, cluster_result):
    """Wire bytes exist exactly on the cluster run; words never carry them.

    The coordinator reads only what sites send: an unfaulted run's frames
    are site dispatches, site results and heartbeats, nothing else.
    """
    assert base.ledger.total_bytes() == 0
    assert cluster_result.ledger.total_bytes() > 0
    assert any(v > 0 for v in cluster_result.ledger.bytes_by_round().values())
    summary = cluster_result.ledger.summary()
    assert summary["total_bytes"] == cluster_result.ledger.total_bytes()
    kinds = {rec.kind for rec in cluster_result.ledger.wire.records}
    assert kinds <= {"site_dispatch", "site_result", "hb"}, kinds


class TestClusterProtocolParity:
    def test_kmedian(self, small_workload, cluster3):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend="serial")
        other = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend=cluster3)
        _assert_same_result(base, other)
        _assert_cluster_bytes(base, other)

    def test_kcenter(self, small_workload, cluster3):
        base = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42, backend="serial")
        other = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42, backend=cluster3)
        _assert_same_result(base, other)
        _assert_cluster_bytes(base, other)

    def test_no_shipping_variant(self, small_instance, cluster3):
        base = distributed_partial_median_no_shipping(small_instance, rng=42, backend="serial")
        other = distributed_partial_median_no_shipping(small_instance, rng=42, backend=cluster3)
        _assert_same_result(base, other)
        _assert_cluster_bytes(base, other)

    def test_uncertain_kmedian(self, small_uncertain_workload, cluster3):
        base = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend="serial"
        )
        other = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend=cluster3
        )
        _assert_same_result(base, other)
        _assert_cluster_bytes(base, other)
        assert base.metadata["node_assignment"] == other.metadata["node_assignment"]

    def test_center_g(self, small_uncertain_workload, cluster3):
        base = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend="serial"
        )
        other = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend=cluster3
        )
        _assert_same_result(base, other)
        _assert_cluster_bytes(base, other)
        assert base.metadata["tau_hat"] == other.metadata["tau_hat"]

    @pytest.mark.parametrize(
        "protocol", [uncertain_partial_kmedian, uncertain_partial_kcenter_g],
        ids=["uncertain_kmedian", "center_g"],
    )
    def test_uncertain_uplink_is_accounted(self, small_uncertain_workload, protocol):
        """The uncertain protocols' uplink crosses a socket like every other's.

        Each site-to-coordinator message arrives carrying its real payload,
        and the result frames that carried them are on the wire ledger.
        """
        result = protocol(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            backend="cluster:2",
        )
        uplink = [m for m in result.ledger.messages if m.to_coordinator]
        assert uplink
        for message in uplink:
            assert message.payload is not None, message.kind
        assert result.ledger.wire.bytes_by_kind()["site_result"] > 0

    def test_cluster_spec_string(self, small_workload, cluster3):
        """``backend="cluster:3"`` (fresh pool) matches the shared instance."""
        base = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42, backend=cluster3
        )
        other = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42, backend="cluster:3"
        )
        _assert_same_result(base, other)
        # Byte totals are close but not identical across pools: a warm pool's
        # round-1 frames carry eviction notes for the site slots it served
        # before.  Exact repeat-run determinism is asserted in
        # tests/cluster/test_backend.py with fresh pools on both sides.
        assert other.ledger.total_bytes() > 0


class TestRecoveryParity:
    """Kill a runner mid-round: recovery must keep every protocol bit-identical.

    Each protocol gets a fresh three-host pool with a retry policy and a
    deterministic fault plan that kills host 2 right after it returns its
    first site result of round 1.  The surviving run must match serial on
    every axis ``_assert_same_result`` checks, and the wire ledger must show
    the recovery honestly (a recovery event plus ``replay_*`` frame bytes).
    """

    PLAN = "kill host=2 round=1 task=1 when=after"

    def _run_with_kill(self, fn, *args, **kwargs):
        backend = ClusterBackend(
            n_hosts=3,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse(self.PLAN),
        )
        try:
            result = fn(*args, backend=backend, **kwargs)
        finally:
            backend.close()
        events = result.ledger.wire.summary()["recovery"]
        assert len(events) == 1 and events[0]["host"] == 2
        assert any(
            kind.startswith("replay") and n > 0
            for kind, n in result.ledger.wire.bytes_by_kind().items()
        )
        return result

    def test_kmedian(self, small_workload):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42, backend="serial")
        other = self._run_with_kill(
            partial_kmedian, small_workload.points, 3, 15, n_sites=3, seed=42
        )
        _assert_same_result(base, other)

    def test_kcenter(self, small_workload):
        base = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42, backend="serial")
        other = self._run_with_kill(
            partial_kcenter, small_workload.points, 3, 15, n_sites=3, seed=42
        )
        _assert_same_result(base, other)

    def test_no_shipping_variant(self, small_instance):
        base = distributed_partial_median_no_shipping(small_instance, rng=42, backend="serial")
        other = self._run_with_kill(
            distributed_partial_median_no_shipping, small_instance, rng=42
        )
        _assert_same_result(base, other)

    def test_uncertain_kmedian(self, small_uncertain_workload):
        base = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend="serial"
        )
        other = self._run_with_kill(
            uncertain_partial_kmedian, small_uncertain_workload.instance, 3, 6,
            n_sites=3, seed=42,
        )
        _assert_same_result(base, other)
        assert base.metadata["node_assignment"] == other.metadata["node_assignment"]

    def test_center_g(self, small_uncertain_workload):
        base = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42, backend="serial"
        )
        other = self._run_with_kill(
            uncertain_partial_kcenter_g, small_uncertain_workload.instance, 3, 6,
            n_sites=3, seed=42,
        )
        _assert_same_result(base, other)
        assert base.metadata["tau_hat"] == other.metadata["tau_hat"]


class TestUncompressedWireParity:
    """With ``REPRO_WIRE_CODEC=none`` every frame is decoded zero-copy.

    Result frames then hand the coordinator arrays that alias the receive
    buffer, outbox payloads included; every protocol must still match
    serial bit for bit.
    """

    def test_five_protocols_match_serial(
        self, monkeypatch, small_workload, small_instance, small_uncertain_workload
    ):
        # Runners inherit the coordinator's environment when they spawn, at
        # the pool's first dispatch, so the override is set before that.
        monkeypatch.setenv("REPRO_WIRE_CODEC", "none")
        points = small_workload.points
        uncertain = small_uncertain_workload.instance
        runs = [
            lambda b: partial_kmedian(points, 3, 15, n_sites=3, seed=42, backend=b),
            lambda b: partial_kcenter(points, 3, 15, n_sites=3, seed=42, backend=b),
            lambda b: distributed_partial_median_no_shipping(small_instance, rng=42, backend=b),
            lambda b: uncertain_partial_kmedian(uncertain, 3, 6, n_sites=3, seed=42, backend=b),
            lambda b: uncertain_partial_kcenter_g(uncertain, 3, 6, n_sites=3, seed=42, backend=b),
        ]
        backend = ClusterBackend(n_hosts=2)
        try:
            for run in runs:
                other = run(backend)
                _assert_same_result(run("serial"), other)
                assert {rec.codec for rec in other.ledger.wire.records} == {"none"}
        finally:
            backend.close()
