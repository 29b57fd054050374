"""Tracing on the cluster backend: one timeline, wire counters from the ledger.

The acceptance bar for the observability layer: a ``trace=True`` run on
``cluster:3`` yields (a) a tracer whose wire byte counters equal the
:class:`~repro.cluster.wire.WireLedger` exactly, (b) runner spans
rebased onto the coordinator timeline inside the rpc windows that carried
them, (c) resident-cache / state / plan counters per protocol — while
``trace=False`` stays bit-identical to an untraced serial run.  Site timers
carry the serial labels plus the runner's ``cluster:*`` ones.
"""

import numpy as np
import pytest

from repro import (
    partial_kcenter,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.cluster import ClusterBackend
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.metrics.euclidean import EuclideanMetric
from repro.obs import protocol_summary, round_report, to_chrome_trace
from repro.runtime import SiteTask, run_site_tasks
from tests.helpers import assert_counters_equal_ledger

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def cluster3():
    backend = ClusterBackend(n_hosts=3)
    yield backend
    backend.close()


def _assert_same_result(base, other):
    np.testing.assert_array_equal(base.centers, other.centers)
    assert base.cost == other.cost
    assert base.ledger.total_words() == other.ledger.total_words()
    assert base.ledger.words_by_kind() == other.ledger.words_by_kind()
    if base.outliers is None:
        assert other.outliers is None
    else:
        np.testing.assert_array_equal(base.outliers, other.outliers)


class TestTracedClusterParity:
    """Every protocol: traced on cluster:3 == untraced on serial; counters
    equal the wire ledger."""

    def test_kmedian(self, small_workload, cluster3):
        base = partial_kmedian(small_workload.points, 3, 15, n_sites=3, seed=42)
        traced = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=cluster3, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)
        assert traced.trace.counter("cluster.resident_hit") > 0
        assert traced.trace.counter("cluster.resident_miss") > 0

    def test_kcenter(self, small_workload, cluster3):
        base = partial_kcenter(small_workload.points, 3, 15, n_sites=3, seed=42)
        traced = partial_kcenter(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=cluster3, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)

    def test_no_shipping_variant(self, small_instance, cluster3):
        base = distributed_partial_median_no_shipping(small_instance, rng=42)
        traced = distributed_partial_median_no_shipping(
            small_instance, rng=42, backend=cluster3, trace=True
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)

    def test_uncertain_kmedian(self, small_uncertain_workload, cluster3):
        base = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        traced = uncertain_partial_kmedian(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            backend=cluster3, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)
        # Its rounds cross as site frames, like every other protocol's.
        assert traced.trace.counter("wire.bytes.site_dispatch") > 0
        assert traced.trace.counter("wire.bytes.site_result") > 0

    def test_center_g(self, small_uncertain_workload, cluster3):
        base = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42
        )
        traced = uncertain_partial_kcenter_g(
            small_uncertain_workload.instance, 3, 6, n_sites=3, seed=42,
            backend=cluster3, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)
        # The per-tau sweeps run fused reduction plans on every runner.
        assert traced.trace.counter("plan.executions") > 0


class TestClusterTimeline:
    @pytest.fixture(scope="class")
    def traced(self, small_workload, cluster3):
        return partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            backend=cluster3, trace=True,
        )

    def test_rpc_spans_cover_all_hosts(self, traced):
        rpc = traced.trace.find_spans("rpc")
        assert {s.tags["host"] for s in rpc} == {0, 1, 2}
        assert all(s.end >= s.start and s.tags["n_bytes"] > 0 for s in rpc)

    def test_runner_spans_rebased_onto_run_timeline(self, traced):
        tracer = traced.trace
        run = tracer.find_spans("run")[0]
        host_spans = [s for s in tracer.spans if s.origin.startswith("host-")]
        assert host_spans
        slack = 1e-6
        for span in host_spans:
            assert run.start - slack <= span.start <= span.end <= run.end + slack
        assert {s.origin for s in host_spans} == {"host-0", "host-1", "host-2"}

    def test_round_report_bytes_equal_wire(self, traced):
        rows = round_report(traced)
        wire = traced.ledger.wire
        per_round_host = wire.bytes_by_round_host()
        for row in rows:
            expected = per_round_host[row["round"]][row["host"]]
            assert row["sent_bytes"] + row["recv_bytes"] == expected
            assert sum(row["bytes_by_kind"].values()) == expected
            # The compression column is raw-over-encoded for this cell.
            assert row["raw_bytes"] >= expected
            assert row["compression"] == pytest.approx(row["raw_bytes"] / expected)
        # Every (round, host) cell of the wire ledger appears in the report.
        assert {(r["round"], r["host"]) for r in rows} >= {
            (rnd, host)
            for rnd, hosts in per_round_host.items()
            for host in hosts
        }

    def test_protocol_summary_reads_the_wire_ledger(self, traced):
        summary = protocol_summary(traced)
        wire = traced.ledger.wire
        assert summary["wire_bytes_ledger"] == wire.total_bytes()
        assert summary["wire_raw_ledger"] == wire.total_raw_bytes()
        assert summary["compression"] >= 1.0

    def test_chrome_export_carries_all_origins(self, traced):
        doc = to_chrome_trace(traced.trace)
        names = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert {"coordinator", "host-0", "host-1", "host-2"} <= names


class TestPlanCounters:
    def test_spilled_run_counts_plan_traffic(self, small_workload, cluster3):
        # A tiny budget forces site cost matrices onto disk shards, which
        # every runner then reads through reduction plans.
        base = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42, memory_budget="8KB"
        )
        traced = partial_kmedian(
            small_workload.points, 3, 15, n_sites=3, seed=42,
            memory_budget="8KB", backend=cluster3, trace=True,
        )
        _assert_same_result(base, traced)
        assert_counters_equal_ledger(traced)
        tracer = traced.trace
        assert tracer.counter("plan.executions") > 0
        assert tracer.counter("plan.tiles") > 0
        assert tracer.counter("blocked.spills") > 0
        summary = protocol_summary(traced)
        assert summary["plan.tiles"] == tracer.counter("plan.tiles")


class TestRunnerTimers:
    def _network(self, n_sites=3):
        points = np.arange(6 * n_sites, dtype=float).reshape(-1, 2)
        metric = EuclideanMetric(points)
        shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
        instance = DistributedInstance.from_partition(metric, shards, 2, 1, "median")
        return StarNetwork(instance)

    @staticmethod
    def _timed_task(ctx, scale):
        with ctx.timer.measure("work"):
            total = float(ctx.site_id) * scale
        ctx.send_to_coordinator("ping", total, words=1)
        return ctx.n_points

    def test_site_timer_keys_match_serial_up_to_cluster_labels(self, cluster3):
        serial_net, cluster_net = self._network(), self._network()
        tasks = lambda: [  # noqa: E731 - tiny local factory
            SiteTask(i, self._timed_task, args=(2.0,)) for i in range(3)
        ]
        serial_net.next_round()
        run_site_tasks(serial_net, tasks())
        cluster_net.next_round()
        run_site_tasks(cluster_net, tasks(), backend=cluster3)
        for serial_site, cluster_site in zip(serial_net.sites, cluster_net.sites):
            serial_keys = set(serial_site.timer.totals)
            cluster_keys = set(cluster_site.timer.totals)
            extra = cluster_keys - serial_keys
            # The runner adds only its own cluster:* labels; everything the
            # task itself timed matches the serial run key-for-key.
            assert {k for k in cluster_keys if not k.startswith("cluster:")} == serial_keys
            assert extra and all(k.startswith("cluster:") for k in extra)
            assert all(cluster_site.timer.totals[k] > 0 for k in extra)
