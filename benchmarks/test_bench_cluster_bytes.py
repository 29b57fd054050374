"""Wire bytes vs semantic words across the five protocols on the cluster backend.

The paper's communication claims are stated in *words*; the cluster backend
makes them physical by shipping every payload over a real socket and
recording the exact frame bytes.  This benchmark runs each protocol once on
``"serial"`` (words, zero bytes) and once on a shared 2-host cluster
backend, asserts the word ledgers are identical, and records the
bytes-per-word ratio — the honest conversion factor between the paper's
accounting and what a wire would actually carry (pickle framing, dtype
width, dispatch overhead and all).

Since the wire path grew codec frames, every row carries the raw/encoded
split: ``total_bytes``/``bytes_per_word`` are what physically crossed the
sockets (compressed frames), ``total_raw_bytes``/``raw_bytes_per_word``
what the same frames would have cost uncompressed, and ``compression``
their ratio — the benchmark's compression column.

Wall-clock is recorded through pytest-benchmark but never asserted (the CI
box is 1-core and the runners are subprocesses).  Byte counts, by contrast,
are reproducible — raw frame sizes don't depend on timing, and encoded
sizes wobble only by the per-run uuid resident keys riding inside
compressed frames — so the committed ``BENCH_cluster_bytes.json`` doubles
as a regression baseline: the benchmark fails if any protocol's measured
bytes-per-word (encoded, and raw when the artifact records it) exceeds 2x
the committed value (the headroom covers pickle/version drift, not a
reintroduced state round-trip, which costs 10-20x).  The guard runs under
``--benchmark-disable`` too, which is how CI executes it.

The JSON artifact is only (re)written when ``REPRO_BENCH_ARTIFACTS=1`` is
set::

    REPRO_BENCH_ARTIFACTS=1 pytest benchmarks/test_bench_cluster_bytes.py
"""

import json
import os

import numpy as np
import pytest

from benchmarks.harness import (
    BENCH_ARTIFACT_DIR,
    record_rows,
    write_bench_json,
    write_trace_json,
)
from repro import (
    partial_kcenter,
    partial_kmedian,
    uncertain_partial_kcenter_g,
    uncertain_partial_kmedian,
)
from repro.cluster import ClusterBackend, FaultPlan, RetryPolicy
from repro.core.algorithm1_modified import distributed_partial_median_no_shipping
from repro.data import gaussian_mixture_with_outliers, uncertain_nodes_from_mixture
from repro.distributed import DistributedInstance, partition_balanced

K, T = 3, 15
N_SITES = 3
N_HOSTS = 2  # deliberately != n_sites: placement is site_id % n_hosts

#: Regression headroom over the committed per-protocol bytes-per-word
#: baseline.  Byte counts are deterministic; 2x absorbs pickle-format and
#: minor frame-layout drift while still catching a reintroduced site-state
#: round-trip (a 10-20x blow-up for kmedian / no_shipping).
BASELINE_HEADROOM = 2.0

#: Floor on the raw/encoded ratio of every protocol's site result frames:
#: the codec must earn its column where it runs.
SITE_RESULT_COMPRESSION_FLOOR = 1.5


def _committed_baseline() -> dict:
    """protocol -> committed benchmark row (the regression baseline)."""
    path = os.path.join(BENCH_ARTIFACT_DIR, "BENCH_cluster_bytes.json")
    with open(path) as fh:
        payload = json.load(fh)
    return {row["protocol"]: row for row in payload["rows"]}


@pytest.fixture(scope="module")
def cluster_pool():
    backend = ClusterBackend(n_hosts=N_HOSTS)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def cluster_workload():
    return gaussian_mixture_with_outliers(
        n_inliers=300, n_outliers=15, n_clusters=3, dim=2, separation=12.0, rng=20170727
    )


@pytest.fixture(scope="module")
def cluster_uncertain_workload():
    return uncertain_nodes_from_mixture(
        n_nodes=54, n_outlier_nodes=6, n_clusters=3, ground_size=200, support_size=5,
        rng=20170727,
    )


def _no_shipping_runner(workload):
    metric = workload.to_metric()
    shards = partition_balanced(workload.n_points, N_SITES, rng=7)
    instance = DistributedInstance.from_partition(metric, shards, K, T, "median")

    def run(backend, **kwargs):
        return distributed_partial_median_no_shipping(
            instance, rng=42, backend=backend, **kwargs
        )

    return run


def _protocol_runners(workload, uncertain_workload):
    return [
        ("kmedian", lambda backend, **kw: partial_kmedian(
            workload.points, K, T, n_sites=N_SITES, seed=42, backend=backend, **kw)),
        ("kcenter", lambda backend, **kw: partial_kcenter(
            workload.points, K, T, n_sites=N_SITES, seed=42, backend=backend, **kw)),
        ("no_shipping", _no_shipping_runner(workload)),
        ("uncertain_kmedian", lambda backend, **kw: uncertain_partial_kmedian(
            uncertain_workload.instance, K, 6, n_sites=N_SITES, seed=42, backend=backend, **kw)),
        ("center_g", lambda backend, **kw: uncertain_partial_kcenter_g(
            uncertain_workload.instance, K, 6, n_sites=N_SITES, seed=42, backend=backend, **kw)),
    ]


@pytest.mark.cluster
@pytest.mark.paper_experiment("cluster_bytes")
def test_cluster_bytes_per_word(
    benchmark, cluster_pool, cluster_workload, cluster_uncertain_workload
):
    from repro.obs import SUMMARY_COUNTERS

    runners = _protocol_runners(cluster_workload, cluster_uncertain_workload)

    rows = []
    detail = {}
    trace_counters = {}
    for name, run in runners:
        base = run("serial")
        clustered = run(cluster_pool)
        # One extra traced run per protocol: the byte measurements above
        # stay untraced (the committed baseline's frames), while the trace
        # supplies the cache/plan/state counters the report layer surfaces.
        traced = run(cluster_pool, trace=True)
        # The trace's byte counters mirror its own run's wire ledger: raw
        # sizes in wire.bytes, what crossed the sockets in wire.bytes_encoded.
        traced_wire = traced.ledger.wire
        assert traced.trace.counter("wire.bytes") == traced_wire.total_raw_bytes(), name
        assert traced.trace.counter("wire.bytes_encoded") == traced_wire.total_bytes(), name
        trace_counters[name] = {
            counter: traced.trace.counter(counter) for counter in SUMMARY_COUNTERS
        }
        if name == "kmedian":
            kmedian_base = base
        # The wire never changes the semantics: identical word ledgers.
        assert base.ledger.total_words() == clustered.ledger.total_words(), name
        assert base.ledger.words_by_kind() == clustered.ledger.words_by_kind(), name
        assert base.ledger.total_bytes() == 0, name
        words = clustered.ledger.total_words()
        n_bytes = clustered.ledger.total_bytes()
        raw_bytes = clustered.ledger.wire.total_raw_bytes()
        assert 0 < n_bytes <= raw_bytes, name
        rows.append(
            {
                "protocol": name,
                "total_words": words,
                "total_bytes": n_bytes,
                "total_raw_bytes": raw_bytes,
                "bytes_per_word": n_bytes / max(words, 1e-12),
                "raw_bytes_per_word": raw_bytes / max(words, 1e-12),
                "compression": raw_bytes / n_bytes,
            }
        )
        detail[name] = {
            "bytes_by_round": clustered.ledger.bytes_by_round(),
            "wire": clustered.ledger.wire.summary(),
            "trace_counters": trace_counters[name],
        }

    # The committed artifact is the regression baseline (read *before* any
    # REPRO_BENCH_ARTIFACTS rewrite): a protocol whose measured ratio blows
    # past 2x the committed value means untracked payloads are riding the
    # wire again — exactly how the state round-trip bug would resurface.
    baseline = _committed_baseline()
    for row in rows:
        committed = baseline.get(row["protocol"])
        if committed is None:
            continue
        for column in ("bytes_per_word", "raw_bytes_per_word"):
            ceiling = committed.get(column)
            if ceiling is None:
                continue  # pre-codec artifacts carry only the encoded column
            assert row[column] <= BASELINE_HEADROOM * float(ceiling), (
                f"{row['protocol']}: {row[column]:.0f} {column} exceeds "
                f"{BASELINE_HEADROOM}x the committed baseline ({float(ceiling):.0f})"
            )

    measured = {row["protocol"]: row for row in rows}
    # center_g's sites hold their own nodes and keep their per-tau state
    # resident, so the protocol that used to cost ~2,800 bytes/word must
    # price within the same band as kcenter's plain site rounds.
    assert (
        measured["center_g"]["bytes_per_word"]
        <= 2.0 * measured["kcenter"]["bytes_per_word"]
    ), "center_g's site residency regressed: its bytes/word left kcenter's band"
    # And the codec layer must actually earn its column: site result frames
    # compress >= 1.5x.  Each payload rides its result frame once, so zlib
    # has no duplicate to fold.
    for name, kind in (
        ("kmedian", "site_result"),
        ("kcenter", "site_result"),
        ("no_shipping", "site_result"),
        ("center_g", "site_result"),
    ):
        ratio = detail[name]["wire"]["compression_by_kind"][kind]
        assert ratio >= SITE_RESULT_COMPRESSION_FLOOR, (
            f"{name}: {kind} frames compress only {ratio:.2f}x "
            f"(expected >= {SITE_RESULT_COMPRESSION_FLOOR}x)"
        )

    # One fault-injected traced kmedian run on its own pool: a host dies
    # mid-round and recovery replays it, so the trace artifact records
    # recovery cost (replay bytes, repinned sites, digest checks) next to
    # the regular wire story — and proves the recovered run still matches
    # the failure-free one bit for bit.
    fault_plan = "kill host=1 round=1 task=1 when=after"
    fault_pool = ClusterBackend(
        n_hosts=N_HOSTS,
        retry=RetryPolicy(max_retries=1),
        fault_plan=FaultPlan.parse(fault_plan),
    )
    try:
        recovered = runners[0][1](fault_pool, trace=True)
    finally:
        fault_pool.close()
    assert recovered.cost == kmedian_base.cost
    assert recovered.ledger.total_words() == kmedian_base.ledger.total_words()
    assert recovered.trace.counter("recovery.host_failures") == 1.0
    assert recovered.trace.counter("recovery.replay_bytes") > 0
    recovery_counters = {
        counter: recovered.trace.counter(counter) for counter in SUMMARY_COUNTERS
    }
    traced_tracer = recovered.trace

    # Time one representative cluster run (pool already warm).
    benchmark.pedantic(lambda: runners[0][1](cluster_pool), rounds=1, iterations=1)

    record_rows(
        benchmark,
        "cluster_bytes_per_word",
        rows,
        columns=["protocol", "total_words", "total_bytes", "total_raw_bytes",
                 "compression", "bytes_per_word", "raw_bytes_per_word"],
        title="wire bytes vs semantic words (cluster backend, 2 hosts)",
    )

    if os.environ.get("REPRO_BENCH_ARTIFACTS") != "1":
        return
    path = write_bench_json(
        "BENCH_cluster_bytes.json",
        {
            "experiment": "cluster_bytes_per_word",
            "workload": {
                "n_points": int(cluster_workload.n_points),
                "n_nodes": int(cluster_uncertain_workload.instance.n_nodes),
                "k": K, "t": T, "n_sites": N_SITES, "n_hosts": N_HOSTS,
            },
            "rows": rows,
            "detail": detail,
            "recovery": {
                "fault_plan": fault_plan,
                "trace_counters": recovery_counters,
            },
        },
    )
    benchmark.extra_info["artifact"] = path
    trace_path = write_trace_json("BENCH_cluster_trace.json", traced_tracer)
    benchmark.extra_info["trace_artifact"] = trace_path


def _witness_round_task(ctx):
    """A do-nothing round: isolates the fixed per-round dispatch cost."""
    ctx.send_to_coordinator("witness", 0.0, words=1)


@pytest.mark.cluster
@pytest.mark.paper_experiment("cluster_bytes")
def test_resident_state_amortises_repeat_rounds(benchmark, cluster_pool, cluster_workload):
    """The metric is shipped once, not once per round.

    Two identical no-op rounds over the same network: round 1 pays for the
    sticky half (the site view), round 2 reuses the runner-resident
    copy and ships only the per-round scraps.  The measured dispatch ratio
    is the amortisation a multi-round protocol gets for free.
    """
    from repro.distributed.network import StarNetwork
    from repro.runtime import SiteTask, run_site_tasks

    metric = cluster_workload.to_metric()
    shards = partition_balanced(cluster_workload.n_points, N_SITES, rng=7)
    instance = DistributedInstance.from_partition(metric, shards, K, T, "median")

    def two_rounds():
        network = StarNetwork(instance)
        for _ in range(2):
            network.next_round()
            run_site_tasks(
                network,
                [SiteTask(i, _witness_round_task) for i in range(N_SITES)],
                backend=cluster_pool,
            )
        cluster_pool.end_run(network)
        return network

    network = benchmark.pedantic(two_rounds, rounds=1, iterations=1)
    dispatch = {}
    for rec in network.ledger.wire.records:
        if rec.kind == "site_dispatch":
            dispatch[rec.round_index] = dispatch.get(rec.round_index, 0) + rec.n_bytes
    assert 0 < dispatch[2] < dispatch[1]
    benchmark.extra_info["dispatch_bytes_by_round"] = {
        str(r): int(v) for r, v in sorted(dispatch.items())
    }
    benchmark.extra_info["resident_saving_ratio"] = dispatch[1] / dispatch[2]
