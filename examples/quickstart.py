"""Quickstart: distributed partial k-median in a dozen lines.

Generates a small point cloud with three clusters and a handful of wild
outliers, runs the 2-round distributed (k, t)-median protocol (Algorithm 1 of
the paper) across four simulated sites, and prints what came back: the chosen
centers, how much was communicated, and how the solution compares with a
single-machine reference.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import partial_kcenter, partial_kmedian
from repro.analysis import evaluate_centers
from repro.baselines import centralized_reference
from repro.data import gaussian_mixture_with_outliers


def main() -> None:
    # A workload with planted structure: 3 clusters, 30 far-away outliers.
    workload = gaussian_mixture_with_outliers(
        n_inliers=600, n_outliers=30, n_clusters=3, separation=12.0, rng=7
    )
    k, t = 3, 30

    # One call: build the metric, split the points over 4 sites, run the
    # 2-round protocol with outlier relaxation epsilon = 0.5.
    result = partial_kmedian(workload.points, k=k, t=t, n_sites=4, epsilon=0.5, seed=7)

    metric = workload.to_metric()
    realized = evaluate_centers(metric, result.centers, result.outlier_budget, objective="median")
    reference = centralized_reference(metric, k, t, objective="median", rng=7)

    print("distributed (k, t)-median — Algorithm 1")
    print(f"  points / sites          : {workload.n_points} / 4")
    print(f"  centers returned        : {result.centers.tolist()}")
    print(f"  rounds                  : {result.rounds}")
    print(f"  words communicated      : {result.total_words:.0f} "
          f"(send-everything would be {workload.n_points * 2})")
    print(f"  outliers excluded       : {len(result.outliers)} (budget {result.outlier_budget:.0f})")
    print(f"  realized cost           : {realized.cost:.1f}")
    print(f"  centralized reference   : {reference.cost:.1f}")
    print(f"  measured approx. ratio  : {realized.cost / reference.cost:.2f}")

    planted = set(np.flatnonzero(workload.outlier_mask).tolist())
    recovered = len(planted & set(result.outliers.tolist()))
    print(f"  planted outliers found  : {recovered}/{len(planted)}")

    choosing_a_backend(workload.points, k, t)
    running_on_a_cluster_backend(workload.points, k, t)
    event_loop_coordinator_and_the_cluster_service(workload.points, k, t)
    fault_tolerance_and_recovery(workload.points, k, t)
    wire_codecs(workload.points, k, t)
    memory_budgets_and_out_of_core_shards(workload.points, k, t)
    fused_plans(workload.points, k, t)
    observability(workload.points, k, t)


def choosing_a_backend(points, k, t) -> None:
    """Choosing a backend.

    Site-local computation is embarrassingly parallel, so every protocol
    accepts ``backend=`` to pick where it runs:

    * ``"serial"`` (default) — one Python loop; zero overhead, right for
      small instances and for debugging.
    * ``"cluster:N"`` — N runner processes, each a simulated host that
      keeps its sites' data and state; true parallelism for the
      Python-heavy local search.  A spec starts a private pool for one run
      and shuts it down afterwards.

    Results are bit-identical across backends for a fixed seed — same
    centers, same cost, same communication words — so the choice is purely
    about wall-clock.  To amortise runner startup across many runs, pass a
    warm pool instead of a name::

        from repro.cluster import ClusterBackend
        with ClusterBackend(n_hosts=4) as pool:
            for seed in range(10):
                partial_kmedian(points, k=3, t=30, seed=seed, backend=pool)
    """
    import time

    from repro.cluster import ClusterBackend

    print("\nchoosing a backend (same seed => identical results)")
    with ClusterBackend(n_hosts=2) as pool:
        # The pool starts its runners on its first run; the second is warm.
        for label, backend in (("serial", "serial"), ("cluster:2", "cluster:2"),
                               ("pool, 1st", pool), ("pool, 2nd", pool)):
            start = time.perf_counter()
            result = partial_kmedian(points, k=k, t=t, n_sites=4, seed=7, backend=backend)
            wall = time.perf_counter() - start
            print(
                f"  backend={label:<10}: cost {result.cost:9.1f}, "
                f"words {result.total_words:6.0f}, wall {wall:.2f}s"
            )


def running_on_a_cluster_backend(points, k, t) -> None:
    """Running on a cluster backend.

    ``backend="cluster:3"`` runs every site on its own long-lived runner
    *subprocess* — one per simulated host, started as a fresh interpreter —
    and ships tasks and payloads over real length-prefixed socket
    connections.  That buys two things the serial backend cannot give:

    * **distributed memory** — a runner inherits nothing, so everything a
      site computes on demonstrably arrived through its socket, and a
      site's view of its points stays *resident* on its runner across
      rounds (shipped once per run, never re-pickled every round; it
      carries no global id, since sites speak local ids and the
      coordinator maps them);
    * **wire-level byte accounting** — the ledger reports the exact bytes
      every frame occupied next to the semantic word counts::

          result = partial_kmedian(points, k=3, t=30, backend="cluster:3")
          summary = result.ledger.summary()
          summary["total_words"]   # identical to backend="serial"
          summary["total_bytes"]   # > 0: real wire traffic, per round too

      The bytes live in the frame ledger (``result.ledger.wire``, per
      round, host and frame kind), counted once per frame.  A message's
      own raw size is its pickled payload,
      ``len(pickle.dumps(message.payload))``, on any backend — which is
      what makes the paper's word counts comparable to byte-level
      transmission schemes.

    Resident state and state digests
    --------------------------------
    Everything that *lives* at a site stays at its site.  The immutable
    half — the site view — is shipped once per run; the **mutable**
    half gets the same treatment: after a site task completes, its
    ``ctx.state`` (for kmedian, the precluster with its cached
    ``n_i x n_i`` cost matrix) stays resident on the runner, and the result
    frame carries only a *digest* — the entry keys, each entry's pickled
    size, and a state epoch — which recovery uses to check a replayed
    copy.  The next round's dispatch ships an epoch token instead of
    re-pickling the dict, so round >= 2 dispatches cost kilobytes where
    they used to cost the whole precluster.

    As in the paper's coordinator model, the coordinator knows only what
    the sites send it: drivers build their results from the sites'
    messages and their tasks' return values, and never read site state.
    On the cluster backend ``Site.state`` is an opaque
    :class:`repro.runtime.ResidentState` handle (resident key, site id,
    epoch); only the site's own next dispatch uses it.  The serial
    backend hands the state dict back; protocol results are identical
    either way.  Without a fault, a run's frames are site dispatches and
    site results (plus runner heartbeats), nothing else.

    Results are bit-identical to ``"serial"`` in every configuration: same
    centers, same cost, same word ledger.  Only ``total_bytes`` (and
    wall-clock) differ.
    """
    print("\ncluster backend (same seed => identical results, now with bytes)")
    serial = partial_kmedian(points, k=k, t=t, n_sites=3, seed=7)
    clustered = partial_kmedian(points, k=k, t=t, n_sites=3, seed=7, backend="cluster:3")
    assert clustered.cost == serial.cost
    assert clustered.total_words == serial.total_words
    for label, result in (("serial", serial), ("cluster:3", clustered)):
        summary = result.ledger.summary()
        print(
            f"  backend={label:<10}: cost {result.cost:9.1f}, "
            f"words {summary['total_words']:6.0f}, bytes {summary['total_bytes']:8d}"
        )
    # Resident state in numbers: round 2's dispatch is an epoch token plus
    # the allocation inbox — the preclusters never left their runners.
    dispatch = {}
    for rec in clustered.ledger.wire.records:
        if rec.kind == "site_dispatch":
            dispatch[rec.round_index] = dispatch.get(rec.round_index, 0) + rec.n_bytes
    print(
        f"  dispatch bytes by round: round1={dispatch.get(1, 0)} (shard+metric), "
        f"round2={dispatch.get(2, 0)} (state epoch token)"
    )


def event_loop_coordinator_and_the_cluster_service(points, k, t) -> None:
    """Event-loop coordinator and the cluster service.

    Under the hood the coordinator no longer runs reader/sender threads
    per host: one selector-based event loop (``repro.cluster.loop``)
    multiplexes every runner channel through non-blocking
    ``FrameChannel`` state machines, so a 3-host and a 300-host pool
    cost the same single coordinator thread.  That is what makes the
    pool *shareable* — and ``repro.cluster.ClusterService`` puts a job
    queue on top of it::

        from repro.cluster import ClusterService

        with ClusterService(n_hosts=3, capacity="256MB") as service:
            job = service.submit(
                lambda backend: partial_kmedian(
                    points, k=3, t=30, seed=7, backend=backend),
                memory_budget="64MB", label="nightly",
            )
            result = job.result()

    * ``submit(fn, ...)`` queues a job and returns a ``ClusterJob``
      immediately; once admitted, ``fn`` receives the job's backend view
      of the shared warm pool.  ``checkout()`` is the blocking variant
      that hands the backend straight back.
    * **Admission control** is FIFO over ``memory_budget``: a job is
      admitted when its budget fits into the remaining ``capacity``
      (same grammar as the blocked-evaluation budgets — bytes, or
      ``"64MB"``-style strings).  A job bigger than the whole capacity
      runs once the pool is otherwise idle, so oversized work degrades
      to serial instead of deadlocking.
    * **Isolation is total**: a run owns what the pool holds for it.
      Its runner-resident site state ends with the run, and each
      heartbeat goes on the books of the frame its runner is executing.
      Each job's result — centers, cost, word ledger, *and* its private
      wire ledger — is bit-identical to the same run on a standalone
      pool, no matter what runs next to it.
    * ``REPRO_CLUSTER_SERVICE=1`` routes every ``backend="cluster:N"``
      spec through a process-wide shared service (a ``"service"``
      backend spec is also registered), which is how CI runs the whole
      cluster suite against one shared pool.

    Throughput and p50/p95 job latency at 1, 4 and 16 queued jobs are
    benchmarked in ``benchmarks/BENCH_service_jobs.json``.
    """
    from repro.cluster import ClusterService

    print("\ncluster service (concurrent jobs, one shared pool, same results)")
    serial = partial_kmedian(points, k=k, t=t, n_sites=3, seed=7)
    with ClusterService(n_hosts=2, capacity="256MB") as service:
        jobs = [
            service.submit(
                lambda backend: partial_kmedian(
                    points, k=k, t=t, n_sites=3, seed=7, backend=backend
                ),
                memory_budget="32MB",
                label=f"job{i}",
            )
            for i in range(3)
        ]
        results = [job.result(timeout=300) for job in jobs]
    for job, result in zip(jobs, results):
        assert result.cost == serial.cost
        assert result.ledger.total_words() == serial.ledger.total_words()
        print(
            f"  {job.label}: cost {result.cost:9.1f}, "
            f"words {result.ledger.total_words():6.0f}, "
            f"bytes {result.ledger.summary()['total_bytes']:8d}  == serial"
        )


def fault_tolerance_and_recovery(points, k, t) -> None:
    """Fault tolerance and recovery.

    Real runners die.  By default the cluster backend is *fail fast* (a
    zero retry budget) — the first runner death raises a ``DeadHostError``
    naming the host, its in-flight tasks and the last committed state epoch
    per site.  Building the pool with a ``RetryPolicy`` makes rounds fault
    tolerant instead; the policy belongs to the pool, not to a run::

        from repro.cluster import ClusterBackend, RetryPolicy

        result = partial_kmedian(
            points, k=3, t=30,
            backend=ClusterBackend(
                n_hosts=3,
                retry=RetryPolicy(max_retries=1, heartbeat_timeout=5.0),
            ),
        )

    A death is detected promptly (socket EOF / send error) or, for a runner
    that is wedged rather than dead, by heartbeat silence: with
    ``heartbeat_timeout`` set, runners send unsolicited liveness frames and
    the coordinator declares a host dead when frames stop while work is in
    flight.  Recovery replays exactly the work the death interrupted, when
    it is needed — a site task in flight on the dead host at once, a site
    whose state sat idle there at its next dispatch:

    1. **re-pins** the site to a survivor — a pure function of the site id
       and the set of dead hosts, so every run makes the same choice;
    2. **replays** the site's dispatch log from record 0 on its new host
       (record 0 ships the full state + the sticky site view; later records
       re-apply each round's task with its recorded RNG stream and inbox),
       verifying the rebuilt state against the original state digests, and
       starting over elsewhere if the new host dies too;
    3. **resolves** the in-flight site task with its replayed last record.

    The run then continues — **bit-identically**: same centers, cost and
    word ledger as a failure-free run.  Only the wire ledger shows the
    recovery, honestly accounted: replay traffic under ``replay_*`` frame
    kinds, plus one ``RecoveryEvent`` (host, round, reason, this run's
    re-pin map and replay frames) per death that interrupted the run, in
    ``result.ledger.wire.summary()["recovery"]``, and ``recovery.*``
    counters on a traced run.  A death that interrupts no run (one after a
    run's last reply) shows only in the pool's ``dead_hosts()``.  When the
    budget is exhausted (``max_retries`` host deaths already recovered),
    the next death that interrupts work is a clean ``DeadHostError`` with
    full context.

    Deterministic fault injection — the harness the recovery tests use —
    is available to drills too: a ``FaultPlan`` (or the ``REPRO_FAULT_PLAN``
    environment variable) kills, stalls, disconnects or delays a chosen
    host before/after a chosen dispatch of a chosen round.
    """
    from repro.cluster import ClusterBackend, FaultPlan, RetryPolicy

    print("\nfault tolerance (kill host 1 mid-round, recover, same result)")
    baseline = partial_kmedian(points, k=k, t=t, n_sites=4, seed=7)
    backend = ClusterBackend(
        n_hosts=3,
        retry=RetryPolicy(max_retries=1),
        fault_plan=FaultPlan.parse("kill host=1 round=1 task=1 when=after"),
    )
    try:
        result = partial_kmedian(points, k=k, t=t, n_sites=4, seed=7, backend=backend)
    finally:
        backend.close()
    event = result.ledger.wire.summary()["recovery"][0]
    replay_bytes = sum(
        n for kind, n in result.ledger.wire.bytes_by_kind().items()
        if kind.startswith("replay")
    )
    print(f"  identical to no-failure run : {result.cost == baseline.cost}")
    print(f"  host {event['host']} re-pinned             : {event['repin']}")
    print(f"  replayed frames / bytes     : {event['replayed_frames']} / {replay_bytes}")


def wire_codecs(points, k, t) -> None:
    """Wire codecs.

    The cluster backend's wire path is two composable layers, and each one
    shows up separately in the accounting:

    * **Codec frames** — every frame is pickled (protocol 5, numpy buffers
      out of band, so decode is zero-copy) and its body optionally
      compressed.  The default :class:`repro.cluster.WirePolicy`
      compresses site frames with stdlib zlib and leaves heartbeat frames
      uncompressed.  ``REPRO_WIRE_CODEC=none|zlib`` overrides the
      compressible kinds; the override never changes results, only
      bytes.  Compression is kept
      per frame only when it shrinks, so incompressible payloads never
      grow.
    * **Honest accounting** — every wire record carries the raw/encoded
      pair, so nothing the codecs save is hidden::

          result.ledger.wire.total_bytes()        # what crossed the sockets
          result.ledger.wire.total_raw_bytes()    # what it would've cost raw
          result.ledger.wire.compression_by_kind()  # the benchmark column

      Traced runs double-count independently (``wire.bytes*`` raw,
      ``wire.bytes_encoded*`` encoded) and ``protocol_summary`` checks both
      pairs bit for bit.

    Results are bit-identical under every codec; only bytes change.
    """
    print("\nwire codecs (raw vs encoded bytes, same results)")
    result = partial_kmedian(points, k=k, t=t, n_sites=3, seed=7, backend="cluster:3")
    wire = result.ledger.wire
    print(
        f"  encoded {wire.total_bytes()} B on the wire, "
        f"{wire.total_raw_bytes()} B raw "
        f"({wire.compression_ratio():.2f}x compression)"
    )
    for kind, ratio in sorted(wire.compression_by_kind().items()):
        print(f"    {kind:<20} {ratio:5.2f}x")


def memory_budgets_and_out_of_core_shards(points, k, t) -> None:
    """Memory budgets and out-of-core shards.

    Site-local preclustering materialises an ``n_i x n_i`` cost matrix, so
    large shards OOM long before communication matters.  Every protocol
    accepts ``memory_budget=`` (bytes, or a string like ``"64MB"``) to cap
    any single distance/cost block a party holds:

    * reductions (diameter, witness sweeps, nearest-candidate attachment)
      run blocked — only one tile of at most the budget exists at a time;
    * site cost matrices larger than the budget are streamed from
      disk-backed ``np.memmap`` shards in a per-run scratch directory
      (removed when the run completes), so instances whose dense matrices
      exceed RAM still run;
    * a shard stays on the site that built it: on a cluster pool it is
      part of the site's runner-resident state, never sent anywhere.

    Results are bit-identical for every budget — same centers, same cost,
    same communication words — so the knob trades only wall-clock for
    memory.  It composes freely with ``backend=``::

        partial_kmedian(points, k=3, t=30, n_sites=8,
                        backend="cluster:4", memory_budget="256MB")
    """
    print("\nmemory budgets (same seed => identical results)")
    for budget in (None, "1MB", "64KB"):
        result = partial_kmedian(
            points, k=k, t=t, n_sites=4, seed=7, memory_budget=budget
        )
        storage = result.metadata.get("cost_matrix_storage")
        label = "dense" if budget is None else budget
        print(
            f"  memory_budget={label!s:<6}: cost {result.cost:9.1f}, "
            f"words {result.total_words:6.0f}, site storage {storage}"
        )


def fused_plans(points, k, t) -> None:
    """Fused plans.

    A memory budget makes every reduction *stream*, and streaming twice
    costs twice.  ``repro.metrics.plan.ReductionPlan`` fuses several
    reductions over the same cost matrix into ONE streaming pass — each
    tile is loaded exactly once and handed to every registered op::

        from repro.metrics import ReductionPlan

        plan = ReductionPlan(cost_matrix, memory_budget="64MB")
        h_max   = plan.add_max()
        h_count = plan.add_count_within([r1, r2, r3], weights=w)
        h_near  = plan.add_argmin_per_row()
        plan.execute()                  # one pass, cache-sized tiles
        h_max.value, h_count.value      # bitwise == the standalone calls

    Tiles are sized by one rule, ``effective_tile_bytes(memory_budget)``:
    one dense tile without a budget, at most
    ``min(memory_budget, DEFAULT_CACHE_TARGET)`` bytes with one.  A plan
    with a ``count_within`` op streams column strips, so the Fortran-order
    summation — and therefore the bits — never depends on the tiling.  The
    k-center coordinator sums its gains the same way, but by facility: it
    reads a facility-major copy of its matrix (or, under a budget too small
    for the copy, facility strips, one read seeding a whole batch of radius
    guesses), and each greedy then only re-reads newly covered rows,
    instead of re-streaming the matrix ``k`` times per guess.  Results are
    bit-identical for every budget; the budget trades only wall-clock for
    memory.
    """
    print("\nfused plans (spilled k-center sites)")
    result = partial_kcenter(
        points, k=k, t=t, n_sites=4, seed=7, memory_budget="64KB"
    )
    print(
        f"  memory_budget=64KB: cost {result.cost:9.1f}, "
        f"words {result.total_words:6.0f}"
    )


def observability(points, k, t) -> None:
    """Observability.

    Every protocol accepts ``trace=True``: the run records spans
    (coordinator phases, per-site tasks, cluster rpcs), events and counters
    onto one coordinator timeline — runner-side buffers are shipped back in
    the result frames and rebased into the rpc windows that carried them —
    and attaches the :class:`repro.obs.Tracer` to ``result.trace``.  The
    default ``trace=False`` costs nothing: the null tracer allocates no
    per-task objects and results stay bit-identical either way.

    Three consumers come in the box::

        from repro.obs import (
            render_round_report, protocol_summary, write_chrome_trace,
        )

        result = partial_kmedian(points, k=3, t=30, n_sites=3,
                                 backend="cluster:3", trace=True)
        print(render_round_report(result))   # per (round, host): tasks,
                                             # task/rpc seconds, sent/recv
                                             # bytes, bytes by frame kind
        protocol_summary(result)             # words, wire bytes per word,
                                             # cache/plan/state counters
        write_chrome_trace(result.trace, "trace.json")  # open in
                                             # chrome://tracing or
                                             # https://ui.perfetto.dev

    On a cluster backend the wire ledger mirrors every frame it records into
    the tracer's ``wire.bytes*`` counters (raw and encoded, per direction
    and per frame kind), so the report sees the bytes too.  Counters
    surface what the lower layers did: ``cluster.resident_hit/miss``
    (runner-resident shard+metric), ``cluster.state_token/ship`` (state
    referenced by epoch or shipped whole), ``plan.executions``/
    ``plan.tiles`` (fused passes), ``blocked.spills``.
    """
    from repro.obs import protocol_summary, render_round_report

    print("\nobservability (trace=True attaches a run timeline)")
    result = partial_kmedian(points, k=k, t=t, n_sites=3, seed=7, trace=True)
    summary = protocol_summary(result)
    print(
        f"  spans {summary['n_spans']}, rounds {summary['rounds']}, "
        f"words {summary['total_words']:.0f}"
    )
    print("\n".join("  " + line for line in render_round_report(result).splitlines()))


if __name__ == "__main__":
    main()
