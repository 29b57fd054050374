"""Pluggable parallel execution backends for site-local computation.

The coordinator model is embarrassingly parallel across sites: in every
round each site computes its summary (preclustering profile, Gonzalez
traversal, aggregated distances) independently, and only the coordinator
steps synchronise.  This subsystem separates *what* a site computes from
*where* it runs:

* :mod:`repro.runtime.backends` — the execution strategies, each taking
  a round's ``(SiteTask, SiteContext)`` pairs and returning one
  :class:`SiteTaskResult` future per site: :class:`SerialBackend` (the
  reference loop) and the cluster backend
  (:class:`~repro.cluster.backend.ClusterBackend`, spec ``"cluster"``),
  one runner process per simulated host over real sockets, which is where
  parallel runs go.
* :mod:`repro.runtime.tasks` — :class:`SiteTask` / :class:`SiteContext` and
  the scheduler :func:`run_site_tasks`, which fans a round's site tasks out
  to a backend, joins deterministically in site order, and merges state,
  timers, RNG streams and ledger charges back into the
  :class:`~repro.distributed.network.StarNetwork`.
* :mod:`repro.runtime.state` — who holds a site's state between rounds.
  The serial backend hands the state dict back; the cluster backend keeps
  it resident on the runner that produced it and hands back an opaque
  :class:`~repro.runtime.state.ResidentState` handle.  The coordinator
  reads no site state either way: drivers learn what they need from the
  sites' messages and their tasks' return values.

Every distributed protocol accepts ``backend=`` (documented with the other
run options on :func:`repro.core.run.protocol_run`) and is bit-identical
across backends for a fixed seed: same centers, same cost, same ledger word
counts.  Pass an instance to share one warm pool across many runs::

    from repro import partial_kmedian
    from repro.cluster import ClusterBackend

    with ClusterBackend(n_hosts=4) as pool:
        for seed in range(10):
            partial_kmedian(points, k=3, t=30, seed=seed, backend=pool)

A run's site state lives on the pool while the run does: each driver
calls ``pool.end_run(network)`` as it ends.  A network driven by hand
through :func:`run_site_tasks` keeps it until ``pool.end_run(network)``
or ``pool.close()``.
"""

from repro.runtime.backends import (
    BackendLike,
    ExecutionBackend,
    SerialBackend,
    backend_scope,
    effective_cpu_count,
    resolve_backend,
)
from repro.runtime.state import ResidentState
from repro.runtime.tasks import (
    Outgoing,
    SiteContext,
    SiteTask,
    SiteTaskResult,
    run_site_tasks,
)

__all__ = [
    "BackendLike",
    "ExecutionBackend",
    "SerialBackend",
    "backend_scope",
    "effective_cpu_count",
    "resolve_backend",
    "ResidentState",
    "Outgoing",
    "SiteContext",
    "SiteTask",
    "SiteTaskResult",
    "run_site_tasks",
]
