"""Pluggable parallel execution backends for site-local computation.

The coordinator model is embarrassingly parallel across sites: in every
round each site computes its summary (preclustering profile, Gonzalez
traversal, aggregated distances) independently, and only the coordinator
steps synchronise.  This subsystem separates *what* a site computes from
*where* it runs:

* :mod:`repro.runtime.backends` — the execution strategies.
  :class:`SerialBackend` (the reference loop), :class:`ThreadPoolBackend`
  (shared memory, GIL-releasing numpy kernels run concurrently) and
  :class:`ProcessPoolBackend` (true parallelism; everything crosses the
  boundary through pickle).
* :mod:`repro.runtime.tasks` — :class:`SiteTask` / :class:`SiteContext` and
  the scheduler :func:`run_site_tasks`, which fans a round's site tasks out
  to a backend, joins deterministically in site order, and merges state,
  timers, RNG streams and ledger charges back into the
  :class:`~repro.distributed.network.StarNetwork`.
* :mod:`repro.runtime.state` — the *state-ownership contract*: after a
  round joins, ``Site.state`` is a mutable mapping, not necessarily the
  dict itself.  In-process backends hand the dict back; the cluster
  backend keeps mutable state resident on the runner that produced it and
  hands back a :class:`~repro.runtime.state.RemoteStateProxy` that faults
  entries over the wire only on explicit access (``pull_state()`` /
  ``evict()`` for bulk control).  Protocol results are bit-identical
  either way.

Every distributed protocol accepts ``backend=`` (documented with the other
run options on :func:`repro.core.run.protocol_run`) and is bit-identical
across backends for a fixed seed: same centers, same cost, same ledger word
counts.  New backends plug in through
:func:`~repro.runtime.backends.register_backend`.  Pass an instance to
share one warm pool across many runs::

    from repro import partial_kmedian
    from repro.runtime import ProcessPoolBackend

    with ProcessPoolBackend(max_workers=4) as pool:
        for seed in range(10):
            partial_kmedian(points, k=3, t=30, seed=seed, backend=pool)
"""

from repro.runtime.backends import (
    BackendFactory,
    BackendLike,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    available_backends,
    backend_scope,
    default_worker_count,
    effective_cpu_count,
    register_backend,
    resolve_backend,
)
from repro.runtime.state import (
    RemoteStateProxy,
    materialize_state,
    snapshot_site_state,
)
from repro.runtime.tasks import (
    Outgoing,
    SiteContext,
    SiteTask,
    SiteTaskResult,
    run_site_tasks,
)

__all__ = [
    "BackendFactory",
    "BackendLike",
    "available_backends",
    "register_backend",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "backend_scope",
    "default_worker_count",
    "effective_cpu_count",
    "resolve_backend",
    "RemoteStateProxy",
    "materialize_state",
    "snapshot_site_state",
    "Outgoing",
    "SiteContext",
    "SiteTask",
    "SiteTaskResult",
    "run_site_tasks",
]
