"""The run harness shared by the five protocol drivers.

Every protocol of the paper has the same two-round star-network shape, and
every driver needs the same execution scaffolding around its rounds: a
scratch directory for spilled cost shards, the run's tracer, a root ``run``
span, and an execution backend.
:func:`protocol_run` owns all of it, and its signature and docstring are
the one place the run options are declared and documented.  Drivers keep
only their algorithm parameters and forward ``**options`` unchanged, so an
unknown option name raises ``TypeError`` here.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.metrics.blocked import MemoryBudgetLike, resolve_memory_budget, shard_scratch
from repro.obs.trace import TraceLike, resolve_tracer, trace_run
from repro.runtime.backends import BackendLike, ExecutionBackend, backend_scope


class ProtocolRun:
    """What a driver reads from an open :func:`protocol_run`.

    ``tracer`` is the run's tracer (the shared null tracer when untraced)
    and ``trace`` the value for ``result.trace``: the same tracer, or
    ``None`` when untraced.  ``memory_budget`` is the resolved byte cap and
    ``workdir`` the scratch directory spilled shards go to (``None`` when
    there is no budget).
    """

    def __init__(
        self,
        tracer: Any,
        memory_budget: Optional[int],
        workdir: Optional[str],
        backend: BackendLike,
    ):
        self.tracer = tracer
        self.trace = tracer if tracer.enabled else None
        self.memory_budget = memory_budget
        self.workdir = workdir
        self._backend = backend

    def local_kwargs(self, local_solver_kwargs: Optional[dict]) -> dict:
        """Site-solver kwargs: the caller's, defaulting the memory budget."""
        kwargs = dict(local_solver_kwargs or {})
        if self.memory_budget is not None:
            kwargs.setdefault("memory_budget", self.memory_budget)
        return kwargs

    @contextmanager
    def backend(self, network) -> Iterator[ExecutionBackend]:
        """Open the execution backend for the site rounds of ``network``.

        On exit, failed runs included, the backend ends the network's run
        (:meth:`~repro.runtime.backends.ExecutionBackend.end_run`), so a
        caller's warm pool keeps nothing of it.  Drivers close it before
        the coordinator's final solve.
        """
        with backend_scope(self._backend) as backend:
            try:
                yield backend
            finally:
                backend.end_run(network)


@contextmanager
def protocol_run(
    algorithm: str,
    objective: str,
    *,
    backend: BackendLike = None,
    memory_budget: MemoryBudgetLike = None,
    trace: TraceLike = False,
) -> Iterator[ProtocolRun]:
    """Open the scopes of one protocol run and yield a :class:`ProtocolRun`.

    ``algorithm`` and ``objective`` tag the root ``run`` span.  Scopes open
    in this order and close in reverse: the shard scratch directory, then
    the root ``run`` span.  The execution backend is the innermost scope,
    opened with :meth:`ProtocolRun.backend`.

    Options
    -------
    No option changes a result: centers, cost and ledger word counts are
    bit-identical for every setting of every option.

    backend:
        Where the per-site phases run: ``None``/``"serial"`` (default),
        ``"cluster"`` or ``"cluster:N"`` (a private pool of one runner
        process per host for this run, payloads over real sockets in
        byte-accounted frames), or an
        :class:`~repro.runtime.backends.ExecutionBackend` instance, which
        is left open so one warm pool (a
        :class:`~repro.cluster.backend.ClusterBackend`) can serve many
        runs.  On the cluster
        backend a site's shard, metric and mutable round state stay on its
        runner between rounds; only digests and epoch tokens cross the
        wire, and the coordinator reads nothing but the sites' messages
        and task return values (see :mod:`repro.runtime.state`).
    memory_budget:
        Byte cap (int or ``"64MB"``-style string) on any single distance or
        cost block a party materialises.  Larger cost matrices stream from
        disk shards in a per-run scratch directory that is removed when the
        run ends.  ``None`` (default) keeps the dense path.
    trace:
        ``True`` records spans, events and counters of the coordinator and
        the runners on one timeline, on a :class:`~repro.obs.trace.Tracer`
        attached to the result as ``result.trace`` (render it with
        :func:`repro.obs.render_round_report`, export it with
        :func:`repro.obs.write_chrome_trace`).  On a cluster backend its
        ``wire.bytes*`` counters mirror the wire ledger frame by frame.
        Pass an existing :class:`~repro.obs.trace.Tracer` to share one
        timeline across runs.  ``False``/``None`` (default) adds no
        per-task work.  Any other value raises ``TypeError``.

    Fault tolerance is not a run option.  It belongs to the pool and is set
    where the pool is built: ``ClusterBackend(retry=RetryPolicy(...))`` or
    ``ClusterService(retry=...)``.  Every run on that pool shares it.
    """
    budget = resolve_memory_budget(memory_budget)
    tracer = resolve_tracer(trace)
    with shard_scratch(budget) as workdir, trace_run(
        tracer, "run", algorithm=algorithm, objective=objective
    ):
        yield ProtocolRun(tracer, budget, workdir, backend)


__all__ = ["ProtocolRun", "protocol_run"]
