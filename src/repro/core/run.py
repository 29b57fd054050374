"""The run harness shared by the five protocol drivers.

Every protocol of the paper has the same two-round star-network shape, and
every driver needs the same execution scaffolding around its rounds: a
scratch directory for spilled cost shards, the run's tracer (watched live
when ``trace=`` is a telemetry session), a root ``run`` span, and an
execution backend carrying the telemetry session.
:func:`protocol_run` owns all of it, and its signature and docstring are
the one place the run options are declared and documented.  Drivers keep
only their algorithm parameters and forward ``**options`` unchanged, so an
unknown option name raises ``TypeError`` here.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, Optional, Union

from repro.metrics.blocked import MemoryBudgetLike, resolve_memory_budget, shard_scratch
from repro.obs.live import TelemetrySession
from repro.obs.trace import TraceLike, Tracer, resolve_tracer, trace_run
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
        session: Optional[TelemetrySession],
    ):
        self.tracer = tracer
        self.trace = tracer if tracer.enabled else None
        self.memory_budget = memory_budget
        self.workdir = workdir
        self._backend = backend
        self._session = session

    def local_kwargs(self, local_solver_kwargs: Optional[dict]) -> dict:
        """Site-solver kwargs: the caller's, defaulting the memory budget."""
        kwargs = dict(local_solver_kwargs or {})
        if self.memory_budget is not None:
            kwargs.setdefault("memory_budget", self.memory_budget)
        return kwargs

    @contextmanager
    def backend(self) -> Iterator[ExecutionBackend]:
        """Open the execution backend for the site rounds.

        Drivers close it before the coordinator's final solve, so pool
        shutdown and heartbeat accounting end with the last site round.
        The run's telemetry session is installed for this scope only: a
        caller's warm pool outlives the run, and its later heartbeat
        samples must not land on this run's books.
        """
        with backend_scope(self._backend) as backend:
            # Only cluster backends have runners to sample; in-process
            # backends have no telemetry hook.
            watched = self._session is not None and hasattr(backend, "set_telemetry")
            if watched:
                backend.set_telemetry(self._session)
            try:
                yield backend
            finally:
                if watched:
                    backend.set_telemetry(None)


@contextmanager
def protocol_run(
    algorithm: str,
    objective: str,
    *,
    backend: BackendLike = None,
    memory_budget: MemoryBudgetLike = None,
    trace: Union[TraceLike, TelemetrySession] = False,
) -> Iterator[ProtocolRun]:
    """Open the scopes of one protocol run and yield a :class:`ProtocolRun`.

    ``algorithm`` and ``objective`` tag the root ``run`` span.  Scopes open
    in this order and close in reverse: the shard scratch directory, the
    telemetry session's watch (only when ``trace`` is a session), the root
    ``run`` span.  The execution backend is the innermost scope; the driver
    opens it with :meth:`ProtocolRun.backend`.

    Options
    -------
    No option changes a result: centers, cost and ledger word counts are
    bit-identical for every setting of every option.

    backend:
        Where the per-site phases run: ``None``/``"serial"`` (default),
        ``"thread"``, ``"process"``, ``"cluster"`` (one runner process per
        host, payloads over real sockets in byte-accounted frames), any of
        those with a worker count (``"thread:4"``, ``"cluster:3"``), or an
        :class:`~repro.runtime.backends.ExecutionBackend` instance, which
        is left open so one warm pool can serve many runs.  On the cluster
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
        Pass an existing tracer to share one timeline across runs.  A
        :class:`~repro.obs.live.TelemetrySession` records like ``True``
        (each run gets its own fresh tracer) and also watches the run live:
        coordinator and runner resource sampling (runner samples ride
        heartbeat frames) and mid-run Prometheus/JSONL snapshots.
        ``False`` (default) adds no per-task work.  Any other value raises
        ``TypeError``.

    Fault tolerance is not a run option.  It belongs to the pool and is set
    where the pool is built: ``ClusterBackend(retry=RetryPolicy(...))`` or
    ``ClusterService(retry=...)``.  Every run on that pool shares it.
    """
    budget = resolve_memory_budget(memory_budget)
    session = trace if isinstance(trace, TelemetrySession) else None
    tracer = Tracer() if session is not None else resolve_tracer(trace)
    watch = session.watch(tracer) if session is not None else nullcontext()
    with shard_scratch(budget) as workdir, watch, trace_run(
        tracer, "run", algorithm=algorithm, objective=objective
    ):
        yield ProtocolRun(tracer, budget, workdir, backend, session)


__all__ = ["ProtocolRun", "protocol_run"]
