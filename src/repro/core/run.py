"""The run harness shared by the five protocol drivers.

Every protocol of the paper has the same two-round star-network shape, and
every driver needs the same execution scaffolding around its rounds: a
scratch directory for spilled cost shards, the telemetry plane, a root
``run`` span, and an execution backend carrying the retry policy and the
telemetry session.  :func:`protocol_run` owns all of it, and its signature
and docstring are the one place the run options are declared and
documented.  Drivers keep only their algorithm parameters and forward
``**options`` unchanged, so an unknown option name raises ``TypeError``
here.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.metrics.blocked import MemoryBudgetLike, resolve_memory_budget, shard_scratch
from repro.obs.live import TelemetryLike, resolve_telemetry, telemetry_scope
from repro.obs.trace import TraceLike, resolve_tracer, trace_run
from repro.runtime.backends import BackendLike, ExecutionBackend, backend_scope

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.recovery import RetryPolicy


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
        prefetch: Optional[bool],
        workdir: Optional[str],
        backend: BackendLike,
        retry: Any,
        telemetry: Any,
    ):
        self.tracer = tracer
        self.trace = tracer if tracer.enabled else None
        self.memory_budget = memory_budget
        self.prefetch = prefetch
        self.workdir = workdir
        self._backend = backend
        self._retry = retry
        self._telemetry = telemetry

    def local_kwargs(self, local_solver_kwargs: Optional[dict]) -> dict:
        """Site-solver kwargs: the caller's, defaulting the budget and prefetch."""
        kwargs = dict(local_solver_kwargs or {})
        if self.memory_budget is not None:
            kwargs.setdefault("memory_budget", self.memory_budget)
        if self.prefetch is not None:
            kwargs.setdefault("prefetch", self.prefetch)
        return kwargs

    @contextmanager
    def backend(self) -> Iterator[ExecutionBackend]:
        """Open the execution backend for the site rounds.

        Drivers close it before the coordinator's final solve, so pool
        shutdown and heartbeat accounting end with the last site round.
        """
        with backend_scope(self._backend) as backend:
            # Only cluster backends have hosts to lose and runners to
            # sample; in-process backends have neither hook.
            if self._retry is not None and hasattr(backend, "set_retry_policy"):
                backend.set_retry_policy(self._retry)
            if self._telemetry.enabled and hasattr(backend, "set_telemetry"):
                backend.set_telemetry(self._telemetry)
            yield backend


@contextmanager
def protocol_run(
    algorithm: str,
    objective: str,
    *,
    backend: BackendLike = None,
    memory_budget: MemoryBudgetLike = None,
    prefetch: Optional[bool] = None,
    trace: TraceLike = False,
    retry: Optional["RetryPolicy"] = None,
    telemetry: TelemetryLike = False,
) -> Iterator[ProtocolRun]:
    """Open the scopes of one protocol run and yield a :class:`ProtocolRun`.

    ``algorithm`` and ``objective`` tag the root ``run`` span.  Scopes open
    in this order and close in reverse: the shard scratch directory, the
    telemetry session, the root ``run`` span.  The execution backend is the
    innermost scope; the driver opens it with :meth:`ProtocolRun.backend`.

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
        wire (see :mod:`repro.runtime.state`).
    memory_budget:
        Byte cap (int or ``"64MB"``-style string) on any single distance or
        cost block a party materialises.  Larger cost matrices stream from
        disk shards in a per-run scratch directory that is removed when the
        run ends.  ``None`` (default) keeps the dense path.
    prefetch:
        Double-buffered background tile prefetch for disk-backed cost
        matrices.  ``None`` (default) turns it on exactly when a matrix
        streams from disk.
    trace:
        ``True`` records spans, events and counters of the coordinator and
        the runners on one timeline, on a :class:`~repro.obs.trace.Tracer`
        attached to the result as ``result.trace`` (render it with
        :func:`repro.obs.render_round_report`, export it with
        :func:`repro.obs.write_chrome_trace`).  Pass an existing tracer to
        share one timeline across runs.  ``False`` (default) adds no
        per-task work.
    retry:
        A :class:`~repro.cluster.recovery.RetryPolicy` that makes the
        cluster backend fault tolerant.  When a runner dies mid-round
        (socket error or heartbeat timeout), its sites are re-pinned
        deterministically to survivors and their dispatch logs replayed;
        only the wire ledger shows the extra ``replay_*`` bytes.  ``None``
        (default) fails fast with
        :class:`~repro.cluster.recovery.DeadHostError`.  In-process
        backends have no hosts to lose and ignore the policy.
    telemetry:
        ``True`` or a :class:`~repro.obs.live.TelemetrySession` runs the
        live-telemetry plane next to the run: coordinator and runner
        resource sampling (runner samples ride heartbeat frames), mid-run
        Prometheus/JSONL snapshots and structured span-correlated logs.
        Telemetry implies tracing: an untraced run gets a session-private
        tracer.  ``False`` (default) is the inert
        :data:`~repro.obs.live.NULL_TELEMETRY`.
    """
    budget = resolve_memory_budget(memory_budget)
    tracer = resolve_tracer(trace)
    session = resolve_telemetry(telemetry)
    # Telemetry implies tracing: gauges and samples live on a tracer.
    tracer = session.adopt_tracer(tracer)
    with shard_scratch(budget) as workdir, telemetry_scope(session), trace_run(
        tracer, "run", algorithm=algorithm, objective=objective
    ):
        yield ProtocolRun(tracer, budget, prefetch, workdir, backend, retry, session)


__all__ = ["ProtocolRun", "protocol_run"]
