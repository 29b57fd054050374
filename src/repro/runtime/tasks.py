"""Site tasks: the unit of work a backend schedules.

A protocol round is an embarrassingly parallel batch of *site tasks*: each
task runs one site's share of the round against a :class:`SiteContext` — a
self-contained, picklable view of that site (its site view, mutable
state, RNG stream, inbox) — and buffers its transmissions in an outbox
instead of touching the shared :class:`~repro.distributed.network.StarNetwork`
directly.  :func:`run_site_tasks` fans the batch out to an execution backend,
joins the results in site order, and merges everything back into the
network: state replaces state, per-task timers fold into the site timers,
outboxes replay through the instrumented ledger, and the advanced RNG
streams come back to the caller so the next round continues each site's
stream exactly where it stopped.

Because a task only ever sees its own context and results are merged in a
fixed order, a protocol run is bit-identical across backends for a fixed
seed: same centers, same costs, same ledger word counts.

Dispatch is future-based and has one form on every backend: the round's
``(SiteTask, SiteContext)`` pairs go to
:meth:`~repro.runtime.backends.ExecutionBackend.submit_site_pairs`, which
returns one :class:`SiteTaskResult` future per site; the join waits for the
whole round, then merges in site order.  On a
:class:`~repro.cluster.backend.ClusterBackend` the pairs cross real
sockets, and the run ledger's wire ledger records every frame's bytes.  A
site's buffered messages ride its result frame as plain objects, next to
the task's return value.  Site tasks are the only work any backend runs:
every protocol, the uncertain ones included, is a sequence of rounds of
this one task shape.

State ownership follows :mod:`repro.runtime.state`: the merged
``site.state`` is what the next round's task continues from, and the
coordinator never reads it.  The serial backend hands the dict back; the
cluster backend keeps each site's state resident on its runner and merges
an opaque :class:`~repro.runtime.state.ResidentState` handle, so heavy state
(a precluster's cached ``n_i x n_i`` cost matrix) never crosses the wire
between rounds.  A driver that needs a site's scalars after a round reads
them from :attr:`SiteTaskResult.value`.

Task functions must be module-level callables (the cluster backend ships
them to its runners by their qualified name).
"""

from __future__ import annotations

from concurrent.futures import Future, wait as _wait_futures
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.messages import Message
from repro.obs.trace import NULL_TRACER, TraceBuffer, collector_scope
from repro.runtime.backends import BackendLike, backend_scope
from repro.utils.timing import Timer


@dataclass
class Outgoing:
    """One buffered site-to-coordinator transmission.

    Only ``words`` is charged.  Bytes are counted per frame, in the wire
    ledger, on backends that have a wire.
    """

    kind: str
    payload: Any
    words: float


class SiteContext:
    """Everything a site task may touch — and nothing else.

    ``local_metric`` is the site's view of its input: a metric over its own
    points, or its own uncertain nodes, indexed ``0..n_i-1``.  A site never
    sees a global id: everything it sends names its points by these local
    ids, and the coordinator, which built the shards, maps them.
    Transmissions go through :meth:`send_to_coordinator`, which buffers them
    for deterministic replay into the ledger after the task joins.
    """

    def __init__(
        self,
        site_id: int,
        local_metric,
        state: Dict[str, Any],
        rng: Optional[np.random.Generator],
        inbox: List[Message],
        resident_key: Optional[str] = None,
        trace: Optional[TraceBuffer] = None,
    ):
        self.site_id = int(site_id)
        self.local_metric = local_metric
        self.state = state
        self.rng = rng
        self.inbox = inbox
        self.timer = Timer()
        self.outbox: List[Outgoing] = []
        #: Cache identity of the site view for runner-resident state
        #: on the cluster backend (the site's ``resident_key``; ``None`` on
        #: the runner's own copy, which never dispatches).
        self.resident_key = resident_key
        #: Span/counter recorder for this task's execution (``None`` when the
        #: run is untraced, so the hot path allocates nothing).
        self.trace = trace

    @property
    def n_points(self) -> int:
        """Number of points (or nodes) held by the site."""
        return len(self.local_metric)

    def messages(self, kind: Optional[str] = None) -> List[Message]:
        """Messages delivered to this site this round (optionally of one kind)."""
        return [m for m in self.inbox if kind is None or m.kind == kind]

    def send_to_coordinator(self, kind: str, payload: Any, words: float) -> None:
        """Buffer a transmission; it is charged when the task joins."""
        self.outbox.append(Outgoing(kind=kind, payload=payload, words=float(words)))


@dataclass
class SiteTask:
    """One site's share of a protocol round.

    ``fn`` is called as ``fn(ctx, *args, **kwargs)`` with a
    :class:`SiteContext`; its return value comes back as
    :attr:`SiteTaskResult.value`.  ``rng`` is the site's RNG stream for the
    round (spawn one per site with :func:`repro.utils.rng.spawn_rngs`).
    """

    site_id: int
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    rng: Optional[np.random.Generator] = None


@dataclass
class SiteTaskResult:
    """What comes back from one site task after the join.

    ``state`` is the site's state dict, or on the cluster backend a
    :class:`~repro.runtime.state.ResidentState` handle to it.
    """

    site_id: int
    value: Any
    state: Any
    timer: Timer
    rng: Optional[np.random.Generator]
    outbox: List[Outgoing]
    trace: Optional[TraceBuffer] = None


def _execute_site_task(task: SiteTask, ctx: SiteContext) -> SiteTaskResult:
    """Run one task against its context in the calling process."""
    if ctx.trace is not None:
        # Traced run: the buffer collects the task span plus any counters the
        # metrics layer bumps through the ambient collector, and rides back
        # on the result for the coordinator to absorb.
        with collector_scope(ctx.trace):
            with ctx.trace.span("site_task", site=ctx.site_id):
                value = task.fn(ctx, *task.args, **task.kwargs)
    else:
        value = task.fn(ctx, *task.args, **task.kwargs)
    return SiteTaskResult(
        site_id=ctx.site_id,
        value=value,
        state=ctx.state,
        timer=ctx.timer,
        rng=ctx.rng,
        outbox=ctx.outbox,
        trace=ctx.trace,
    )


def _barrier_check(futures: Sequence[Future]) -> None:
    """Wait for every future; re-raise the earliest-submitted failure.

    Nothing is merged into the network until the whole round completed, so
    a failing round leaves the network untouched.
    """
    _wait_futures(futures)
    for future in futures:
        future.result()


def run_site_tasks(
    network,
    tasks: Sequence[SiteTask],
    *,
    backend: BackendLike = None,
) -> List[SiteTaskResult]:
    """Fan site tasks out to a backend and merge the results into the network.

    Parameters
    ----------
    network:
        The :class:`~repro.distributed.network.StarNetwork` being driven.
        Inboxes of the addressed sites are drained into the task contexts;
        after the join, site state, timers and buffered transmissions are
        merged back in submission order.
    tasks:
        At most one :class:`SiteTask` per site.
    backend:
        ``None`` / a backend name (optionally ``"name:workers"``,
        e.g. ``"cluster:3"``) or an
        :class:`~repro.runtime.backends.ExecutionBackend` instance.  A
        caller's pool keeps the network's site state for its next round
        until ``backend.end_run(network)`` or ``backend.close()``.

    Returns
    -------
    list of :class:`SiteTaskResult` in submission order.  Callers that
    carry RNG streams across rounds must adopt ``result.rng`` (on the
    cluster backend the stream advanced on the runner, not in the caller).

    Recovery contract
    -----------------
    On a cluster backend, each site's dispatches are logged on the
    coordinator, and the pool's retry budget
    (:class:`~repro.cluster.recovery.RetryPolicy`, set where the pool is
    built) decides what a runner death does.  Within the budget the death
    is transparent: each site whose task was in flight on the dead host, or
    whose state the host held when its next task is dispatched, is
    re-pinned deterministically to a survivor and its log is replayed from
    record 0 (full state + RNG carry-over travel with record 0, so the
    replay is bit-identical, which recovery asserts against the state
    digests); the futures resolve as if nothing happened — same results,
    same merge order, same ledger words.  Only the wire ledger differs:
    replay traffic appears under ``replay_*`` frame kinds plus one
    :class:`~repro.cluster.wire.RecoveryEvent` per death that interrupted
    this network's work, listing only its sites and frames.  Past the
    budget (at the first death, for the default zero budget), the join
    raises :class:`~repro.cluster.recovery.DeadHostError` naming the host,
    round, in-flight tasks and last committed state epochs.
    """
    tasks = list(tasks)
    seen = set()
    for task in tasks:
        if not (0 <= task.site_id < network.n_sites):
            raise ValueError(f"task addresses unknown site id {task.site_id}")
        if task.site_id in seen:
            raise ValueError(f"multiple tasks address site {task.site_id}")
        seen.add(task.site_id)

    tracer = getattr(network, "tracer", None) or NULL_TRACER
    round_index = network.current_round

    pairs: List[Tuple[SiteTask, SiteContext]] = []
    for task in tasks:
        site = network.sites[task.site_id]
        ctx = SiteContext(
            site_id=site.site_id,
            local_metric=site.local_metric,
            state=site.state,
            rng=task.rng,
            inbox=site.drain_inbox(),
            resident_key=site.resident_key,
            trace=TraceBuffer(origin=f"site-{site.site_id}") if tracer.enabled else None,
        )
        pairs.append((task, ctx))

    with backend_scope(backend) as exec_backend:
        with tracer.span("round", round=round_index, tasks=len(tasks),
                         backend=type(exec_backend).__name__):
            t_dispatch = tracer.clock()
            # The tracer rides along only when enabled, so untraced
            # dispatches (and their frames) stay byte-identical.
            futures = exec_backend.submit_site_pairs(
                pairs,
                round_index=round_index,
                ledger=network.ledger,
                tracer=tracer if tracer.enabled else None,
            )
            _barrier_check(futures)

            results: List[SiteTaskResult] = []
            for future in futures:
                result = future.result()
                site = network.sites[result.site_id]
                site.state = result.state
                site.timer.merge(result.timer)
                if tracer.enabled:
                    # Cluster results come back with their buffers already
                    # absorbed by the backend (result.trace is None there).
                    if result.trace is not None:
                        tracer.absorb(
                            result.trace,
                            window=(t_dispatch, tracer.clock()),
                            tags={"round": round_index},
                        )
                    tracer.event("absorb", site=result.site_id, round=round_index)
                for out in result.outbox:
                    network.send_to_coordinator(
                        result.site_id, out.kind, out.payload, out.words
                    )
                results.append(result)
    return results


__all__ = [
    "Outgoing",
    "SiteContext",
    "SiteTask",
    "SiteTaskResult",
    "run_site_tasks",
]
