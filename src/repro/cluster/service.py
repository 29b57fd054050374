"""Clustering as a service: a multi-job admission queue over one warm pool.

A :class:`ClusterService` owns a single :class:`~repro.cluster.backend.
ClusterBackend` warm pool and admits multiple concurrent clustering runs
against it.  Each admitted job gets a :class:`ServiceBackend`, a thin
:class:`~repro.runtime.backends.ExecutionBackend` view of the shared pool.
Jobs need no isolation of their own, because the pool already keeps runs
apart: a run owns what the pool holds for it.

* **Resident site state** is keyed by each site's resident key, unique
  per run; it ends with its run (:meth:`ClusterBackend.end_run`), so a
  job's results and word ledger are bit-identical to the same run on a
  standalone pool, whatever runs beside it.
* **Wire ledgers and tracers** are per-run objects the job's own driver
  passes down, and each heartbeat goes on the ledger of the frame its
  runner is executing, so one job's heartbeats never land on another's.

Admission control is keyed on ``memory_budget`` (same grammar as the
blocked-evaluation budgets: bytes, or strings like ``"64MB"`` — see
:func:`repro.metrics.blocked.resolve_memory_budget`).  The service has an
optional ``capacity``; jobs are admitted strictly in submission order
(FIFO — no job starves, no small job jumps a big one) whenever their
budget fits into what is left, and a job that alone exceeds capacity is
admitted only when the pool is otherwise idle, so oversized work degrades
to serial instead of deadlocking.

Two front doors:

:meth:`ClusterService.submit`
    The job-queue API: ``service.submit(fn, *args, memory_budget=...)``
    returns a :class:`ClusterJob` immediately; ``fn`` runs on a worker
    thread once admitted, receiving the job's :class:`ServiceBackend` as
    its first argument, and ``job.result()`` joins it.

:meth:`ClusterService.checkout`
    The blocking API behind ``REPRO_CLUSTER_SERVICE=1``: waits for
    admission and returns the :class:`ServiceBackend` directly; closing
    the backend returns the job's admission.  This is how existing
    ``backend="cluster:N"`` call sites run through a shared service pool
    without code changes.

The pool's retry policy is the service's ``retry=``, shared by every job.
A pool whose hosts died is retired when its last job releases: the next
checkout gets a fresh pool instead of the wreck.
"""

from __future__ import annotations

import atexit
import itertools
import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.backend import ClusterBackend
from repro.cluster.recovery import RetryPolicy
from repro.metrics.blocked import MemoryBudgetLike, resolve_memory_budget
from repro.runtime.backends import ExecutionBackend


class ServiceBackend(ExecutionBackend):
    """One admitted job's view of the shared warm pool.

    Dispatches site tasks and ends runs through the pool
    (:meth:`~repro.cluster.backend.ClusterBackend.submit_site_pairs`,
    :meth:`~repro.cluster.backend.ClusterBackend.end_run`).  :meth:`close`
    returns the job's admission; it never closes the shared pool.
    """

    name = "service"

    def __init__(self, service: "ClusterService", pool: ClusterBackend,
                 label: str, memory_budget: Optional[int]):
        self._service = service
        self._pool = pool
        self.label = label
        #: Bytes reserved against the service capacity (None reserves zero).
        self.memory_budget = memory_budget
        self._released = False

    def submit_site_pairs(self, pairs, *, round_index, ledger,
                          tracer=None) -> List[Future]:
        return self._pool.submit_site_pairs(
            pairs, round_index=round_index, ledger=ledger, tracer=tracer,
        )

    def end_run(self, network) -> None:
        self._pool.end_run(network)

    @property
    def n_hosts(self) -> int:
        return self._pool.n_hosts

    @property
    def socket_dir(self) -> Optional[str]:
        return self._pool.socket_dir

    def dead_hosts(self) -> Dict[int, str]:
        return self._pool.dead_hosts()

    def close(self) -> None:
        """Return this job's admission (the shared pool stays warm)."""
        if self._released:
            return
        self._released = True
        self._service.release(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceBackend(label={self.label!r}, n_hosts={self._pool.n_hosts})"


class ClusterJob:
    """Handle for one queued/running service job.

    ``result()`` joins the job (re-raising whatever its function raised);
    ``done()`` polls.
    """

    def __init__(self, label: str, memory_budget: Optional[int]):
        self.label = label
        self.memory_budget = memory_budget
        self._future: Future = Future()

    def result(self, timeout: Optional[float] = None) -> Any:
        return self._future.result(timeout)

    def done(self) -> bool:
        return self._future.done()

    def exception(self, timeout: Optional[float] = None):
        return self._future.exception(timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return f"ClusterJob(label={self.label!r}, {state})"


class ClusterService:
    """A FIFO job queue admitting concurrent runs onto one warm pool."""

    def __init__(
        self,
        n_hosts: Optional[int] = None,
        *,
        capacity: MemoryBudgetLike = None,
        retry: Optional[RetryPolicy] = None,
        start_timeout: float = 60.0,
    ):
        self.n_hosts = n_hosts
        #: Total admission capacity in bytes (None = unlimited).
        self.capacity = resolve_memory_budget(capacity)
        self._retry = retry
        self._start_timeout = start_timeout
        self._lock = threading.Lock()
        self._admit = threading.Condition(self._lock)
        self._pool: Optional[ClusterBackend] = None
        #: Bytes currently reserved by admitted jobs.
        self._reserved = 0
        #: The admitted jobs' backends.
        self._active: Set[ServiceBackend] = set()
        #: FIFO admission tickets: jobs are admitted strictly in the order
        #: their tickets were drawn, regardless of budget size.
        self._tickets = itertools.count()
        self._queue: List[int] = []
        self._closed = False
        self._job_threads: List[threading.Thread] = []

    # -- admission ---------------------------------------------------------

    def _fits_locked(self, budget: Optional[int]) -> bool:
        if not self._active:
            # An otherwise idle pool always admits: a job bigger than the
            # whole capacity degrades to running alone, never deadlocks.
            return True
        if self.capacity is None:
            return True
        return self._reserved + (budget or 0) <= self.capacity

    def _ensure_pool_locked(self) -> ClusterBackend:
        pool = self._pool
        if pool is not None and not self._active and pool.dead_hosts():
            # A pool whose hosts died is a wreck: retire it while nothing
            # is running and start the next job on a fresh pool.
            self._pool = None
            pool.close()
            pool = None
        if pool is None:
            pool = self._pool = ClusterBackend(
                n_hosts=self.n_hosts,
                retry=self._retry,
                start_timeout=self._start_timeout,
            )
        return pool

    def checkout(
        self,
        memory_budget: MemoryBudgetLike = None,
        label: str = "",
    ) -> ServiceBackend:
        """Block until admitted; return this job's backend view of the pool.

        Admission is FIFO over every waiting ``checkout``/``submit``: the
        job at the head of the queue is admitted as soon as its
        ``memory_budget`` fits the remaining capacity (always, when the
        pool is idle).  Close the returned backend to return the admission.
        """
        budget = resolve_memory_budget(memory_budget)
        with self._admit:
            if self._closed:
                raise RuntimeError("the cluster service is closed")
            ticket = next(self._tickets)
            self._queue.append(ticket)
            while not (self._queue[0] == ticket and self._fits_locked(budget)):
                self._admit.wait()
                if self._closed:
                    self._queue.remove(ticket)
                    self._admit.notify_all()
                    raise RuntimeError("the cluster service is closed")
            self._queue.pop(0)
            self._reserved += budget or 0
            pool = self._ensure_pool_locked()
            backend = ServiceBackend(self, pool, label, budget)
            self._active.add(backend)
            # The head job changed: the next waiter may fit alongside us.
            self._admit.notify_all()
            return backend

    def release(self, backend: ServiceBackend) -> None:
        """Return a job's admission and budget reservation (idempotent via close).

        Retires a pool whose hosts died once its last job is gone — the next
        admission starts a fresh pool.
        """
        pool = backend._pool
        with self._admit:
            if backend in self._active:
                self._active.remove(backend)
                self._reserved -= backend.memory_budget or 0
            broken = (self._pool is pool and not self._active
                      and pool.dead_hosts())
            if broken:
                self._pool = None
            self._admit.notify_all()
        if broken:
            pool.close()

    # -- the job queue -----------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        memory_budget: MemoryBudgetLike = None,
        label: str = "",
        **kwargs: Any,
    ) -> ClusterJob:
        """Queue one job; ``fn(backend, *args, **kwargs)`` runs once admitted.

        Returns immediately with a :class:`ClusterJob`.  The function
        receives the job's :class:`ServiceBackend` as its first argument
        and its return value becomes ``job.result()``; an exception is
        re-raised from ``result()``.  Jobs are admitted in submission
        order under the service's memory-budget capacity.
        """
        job = ClusterJob(label or getattr(fn, "__name__", "job"),
                         resolve_memory_budget(memory_budget))

        def run() -> None:
            try:
                backend = self.checkout(job.memory_budget, label=job.label)
            except BaseException as exc:  # noqa: BLE001 - relayed to the handle
                job._future.set_exception(exc)
                return
            try:
                job._future.set_result(fn(backend, *args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - relayed to the handle
                job._future.set_exception(exc)
            finally:
                backend.close()

        thread = threading.Thread(
            target=run, name=f"cluster-service-{job.label}", daemon=True
        )
        with self._lock:
            self._job_threads = [t for t in self._job_threads if t.is_alive()]
            self._job_threads.append(thread)
        thread.start()
        return job

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Refuse new admissions, join running jobs, shut the pool down."""
        with self._admit:
            self._closed = True
            self._admit.notify_all()
            threads = list(self._job_threads)
        for thread in threads:
            thread.join(timeout=60.0)
        with self._admit:
            pool, self._pool = self._pool, None
            self._active.clear()
            self._reserved = 0
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the shared registry behind REPRO_CLUSTER_SERVICE=1 --------------------

_shared_lock = threading.Lock()
_shared: Dict[Tuple[Optional[int]], ClusterService] = {}


def shared_service(n_hosts: Optional[int] = None) -> ClusterService:
    """The process-wide service for ``n_hosts`` (created on first use).

    Backs ``REPRO_CLUSTER_SERVICE=1``: every ``backend="cluster:N"`` spec
    resolved while the flag is set checks a job out of this shared pool
    instead of spawning a private one.  Closed automatically at process
    exit.
    """
    key = (n_hosts,)
    with _shared_lock:
        service = _shared.get(key)
        if service is None or service._closed:
            service = _shared[key] = ClusterService(n_hosts=n_hosts)
        return service


def _close_shared() -> None:  # pragma: no cover - exercised at interpreter exit
    with _shared_lock:
        services = list(_shared.values())
        _shared.clear()
    for service in services:
        try:
            service.close()
        except Exception:
            pass


atexit.register(_close_shared)

__all__ = ["ClusterJob", "ClusterService", "ServiceBackend", "shared_service"]
