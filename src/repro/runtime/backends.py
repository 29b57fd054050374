"""Execution backends: where site-local computation actually runs.

A backend is a strategy for evaluating a batch of independent callables —
one per site — and returning their results in submission order.  Two are
provided here (the cluster backend, one runner process per simulated host,
lives in :mod:`repro.cluster`):

``SerialBackend``
    The reference implementation: a plain Python loop in the calling
    process, in submission (site-id) order.  Zero overhead, always
    available, and the behaviour every other backend must reproduce
    bit-for-bit.

``ProcessPoolBackend``
    A :class:`concurrent.futures.ProcessPoolExecutor`.  Every task and its
    context crosses a process boundary through pickle, which makes the
    backend honest about message materialisation: nothing reaches a worker
    that could not have been transmitted.  True parallelism, at the price
    of serialisation overhead — the right trade at large ``n_i``.

Backends evaluate eagerly and join deterministically: results come back in
the order tasks were submitted regardless of completion order, and the
first failing task re-raises its original exception in the caller.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

BackendLike = Union[None, str, "ExecutionBackend"]

#: A registered backend constructor: receives the optional worker count from a
#: ``"name:workers"`` spec (``None`` when the spec carried no count).
BackendFactory = Callable[[Optional[int]], "ExecutionBackend"]


def effective_cpu_count() -> int:
    """CPUs actually available to this process (at least 1).

    ``os.cpu_count()`` reports the *host's* cores and ignores cgroup / CPU
    affinity limits, so inside a constrained container it wildly overstates
    the useful pool size (and makes speedup assertions unsound).  The
    scheduler affinity mask, where the platform exposes it, is the honest
    number.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


def default_worker_count() -> int:
    """Default pool size: the CPUs available to this process (at least 1)."""
    return effective_cpu_count()


class ExecutionBackend(ABC):
    """Strategy for running a batch of independent site-local callables."""

    name: str = "abstract"

    @abstractmethod
    def map_ordered(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Evaluate ``fn`` over ``items``, returning results in input order.

        Implementations must propagate the first raised exception to the
        caller (in input order, so failures are deterministic too).
        """

    def submit_ordered(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List["Future"]:
        """Submit every item, returning one future per item in input order.

        The base implementation delegates to :meth:`map_ordered` — a
        subclass that only implements the abstract batch contract (e.g. a
        third-party MPI pool) keeps its parallelism and its failure
        semantics; truly incremental futures come from the subclasses that
        override this (pools, cluster).  On a batch failure every future
        carries the raised exception, so the join sees it at the earliest
        index, matching ``map_ordered``'s all-or-nothing contract.
        """
        items = list(items)
        futures: List[Future] = [Future() for _ in items]
        try:
            results = self.map_ordered(fn, items)
        except BaseException as exc:  # noqa: BLE001 - relayed via the futures
            for future in futures:
                future.set_exception(exc)
        else:
            for future, result in zip(futures, results):
                future.set_result(result)
        return futures

    def close(self) -> None:
        """Release pooled workers, if any.  Safe to call more than once."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every task inline, one after the other (the reference semantics)."""

    name = "serial"

    def map_ordered(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        return [fn(item) for item in items]


class ProcessPoolBackend(ExecutionBackend):
    """Fan site tasks out to worker processes (tasks must be picklable).

    The pool is created lazily, on the first submitted task.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or default_worker_count()
        self._executor: Optional[ProcessPoolExecutor] = None

    def submit_ordered(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Future]:
        items = list(items)
        # Even a single task goes through the pool: the isolation/pickling
        # guarantee must not silently vary with batch size.
        if items and self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return [self._executor.submit(fn, item) for item in items]

    def map_ordered(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        # Joining in submission order keeps both results and failures
        # deterministic: the earliest-submitted failing task wins.
        return [future.result() for future in self.submit_ordered(fn, items)]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


_BACKEND_FACTORIES: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory, *, overwrite: bool = False) -> None:
    """Register a backend under ``name`` so :func:`resolve_backend` finds it.

    ``factory`` receives the optional worker count parsed from a
    ``"name:workers"`` spec (``None`` when the spec is just the bare name).
    New backends plug in here — the resolver never needs editing.
    """
    key = str(name).lower()
    if not key or ":" in key:
        raise ValueError(f"backend name must be non-empty and ':'-free, got {name!r}")
    if key in _BACKEND_FACTORIES and not overwrite:
        raise ValueError(f"backend {key!r} is already registered")
    _BACKEND_FACTORIES[key] = factory


def available_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_BACKEND_FACTORIES)


def _serial_factory(workers: Optional[int]) -> ExecutionBackend:
    if workers is not None:
        raise ValueError("the serial backend runs inline and takes no worker count")
    return SerialBackend()


#: When set (to anything but ``""``/``"0"``), ``"cluster:N"`` specs resolve
#: to a job checked out of the process-wide shared :class:`~repro.cluster.
#: service.ClusterService` pool instead of spawning a private pool per run —
#: the service-mode coordinator CI exercises the whole suite under.
CLUSTER_SERVICE_ENV = "REPRO_CLUSTER_SERVICE"


def _cluster_service_mode() -> bool:
    return os.environ.get(CLUSTER_SERVICE_ENV, "") not in ("", "0")


def _cluster_factory(workers: Optional[int]) -> ExecutionBackend:
    # Imported lazily: the cluster subsystem pulls in sockets/multiprocessing
    # machinery that purely in-process runs never need.
    if _cluster_service_mode():
        return _service_factory(workers)
    from repro.cluster.backend import ClusterBackend

    return ClusterBackend(n_hosts=workers)


def _service_factory(workers: Optional[int]) -> ExecutionBackend:
    # One admitted job on the process-wide shared warm pool: closing the
    # returned backend releases the job's lane, never the pool.
    from repro.cluster.service import shared_service

    return shared_service(workers).checkout()


register_backend("serial", _serial_factory)
register_backend("process", lambda workers: ProcessPoolBackend(max_workers=workers))
register_backend("cluster", _cluster_factory)
register_backend("service", _service_factory)


def resolve_backend(backend: BackendLike) -> ExecutionBackend:
    """Normalise a backend spec into an :class:`ExecutionBackend` instance.

    Accepts ``None`` (serial), a registered name — optionally with a worker
    count, e.g. ``"process:4"`` or ``"cluster:3"`` — or an existing backend
    instance (returned unchanged, so pools can be shared across protocol
    runs).
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        name, sep, count = backend.partition(":")
        workers: Optional[int] = None
        if sep:
            try:
                workers = int(count)
            except ValueError as exc:
                raise ValueError(
                    f"malformed backend spec {backend!r}: worker count {count!r} is not an integer"
                ) from exc
            if workers < 1:
                raise ValueError(f"backend spec {backend!r} needs a worker count >= 1")
        try:
            factory = _BACKEND_FACTORIES[name.lower()]
        except KeyError as exc:
            raise ValueError(
                f"unknown backend {name!r}; choose from {available_backends()}"
            ) from exc
        return factory(workers)
    raise TypeError(f"backend must be None, a name or an ExecutionBackend, got {backend!r}")


@contextmanager
def backend_scope(backend: BackendLike) -> Iterator[ExecutionBackend]:
    """Resolve a backend spec, closing the pool afterwards only if we made it.

    A caller-supplied :class:`ExecutionBackend` instance is yielded as-is and
    left open (the caller owns its lifetime and may be sharing the pool
    across rounds or protocol runs); a ``None``/string spec is resolved to a
    fresh backend that is closed on exit.  Either way, backends that tie
    out-of-band accounting to the current run (heartbeat frames against the
    run's wire ledger — ``detach_run_accounting``) are detached on exit, so
    a warm pool's idle traffic never lands on a finished run's books.
    """
    owned = not isinstance(backend, ExecutionBackend)
    resolved = resolve_backend(backend)
    try:
        yield resolved
    finally:
        detach = getattr(resolved, "detach_run_accounting", None)
        if detach is not None:
            detach()
        if owned:
            resolved.close()


__all__ = [
    "BackendFactory",
    "BackendLike",
    "CLUSTER_SERVICE_ENV",
    "available_backends",
    "backend_scope",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "default_worker_count",
    "effective_cpu_count",
    "register_backend",
    "resolve_backend",
]
