"""Execution backends: where a round's site tasks run.

Every backend takes one round's ``(SiteTask, SiteContext)`` pairs and
returns one future per pair, in site order, each resolving to that site's
:class:`~repro.runtime.tasks.SiteTaskResult`
(:meth:`ExecutionBackend.submit_site_pairs`).  Two kinds exist:

``SerialBackend``
    The reference implementation: a plain Python loop in the calling
    process, in site order.  Zero overhead, always available, and the
    behaviour every other backend must reproduce bit-for-bit.

``ClusterBackend`` (:mod:`repro.cluster`, spec ``"cluster"``)
    One long-lived runner process per simulated host, over real sockets.
    A site's input and state stay on its runner; only its messages and
    task results travel.  Parallel runs go through it: a ``"cluster:N"``
    spec starts a private pool for one run, and a ``ClusterBackend``
    instance is a warm pool shared across runs.  ``"service[:N]"`` checks
    a job out of the process-wide shared pool.

The round scheduler (:func:`repro.runtime.tasks.run_site_tasks`) joins the
futures at a barrier and merges in site order, so results and failures are
deterministic on every backend: the earliest site's failure re-raises its
original exception in the caller.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

BackendLike = Union[None, str, "ExecutionBackend"]


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


class ExecutionBackend(ABC):
    """Strategy for running one round's site tasks."""

    name: str = "abstract"

    @abstractmethod
    def submit_site_pairs(
        self,
        pairs: Sequence[Tuple],
        *,
        round_index: int,
        ledger,
        tracer=None,
    ) -> List[Future]:
        """Run ``(SiteTask, SiteContext)`` pairs; one future per pair, in order.

        Each future resolves to the site's
        :class:`~repro.runtime.tasks.SiteTaskResult` or raises the task's
        original exception.  ``ledger`` is the run's
        :class:`~repro.distributed.messages.CommunicationLedger`: a backend
        with a wire records every frame in ``ledger.ensure_wire()``, and an
        in-process backend leaves it alone.  ``tracer`` is the run's
        enabled tracer, or ``None`` on an untraced run.
        """

    def end_run(self, network) -> None:
        """The run on ``network`` is over; drop what you hold for its sites.

        Called as a protocol run's backend scope closes, failed runs
        included.  Backends that hold nothing for a run have nothing to drop.
        """

    def close(self) -> None:
        """Release pooled workers, if any.  Safe to call more than once."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every task inline, one after the other (the reference semantics).

    The first failing task stops the round: later sites never run, and
    their futures carry the same failure.
    """

    name = "serial"

    def submit_site_pairs(self, pairs, *, round_index, ledger, tracer=None):
        from repro.runtime.tasks import _execute_site_task

        futures: List[Future] = [Future() for _ in pairs]
        for index, (task, ctx) in enumerate(pairs):
            try:
                futures[index].set_result(_execute_site_task(task, ctx))
            except Exception as exc:  # noqa: BLE001 - relayed via the futures
                for future in futures[index:]:
                    future.set_exception(exc)
                break
        return futures


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
    # returned backend returns the job's admission, never the pool.
    from repro.cluster.service import shared_service

    return shared_service(workers).checkout()


#: Backend name -> constructor taking the optional worker count of a
#: ``"name:workers"`` spec (``None`` when the spec is just the bare name).
_FACTORIES: Dict[str, Callable[[Optional[int]], ExecutionBackend]] = {
    "serial": _serial_factory,
    "cluster": _cluster_factory,
    "service": _service_factory,
}


def resolve_backend(backend: BackendLike) -> ExecutionBackend:
    """Normalise a backend spec into an :class:`ExecutionBackend` instance.

    Accepts ``None`` (serial), a backend name (``serial``, ``cluster`` or
    ``service``) — the last two optionally with a worker count, e.g.
    ``"cluster:3"`` — or an existing backend instance
    (returned unchanged, so pools can be shared across protocol runs).
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
            factory = _FACTORIES[name.lower()]
        except KeyError as exc:
            raise ValueError(
                f"unknown backend {name!r}; choose from {sorted(_FACTORIES)}"
            ) from exc
        return factory(workers)
    raise TypeError(f"backend must be None, a name or an ExecutionBackend, got {backend!r}")


@contextmanager
def backend_scope(backend: BackendLike) -> Iterator[ExecutionBackend]:
    """Resolve a backend spec, closing the pool afterwards only if we made it.

    A caller-supplied :class:`ExecutionBackend` instance is yielded as-is and
    left open (the caller owns its lifetime and may be sharing the pool
    across rounds or protocol runs); a ``None``/string spec is resolved to a
    fresh backend that is closed on exit.
    """
    owned = not isinstance(backend, ExecutionBackend)
    resolved = resolve_backend(backend)
    try:
        yield resolved
    finally:
        if owned:
            resolved.close()


__all__ = [
    "BackendLike",
    "CLUSTER_SERVICE_ENV",
    "backend_scope",
    "ExecutionBackend",
    "SerialBackend",
    "effective_cpu_count",
    "resolve_backend",
]
