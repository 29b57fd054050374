"""Fault tolerance for the cluster backend: policies, fault injection, replay logs.

The paper's protocols are round-structured and *deterministic*: a site task is
a pure function of its sticky half (shard + local metric), the dispatched
state (full dict or epoch token over the previous epoch), its RNG stream and
its inbox.  That makes recovery a replicated-deterministic-state-machine
problem rather than an ad-hoc patching one — the same shape as the
Paxos-replicated state machine the ROADMAP references: re-executing the
per-site dispatch log on a surviving host reproduces the dead runner's
resident state bit for bit, which the state digests shipped with every epoch
let us *assert* rather than assume.

This module holds the coordinator-side vocabulary of that story:

* :class:`DeadHostError` — the typed terminal failure, carrying the host id,
  round and last committed state epoch so callers can log something useful.
* :class:`RetryPolicy` — how many host deaths a pool tolerates and an
  optional heartbeat timeout for wedged-but-connected runners.  Fail fast
  is the zero budget, the default of a bare
  :class:`~repro.cluster.backend.ClusterBackend`.
* :class:`FaultPlan` / :class:`FaultAction` — a deterministic fault-injection
  harness: *kill host H before task T of round R*, stall a runner (SIGSTOP,
  exercising the heartbeat path), drop a connection, or delay frames.  Plans
  parse from a compact spec string and from the ``REPRO_FAULT_PLAN``
  environment knob, so CI can run the whole cluster suite under injected
  faults without touching a single test.
* :class:`SiteLog` / :class:`SiteDispatchRecord` — the per-``resident_key``
  dispatch log the backend appends every site dispatch to, whatever the
  budget: everything needed to rebuild a dead host's resident site state
  on a survivor (fn/args/kwargs, the pickled RNG stream, the inbox, the
  exact state slot that was shipped — epoch token with its write overlay,
  or the full dict) plus the ``(epoch, sizes)`` digest of every completed
  record for replay verification.

The heavy machinery — death classification, re-pinning, replay — lives in
:class:`~repro.cluster.backend.ClusterBackend`, which owns the sockets and
threads these records describe.  It has one dispatch path; the budget is
read only where a death is classified and where placement would route
around a dead host.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Environment knob holding a :meth:`FaultPlan.parse` spec; every
#: ``ClusterBackend`` constructed without an explicit ``fault_plan`` picks it
#: up, so CI can fault-inject an entire test suite.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment knob the backend sets for its runner children when the retry
#: policy configures a heartbeat: the runner-side send interval in seconds.
HEARTBEAT_INTERVAL_ENV = "REPRO_HEARTBEAT_INTERVAL"


class DeadHostError(RuntimeError):
    """A runner died and its in-flight work could not (or must not) be recovered.

    Subclasses :class:`RuntimeError` so existing callers that match on the
    historical error type keep working; carries structured context —
    ``host_id``, ``round_index``, the last committed state ``epoch`` and the
    in-flight ``task_ids`` — for callers that want more than the message.
    """

    def __init__(
        self,
        message: str,
        *,
        host_id: Optional[int] = None,
        round_index: Optional[int] = None,
        epoch: Optional[int] = None,
        task_ids: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(message)
        self.host_id = host_id
        self.round_index = round_index
        self.epoch = epoch
        self.task_ids = tuple(task_ids or ())


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`~repro.cluster.backend.ClusterBackend` treats runner death.

    The policy belongs to the pool: pass it where the pool is built
    (``ClusterBackend(retry=...)`` or ``ClusterService(retry=...)``).

    ``max_retries`` bounds the number of host deaths one backend instance
    absorbs (each death consumes one retry, whatever the number of sites
    re-pinned).  A death within the budget re-pins the dead host's sites
    to survivors and replays their dispatch logs; the death past it fails
    its in-flight work with :class:`DeadHostError`.  Zero, the default of a
    bare backend, is fail fast: the first death is terminal, later
    dispatches to the dead host fail, and survivors keep serving.
    ``heartbeat_timeout`` (seconds, ``None`` disables) additionally detects
    runners that are *silent but connected* — wedged, SIGSTOPped, swapping —
    by killing any host whose socket has produced no frame or heartbeat for
    that long while work is in flight; runners send unsolicited heartbeats
    every ``timeout / 4`` seconds so a long-running task never looks dead.
    """

    max_retries: int = 1
    heartbeat_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0 or None, got {self.heartbeat_timeout}"
            )


def resolve_retry_policy(retry: Optional[RetryPolicy]) -> RetryPolicy:
    """Normalise a user-supplied ``retry`` argument (``None`` → zero budget)."""
    if retry is None:
        return RetryPolicy(max_retries=0)
    if isinstance(retry, RetryPolicy):
        return retry
    raise TypeError(
        f"retry must be a RetryPolicy or None, got {type(retry).__name__}"
    )


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------

_FAULT_OPS = ("kill", "stall", "disconnect", "delay")


@dataclass
class FaultAction:
    """One injected fault: *do <op> at a matching dispatch/result point*.

    Trigger points are the backend's own accounting points: ``when="before"``
    fires as a matching site frame is dispatched (before any byte is
    queued), ``when="after"`` as its result is processed, and ``when="io"``
    fires on the event-loop thread at an exact *loop-dispatch ordinal* —
    ``task`` then counts the reply frames the coordinator's selector loop
    has handled for that host (in arrival order, which the single loop
    serialises), so a kill/stall/disconnect lands at a reproducible point of
    the I/O schedule no matter how dispatch threads interleave.  For
    ``before``/``after``, ``task`` is the 1-based ordinal of site dispatches
    to that ``(host, round)`` — deterministic because placement and
    submission order are.  Unset fields match anything.  One-shot by
    default; ``delay`` recurs unless ``once=true`` is given.
    """

    op: str
    host: Optional[int] = None
    round_index: Optional[int] = None
    task: Optional[int] = None
    when: str = "before"
    seconds: float = 0.0
    once: bool = True
    fired: bool = False

    def __post_init__(self) -> None:
        if self.op not in _FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r} (expected one of {_FAULT_OPS})")
        if self.when not in ("before", "after", "io"):
            raise ValueError(
                f"when must be 'before', 'after' or 'io', got {self.when!r}"
            )
        if self.op == "delay" and self.seconds <= 0:
            raise ValueError("delay requires seconds > 0")

    def matches(self, host: int, round_index: int, ordinal: int, when: str) -> bool:
        if self.fired and self.once:
            return False
        if self.when != when:
            return False
        if self.host is not None and host != self.host:
            return False
        if self.round_index is not None and round_index != self.round_index:
            return False
        if self.task is not None and ordinal != self.task:
            return False
        return True


class FaultPlan:
    """A deterministic schedule of injected faults for one backend instance.

    Specs are ``;``-separated actions, each ``<op> key=value ...``::

        kill host=2 round=2 task=1 when=before
        stall host=1 round=0 task=1
        disconnect host=0 round=1 when=after
        delay seconds=0.002

    Keys: ``host`` / ``round`` / ``task`` (ints; ``task`` is the 1-based
    dispatch ordinal within that host and round), ``when`` (``before`` |
    ``after`` | ``io``, default ``before``), ``seconds`` (float, ``delay``
    only), ``once`` (``true`` | ``false``).  The plan is thread-safe;
    dispatch ordinals are counted per ``(host, round)`` over site frames
    only, so control traffic never shifts a trigger point.  ``when=io``
    ordinals are counted separately, per host, over the reply frames the
    coordinator's event loop handles for that host (heartbeats and control
    chatter excluded) — the loop serialises per-host frame handling, so an
    io trigger point is race-free by construction.
    """

    def __init__(self, actions: Sequence[FaultAction]):
        self.actions: List[FaultAction] = list(actions)
        self._lock = threading.Lock()
        self._ordinals: Dict[Tuple[int, int], int] = {}
        self._io_ordinals: Dict[int, int] = {}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        actions: List[FaultAction] = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            tokens = part.split()
            op = tokens[0].lower()
            fields: Dict[str, Any] = {"op": op}
            if op == "delay":
                fields["once"] = False
            for token in tokens[1:]:
                if "=" not in token:
                    raise ValueError(
                        f"bad fault token {token!r} in {part!r} (expected key=value)"
                    )
                key, _, value = token.partition("=")
                key = key.lower()
                if key in ("host", "task"):
                    fields[key] = int(value)
                elif key == "round":
                    fields["round_index"] = int(value)
                elif key == "when":
                    fields["when"] = value.lower()
                elif key == "seconds":
                    fields["seconds"] = float(value)
                elif key == "once":
                    fields["once"] = value.lower() in ("1", "true", "yes")
                else:
                    raise ValueError(f"unknown fault key {key!r} in {part!r}")
            actions.append(FaultAction(**fields))
        if not actions:
            raise ValueError(f"fault plan spec {spec!r} contains no actions")
        return cls(actions)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None`` when unset."""
        spec = (environ if environ is not None else os.environ).get(
            FAULT_PLAN_ENV, ""
        ).strip()
        return cls.parse(spec) if spec else None

    def next_ordinal(self, host: int, round_index: int) -> int:
        """Count (and return) one more site dispatch to ``(host, round)``."""
        with self._lock:
            key = (host, round_index)
            self._ordinals[key] = self._ordinals.get(key, 0) + 1
            return self._ordinals[key]

    def next_io_ordinal(self, host: int) -> int:
        """Count (and return) one more loop-handled reply frame from ``host``."""
        with self._lock:
            self._io_ordinals[host] = self._io_ordinals.get(host, 0) + 1
            return self._io_ordinals[host]

    @property
    def has_io_actions(self) -> bool:
        """Whether any action triggers at a loop-dispatch (``when=io``) point."""
        return any(action.when == "io" for action in self.actions)

    def take(
        self, host: int, round_index: int, ordinal: int, when: str
    ) -> List[FaultAction]:
        """Matching actions for one trigger point, consuming one-shot ones."""
        out: List[FaultAction] = []
        with self._lock:
            for action in self.actions:
                if action.matches(host, round_index, ordinal, when):
                    action.fired = True
                    out.append(action)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({len(self.actions)} actions)"


# ---------------------------------------------------------------------------
# Per-site dispatch logs (the replayable checkpoint)
# ---------------------------------------------------------------------------


class SiteDispatchRecord:
    """Everything one site dispatch needs to be re-executed elsewhere.

    ``state`` is the *exact* object the original frame carried in its state
    slot — an epoch token ``(tag, epoch, writes, deleted)`` with the
    coordinator's write overlay, or a materialised dict.  Token epochs are
    rewritten positionally during replay (the replay target assigns its own
    monotonic epochs), which is sound because record *i*'s token always
    references the state produced by record *i-1*.  ``rng_bytes`` pins the
    RNG stream at dispatch time (the live generator object advances as the
    task runs), so replay carries the same stream over.
    """

    __slots__ = (
        "round_index",
        "site_id",
        "fn",
        "args",
        "kwargs",
        "rng_bytes",
        "inbox",
        "state",
        "traced",
        "wire",
        "tracer",
    )

    def __init__(
        self,
        round_index: int,
        site_id: int,
        fn: Any,
        args: Any,
        kwargs: Any,
        rng_bytes: bytes,
        inbox: Any,
        state: Any,
        traced: bool,
        wire: Any,
        tracer: Any,
    ) -> None:
        self.round_index = round_index
        self.site_id = site_id
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.rng_bytes = rng_bytes
        self.inbox = inbox
        self.state = state
        self.traced = traced
        self.wire = wire
        self.tracer = tracer


class SiteLog:
    """The coordinator-side dispatch log for one ``resident_key``.

    ``records`` accumulate for the life of the key (replay always starts at
    record 0 — the first record necessarily ships the full state dict plus
    the sticky half, so a fresh host can be rebuilt from nothing).
    ``digests[i]`` is the ``(epoch, sizes)`` state digest record *i* produced
    (``None`` while in flight), the ground truth replayed state is verified
    against.  ``location`` is the host currently holding the key's resident
    state; ``pending`` is the in-flight ``(record_index, entry)`` whose
    original future a replay must resolve.  ``lock`` serialises replay
    against new dispatches for the same key.
    """

    __slots__ = (
        "key",
        "site_id",
        "sticky",
        "job",
        "records",
        "digests",
        "lock",
        "location",
        "pending",
        "epoch",
    )

    def __init__(self, key: Any, site_id: int, sticky: Any, job: str = "") -> None:
        self.key = key
        self.site_id = site_id
        self.sticky = sticky
        #: Job namespace the key belongs to (``""`` for direct backend use);
        #: replay frames claim the same per-job resident slot the original
        #: dispatches used.
        self.job = job
        self.records: List[SiteDispatchRecord] = []
        self.digests: List[Optional[Tuple[int, Dict[str, int]]]] = []
        self.lock = threading.RLock()
        self.location: Optional[int] = None
        self.pending: Optional[Tuple[int, Any]] = None
        self.epoch = 0

    def append(self, record: SiteDispatchRecord) -> int:
        """Add a dispatch record; returns its index."""
        self.records.append(record)
        self.digests.append(None)
        return len(self.records) - 1

    def note_result(self, index: int, epoch: int, sizes: Dict[str, int]) -> None:
        """Commit record ``index``'s state digest (called as its result lands)."""
        self.digests[index] = (int(epoch), dict(sizes))
        self.epoch = int(epoch)
        pending = self.pending
        if pending is not None and pending[0] == index:
            self.pending = None


__all__ = [
    "DeadHostError",
    "FAULT_PLAN_ENV",
    "FaultAction",
    "FaultPlan",
    "HEARTBEAT_INTERVAL_ENV",
    "RetryPolicy",
    "SiteDispatchRecord",
    "SiteLog",
    "resolve_retry_policy",
]
