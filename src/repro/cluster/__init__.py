"""Distributed-memory cluster backend with wire-level byte accounting.

The star-network simulator charges every message a semantic *word* count;
the serial backend hands payloads over inside one process.  This
subsystem closes the loop on the paper's communication claims: a
:class:`~repro.cluster.backend.ClusterBackend` spawns one long-lived runner
process per simulated host, ships site tasks — the one task shape every
protocol runs as, the uncertain ones included — over real length-prefixed
socket connections (:mod:`repro.cluster.framing`), keeps each site's
view of its input (local metric, or its uncertain nodes) *and its
mutable round state* resident on its runner across rounds (state returns as
a digest, and the coordinator holds only a handle — see
:mod:`repro.runtime.state`),
compresses the bulky frame kinds under a per-kind codec policy
(:class:`~repro.cluster.framing.WirePolicy` — pickle protocol 5 with
out-of-band numpy buffers, zlib frame compression), and
records the exact bytes every frame occupied — raw *and* encoded — in a
:class:`~repro.cluster.wire.WireLedger` that the semantic
:class:`~repro.distributed.messages.CommunicationLedger` folds into its
``summary()`` — words *and* bytes, side by side.

Select it like any other backend::

    from repro import partial_kmedian

    result = partial_kmedian(points, k=3, t=30, backend="cluster:3")
    result.ledger.summary()["total_bytes"]   # > 0: real wire traffic
    result.ledger.summary()["total_words"]   # identical to backend="serial"

Results are bit-identical to ``backend="serial"`` for a fixed seed — the
wire is an execution detail; the word ledger never changes.

Built with ``retry=RetryPolicy(max_retries=N)``, the pool is also fault
tolerant: up to N runner deaths (socket error or heartbeat timeout) are
recovered by re-pinning the dead host's sites deterministically to
survivors and replaying their dispatch logs — still bit-identical, with
the replay bytes accounted under ``replay_*`` frame kinds and a
:class:`~repro.cluster.wire.RecoveryEvent` in the ledger of each run the
death interrupted.  The default
budget is zero: the first death raises
:class:`~repro.cluster.recovery.DeadHostError`.  A deterministic
:class:`~repro.cluster.recovery.FaultPlan` (or the ``REPRO_FAULT_PLAN``
environment variable) injects failures for tests and drills.
"""

from repro.cluster.backend import ClusterBackend
from repro.cluster.framing import (
    FrameChannel,
    WirePolicy,
    available_codecs,
    decode_payload,
    encode_payload,
    resolve_codec,
)
from repro.cluster.recovery import DeadHostError, FaultAction, FaultPlan, RetryPolicy
from repro.cluster.service import ClusterJob, ClusterService, ServiceBackend, shared_service
from repro.cluster.wire import RecoveryEvent, WireLedger, WireRecord

__all__ = [
    "ClusterBackend",
    "ClusterJob",
    "ClusterService",
    "DeadHostError",
    "FaultAction",
    "FaultPlan",
    "FrameChannel",
    "RecoveryEvent",
    "RetryPolicy",
    "ServiceBackend",
    "WireLedger",
    "WirePolicy",
    "WireRecord",
    "available_codecs",
    "decode_payload",
    "encode_payload",
    "resolve_codec",
    "shared_service",
]
