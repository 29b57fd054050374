"""Wire-level byte accounting for the cluster backend.

The semantic :class:`~repro.distributed.messages.CommunicationLedger` charges
every message a *word* count computed by the protocol from what it
semantically transmits — the paper's accounting, identical on every backend.
The :class:`WireLedger` is its physical twin: it records the bytes each
dispatch and result frame actually occupied on a runner socket, so a run on
the cluster backend can report words *and* bytes side by side (the
bytes-per-word ratio is what makes transmission claims comparable to
byte-level schemes in the literature).

Since the framing layer grew per-frame codecs, every record carries a
raw/encoded *pair*: ``n_bytes`` is what physically crossed the socket
(compressed frames included) and ``raw_bytes`` what the same frame would
have occupied uncompressed.  ``total_bytes()`` and every ``bytes_by_*``
aggregation stay the physical truth; the ``raw_*`` twins quantify what the
codec layer saved, and :meth:`WireLedger.compression_by_kind` renders the
benchmark's compression column.

On a traced run :meth:`WireLedger.record` also mirrors each frame into the
run tracer's ``wire.bytes*`` (raw) and ``wire.bytes_encoded*`` (encoded)
counters, in total, per direction and per kind.  The ledger is the source
of byte numbers; the counters make them visible to mid-run snapshots.

This module is dependency-free on purpose: the communication ledger attaches
a ``WireLedger`` lazily without importing the rest of the cluster machinery,
and the tracer is duck-typed (anything with ``inc(name, value)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Frame kinds a cluster run can record, per direction: every dispatch kind
#: pairs with its ``*_result`` response.  ``state_pull`` frames exist only
#: when coordinator code faults runner-resident state entries (lazy site
#: state proxies); a protocol whose rounds never read heavy state records
#: none.  ``replay_*`` kinds exist only on runs that recovered from a runner
#: death: ``replay`` frames re-execute a dead host's site dispatch log on a
#: survivor and ``replay_pull`` re-issues its in-flight state faults — the
#: byte cost of recovery, accounted as honestly as the rest of the wire.
#: ``hb`` frames are runner liveness heartbeats (``recv`` only — runners
#: send them unsolicited), which also carry one resource sample each when
#: the telemetry plane asks for it; they cross the same sockets as
#: everything else, so they are accounted like everything else.
FRAME_KINDS = (
    "site_dispatch",
    "site_result",
    "state_pull_dispatch",
    "state_pull_result",
    "replay_dispatch",
    "replay_result",
    "replay_pull_dispatch",
    "replay_pull_result",
    "hb",
)


@dataclass(frozen=True)
class WireRecord:
    """One frame that crossed a coordinator-to-runner socket.

    Attributes
    ----------
    round_index:
        Protocol round the frame belongs to (0 for out-of-round traffic such
        as handshakes).
    host:
        Runner host id the frame was exchanged with.
    direction:
        ``"send"`` (coordinator -> runner) or ``"recv"`` (runner ->
        coordinator).
    kind:
        Frame label — one of :data:`FRAME_KINDS`.  ``site_*`` frames carry a
        protocol round's site tasks and ``state_pull_*`` frames the
        resident-state faults of a lazy
        :class:`~repro.runtime.state.RemoteStateProxy` (an entry of a site's
        runner-resident mutable state crossing back on explicit access).
    n_bytes:
        Wire bytes the frame physically occupied, header included — the
        codec-*encoded* size.
    raw_bytes:
        Bytes the same frame would have occupied uncompressed (equal to
        ``n_bytes`` for uncompressed frames; defaults to ``n_bytes``).
    codec:
        Name of the codec that encoded the frame body (``"none"`` when
        compression was off, skipped, or did not shrink the body).
    """

    round_index: int
    host: int
    direction: str
    kind: str
    n_bytes: int
    raw_bytes: Optional[int] = None
    codec: str = "none"

    def __post_init__(self) -> None:
        if self.n_bytes < 0:
            raise ValueError(f"frame byte count must be non-negative, got {self.n_bytes}")
        if self.raw_bytes is None:
            object.__setattr__(self, "raw_bytes", self.n_bytes)
        elif self.raw_bytes < self.n_bytes:
            raise ValueError(
                f"raw byte count ({self.raw_bytes}) cannot be smaller than the "
                f"encoded frame ({self.n_bytes}): codecs never grow a frame"
            )
        if self.direction not in ("send", "recv"):
            raise ValueError(f"direction must be 'send' or 'recv', got {self.direction!r}")


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovered runner death, as the wire ledger remembers it.

    ``repin`` is the deterministic re-pin map recovery chose —
    ``{site_id: new_host_id}`` for every site whose resident state moved off
    the dead host — and ``replayed_frames`` how many replay dispatches
    rebuilding that state cost (their bytes appear under the ``replay_*``
    kinds of the same ledger).
    """

    host: int
    round_index: int
    reason: str
    repin: Dict[int, int]
    replayed_frames: int


@dataclass
class WireLedger:
    """Append-only record of every frame sent over runner sockets."""

    records: List[WireRecord] = field(default_factory=list)
    #: Recovered runner deaths, in the order they were handled.  Empty on a
    #: failure-free run.
    recovery: List[RecoveryEvent] = field(default_factory=list)

    def record_recovery(
        self,
        *,
        host: int,
        round_index: int,
        reason: str,
        repin: Dict[int, int],
        replayed_frames: int,
    ) -> RecoveryEvent:
        """Append one recovered-death event and return it."""
        event = RecoveryEvent(
            host=int(host),
            round_index=int(round_index),
            reason=str(reason),
            repin={int(k): int(v) for k, v in repin.items()},
            replayed_frames=int(replayed_frames),
        )
        self.recovery.append(event)
        return event

    def record(
        self,
        *,
        round_index: int,
        host: int,
        direction: str,
        kind: str,
        n_bytes: int,
        raw_bytes: Optional[int] = None,
        codec: str = "none",
        tracer: Optional[Any] = None,
    ) -> WireRecord:
        """Append one frame record and return it.

        With a ``tracer`` the record is mirrored into its counters: the raw
        size into ``wire.bytes``, the encoded size into
        ``wire.bytes_encoded``, each also under ``.<direction>`` and
        ``.<kind>``, and the encoded size of a ``replay*`` frame into
        ``recovery.replay_bytes``.
        """
        rec = WireRecord(
            round_index=int(round_index),
            host=int(host),
            direction=str(direction),
            kind=str(kind),
            n_bytes=int(n_bytes),
            raw_bytes=None if raw_bytes is None else int(raw_bytes),
            codec=str(codec),
        )
        self.records.append(rec)
        if tracer is not None:
            for suffix in ("", "." + rec.direction, "." + rec.kind):
                tracer.inc("wire.bytes" + suffix, rec.raw_bytes)
                tracer.inc("wire.bytes_encoded" + suffix, rec.n_bytes)
            if rec.kind.startswith("replay"):
                tracer.inc("recovery.replay_bytes", rec.n_bytes)
        return rec

    # ------------------------------------------------------------------
    # Aggregations (physical / encoded bytes)
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Total wire bytes across all frames and rounds (encoded sizes)."""
        return int(sum(r.n_bytes for r in self.records))

    def bytes_by_round(self) -> Dict[int, int]:
        """Total wire bytes per protocol round."""
        out: Dict[int, int] = {}
        for r in self.records:
            out[r.round_index] = out.get(r.round_index, 0) + r.n_bytes
        return out

    def bytes_by_host(self) -> Dict[int, int]:
        """Total wire bytes exchanged with each runner host."""
        out: Dict[int, int] = {}
        for r in self.records:
            out[r.host] = out.get(r.host, 0) + r.n_bytes
        return out

    def bytes_by_kind(self) -> Dict[str, int]:
        """Total wire bytes per frame kind."""
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + r.n_bytes
        return out

    def bytes_by_host_kind(self) -> Dict[int, Dict[str, int]]:
        """Per-host wire bytes broken down by frame kind.

        The report layer's shape: one inner dict per runner host mapping
        each frame kind that host exchanged to its byte total.
        """
        out: Dict[int, Dict[str, int]] = {}
        for r in self.records:
            per_host = out.setdefault(r.host, {})
            per_host[r.kind] = per_host.get(r.kind, 0) + r.n_bytes
        return out

    def bytes_by_round_host(self) -> Dict[int, Dict[int, int]]:
        """Wire bytes per round, broken down by runner host."""
        out: Dict[int, Dict[int, int]] = {}
        for r in self.records:
            per_round = out.setdefault(r.round_index, {})
            per_round[r.host] = per_round.get(r.host, 0) + r.n_bytes
        return out

    def bytes_by_direction(self) -> Dict[str, int]:
        """Total wire bytes split into dispatch (send) and result (recv) traffic."""
        sent = sum(r.n_bytes for r in self.records if r.direction == "send")
        received = sum(r.n_bytes for r in self.records if r.direction == "recv")
        return {"send": int(sent), "recv": int(received)}

    # ------------------------------------------------------------------
    # Aggregations (raw / pre-codec bytes)
    # ------------------------------------------------------------------

    def total_raw_bytes(self) -> int:
        """Total bytes the recorded frames would occupy uncompressed."""
        return int(sum(r.raw_bytes for r in self.records))

    def raw_bytes_by_kind(self) -> Dict[str, int]:
        """Pre-codec bytes per frame kind."""
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + r.raw_bytes
        return out

    def raw_bytes_by_direction(self) -> Dict[str, int]:
        """Pre-codec bytes split into dispatch and result traffic."""
        sent = sum(r.raw_bytes for r in self.records if r.direction == "send")
        received = sum(r.raw_bytes for r in self.records if r.direction == "recv")
        return {"send": int(sent), "recv": int(received)}

    def compression_by_kind(self) -> Dict[str, float]:
        """Raw-over-encoded ratio per frame kind (1.0 = nothing saved)."""
        raw = self.raw_bytes_by_kind()
        enc = self.bytes_by_kind()
        return {
            kind: (raw[kind] / enc[kind]) if enc[kind] else 1.0
            for kind in raw
        }

    def compression_ratio(self) -> float:
        """Overall raw-over-encoded ratio of the run (1.0 = nothing saved)."""
        encoded = self.total_bytes()
        return (self.total_raw_bytes() / encoded) if encoded else 1.0

    def n_frames(self) -> int:
        """Number of frames recorded."""
        return len(self.records)

    def merge(self, other: "WireLedger") -> None:
        """Fold another wire ledger's frames (and recovery events) into this one."""
        self.records.extend(other.records)
        self.recovery.extend(other.recovery)

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by reports and benchmark output.

        ``total_bytes`` and every ``by_*`` entry are the physical (encoded)
        sizes; ``raw_bytes``/``raw_by_kind`` are their pre-codec twins and
        ``compression``/``compression_by_kind`` the resulting ratios.
        """
        return {
            "total_bytes": self.total_bytes(),
            "raw_bytes": self.total_raw_bytes(),
            "compression": self.compression_ratio(),
            "frames": self.n_frames(),
            "by_round": self.bytes_by_round(),
            "by_host": self.bytes_by_host(),
            "by_kind": self.bytes_by_kind(),
            "raw_by_kind": self.raw_bytes_by_kind(),
            "compression_by_kind": self.compression_by_kind(),
            "by_host_kind": self.bytes_by_host_kind(),
            "by_direction": self.bytes_by_direction(),
            "raw_by_direction": self.raw_bytes_by_direction(),
            "recovery": [
                {
                    "host": e.host,
                    "round": e.round_index,
                    "reason": e.reason,
                    "repin": dict(e.repin),
                    "replayed_frames": e.replayed_frames,
                }
                for e in self.recovery
            ],
        }


__all__ = ["FRAME_KINDS", "RecoveryEvent", "WireLedger", "WireRecord"]
