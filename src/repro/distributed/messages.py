"""Messages and the communication ledger.

The unit of accounting is the *word*: one scalar (float or integer) equals
one word, and a point of a ``d``-dimensional Euclidean metric equals ``d``
words (the metric's ``words_per_point`` — the paper's ``B``).  This is a
constant-factor rescaling of the paper's "bits", which is all the asymptotic
claims need (see DESIGN.md Substitutions).

Next to the semantic word counts the ledger can carry *wire* bytes: when a
run executes on the cluster backend, the backend attaches its frame-level
:class:`~repro.cluster.wire.WireLedger`, which counts every frame's bytes
once, so :meth:`CommunicationLedger.summary` reports ``total_bytes`` /
``bytes_by_round`` alongside the words.  A message carries no byte count of
its own: several messages share one result frame.  Its raw size is its
pickled payload, ``len(pickle.dumps(message.payload))``, on any backend.
On the serial backend no wire ever ran and the byte views report
0 — words stay the backend-invariant currency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hint only
    from repro.cluster.wire import WireLedger

COORDINATOR = -1
"""Sentinel party id for the coordinator."""


@dataclass(frozen=True)
class Message:
    """A single message crossing the star network.

    Attributes
    ----------
    sender, receiver:
        Party ids; sites are ``0..s-1`` and the coordinator is
        :data:`COORDINATOR`.
    round_index:
        The synchronous round in which the message was sent (1-based).
    kind:
        Free-form label used by reports (e.g. ``"cost_profile"``,
        ``"local_centers"``).
    words:
        Number of machine words charged for the message.
    payload:
        The actual Python object delivered to the receiver.  The ledger
        accounts for its size via ``words``.
    """

    sender: int
    receiver: int
    round_index: int
    kind: str
    words: float
    payload: Any = None

    def __post_init__(self) -> None:
        if self.words < 0:
            raise ValueError(f"message word count must be non-negative, got {self.words}")
        if self.round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {self.round_index}")

    @property
    def to_coordinator(self) -> bool:
        """True if the message flows site -> coordinator."""
        return self.receiver == COORDINATOR


@dataclass
class CommunicationLedger:
    """Append-only record of every message sent during a protocol run.

    Per-kind and per-site views are served from lazily built indices: the
    first call to :meth:`words_by_kind` / :meth:`words_by_site` /
    :meth:`filter` (by kind) builds them, after which :meth:`record` and
    :meth:`merge` keep them consistent incrementally — a protocol that polls
    ``filter(kind=...)`` every round no longer rescans the whole history.
    """

    messages: List[Message] = field(default_factory=list)
    #: Frame-level wire accounting, attached when a cluster backend ran
    #: (see :meth:`ensure_wire`).  ``None`` on purely in-process runs.
    wire: Optional["WireLedger"] = field(default=None, repr=False, compare=False)
    _kind_index: Optional[Dict[str, List[Message]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _site_index: Optional[Dict[int, List[Message]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def record(self, message: Message) -> None:
        """Append a message to the ledger."""
        self.messages.append(message)
        self._index_message(message)

    def _index_message(self, message: Message) -> None:
        if self._kind_index is not None:
            self._kind_index.setdefault(message.kind, []).append(message)
        if self._site_index is not None and message.to_coordinator:
            self._site_index.setdefault(message.sender, []).append(message)

    def _by_kind(self) -> Dict[str, List[Message]]:
        if self._kind_index is None:
            index: Dict[str, List[Message]] = {}
            for m in self.messages:
                index.setdefault(m.kind, []).append(m)
            self._kind_index = index
        return self._kind_index

    def _by_site(self) -> Dict[int, List[Message]]:
        if self._site_index is None:
            index: Dict[int, List[Message]] = {}
            for m in self.messages:
                if m.to_coordinator:
                    index.setdefault(m.sender, []).append(m)
            self._site_index = index
        return self._site_index

    def ensure_wire(self) -> "WireLedger":
        """The attached wire ledger, creating an empty one on first use."""
        if self.wire is None:
            from repro.cluster.wire import WireLedger

            self.wire = WireLedger()
        return self.wire

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------

    def total_words(self) -> float:
        """Total words across all messages and rounds."""
        return float(sum(m.words for m in self.messages))

    def words_by_round(self) -> Dict[int, float]:
        """Total words per round index."""
        out: Dict[int, float] = {}
        for m in self.messages:
            out[m.round_index] = out.get(m.round_index, 0.0) + m.words
        return out

    def words_by_kind(self) -> Dict[str, float]:
        """Total words per message kind."""
        return {
            kind: float(sum(m.words for m in msgs))
            for kind, msgs in self._by_kind().items()
        }

    def words_by_direction(self) -> Dict[str, float]:
        """Total words split into uplink (site -> coordinator) and downlink."""
        up = sum(m.words for m in self.messages if m.to_coordinator)
        down = sum(m.words for m in self.messages if not m.to_coordinator)
        return {"to_coordinator": float(up), "to_sites": float(down)}

    def words_by_site(self) -> Dict[int, float]:
        """Uplink words contributed by each site."""
        return {
            site: float(sum(m.words for m in msgs))
            for site, msgs in self._by_site().items()
        }

    # ------------------------------------------------------------------
    # Wire bytes (0 unless a wire transport actually ran)
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Total wire bytes of the run, from the attached :attr:`wire` ledger.

        It covers dispatch *and* result traffic, headers included; 0 when
        no wire transport ran.
        """
        return self.wire.total_bytes() if self.wire is not None else 0

    def bytes_by_round(self) -> Dict[int, int]:
        """Total wire bytes per round (empty when no wire transport ran)."""
        return self.wire.bytes_by_round() if self.wire is not None else {}

    def total_raw_bytes(self) -> int:
        """Pre-codec twin of :meth:`total_bytes` (what the run would cost
        uncompressed); 0 when no wire transport ran."""
        return self.wire.total_raw_bytes() if self.wire is not None else 0

    def n_rounds(self) -> int:
        """Largest round index observed (0 if no messages were sent)."""
        return max((m.round_index for m in self.messages), default=0)

    def n_messages(self) -> int:
        """Number of messages recorded."""
        return len(self.messages)

    def filter(self, *, kind: Optional[str] = None, round_index: Optional[int] = None) -> List[Message]:
        """Messages matching the given kind and/or round."""
        out: Iterable[Message]
        if kind is not None:
            out = self._by_kind().get(kind, [])
        else:
            out = self.messages
        if round_index is not None:
            out = (m for m in out if m.round_index == round_index)
        return list(out)

    def merge(self, other: "CommunicationLedger") -> None:
        """Fold another ledger's messages into this one (used by meta-protocols).

        Any lazily built per-kind/per-site indices stay consistent (the
        other ledger's messages are folded into them too, not just into the
        flat list), and an attached wire ledger is merged as well.
        """
        self.messages.extend(other.messages)
        if self._kind_index is not None or self._site_index is not None:
            for message in other.messages:
                self._index_message(message)
        if other.wire is not None:
            self.ensure_wire().merge(other.wire)

    def summary(self) -> Dict[str, Any]:
        """Compact dictionary used by reports and benchmark output.

        The byte entries come from the frame-level :attr:`wire` ledger when
        one is attached (a cluster run, or ledgers merged from one via
        :meth:`merge`) and cover dispatch *and* result frames, headers
        included — so after merging a cluster ledger into an in-process one
        the summary reports the union of both runs' words alongside the
        cluster run's physical bytes.  ``wire`` holds the attached ledger's
        own summary (with its per-kind and per-host breakdowns) or ``None``
        when no wire transport ran.
        """
        return {
            "total_words": self.total_words(),
            "total_bytes": self.total_bytes(),
            "total_raw_bytes": self.total_raw_bytes(),
            "rounds": self.n_rounds(),
            "messages": self.n_messages(),
            "by_round": self.words_by_round(),
            "by_direction": self.words_by_direction(),
            "bytes_by_round": self.bytes_by_round(),
            "wire": self.wire.summary() if self.wire is not None else None,
        }


__all__ = ["COORDINATOR", "Message", "CommunicationLedger"]
