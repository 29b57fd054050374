"""Sites, coordinator and the instrumented star network.

The simulator is synchronous: a protocol advances the network round by round
(:meth:`StarNetwork.next_round`), and every message sent is charged to the
current round in the :class:`CommunicationLedger`.  Payloads are delivered
in-process (no serialisation); what matters for the paper's claims is the
*word count* attached to each message, which the protocol computes from what
it semantically transmits (hull vertices, centers, counts, outlier points).

Site-local and coordinator-local computation times are accumulated in
:class:`repro.utils.timing.Timer` objects so the benchmark harness can report
the paper's "Local Time" columns.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union
from uuid import uuid4

import numpy as np

from repro.distributed.instance import DistributedInstance, UncertainDistributedInstance
from repro.distributed.messages import COORDINATOR, CommunicationLedger, Message
from repro.utils.timing import Timer


class Site:
    """A site in the coordinator model.

    A site owns a shard of global indices and the view of the input it
    holds (``local_metric``, local indices ``0..n_i-1``): the metric
    restricted to its own points for a :class:`DistributedInstance`, its own
    uncertain nodes for an :class:`UncertainDistributedInstance`.  It may
    evaluate distances among its own points or to points that have been
    communicated to it.  The inbox holds messages delivered by the
    coordinator in the current round.
    """

    def __init__(self, site_id: int, shard: np.ndarray, local_metric: Any):
        self.site_id = int(site_id)
        self.shard = np.asarray(shard, dtype=int)
        self.local_metric = local_metric
        self.inbox: List[Message] = []
        self.timer = Timer()
        #: Mutable per-round state.  Starts as a plain dict; after a round
        #: on a wire backend it may be a lazy mapping proxy whose entries
        #: live on the site's runner (see :mod:`repro.runtime.state`) —
        #: treat it as a MutableMapping, and read it while the backend is
        #: still open (or ``pull_state()`` first).
        self.state: Dict[str, Any] = {}
        # Identity of this site's immutable half (shard + local metric) for
        # runner-resident caching: unique per Site instance, so a new
        # protocol run (new StarNetwork, new Sites) never aliases stale
        # remote state.
        self.resident_key = f"site-{self.site_id}-{uuid4().hex}"

    @property
    def n_points(self) -> int:
        """Number of points (or nodes) held by the site (the paper's ``n_i``)."""
        return int(self.shard.size)

    def to_global(self, local_indices) -> np.ndarray:
        """Map site-local indices to global indices."""
        return self.shard[np.asarray(local_indices, dtype=int)]

    def receive(self, message: Message) -> None:
        """Deliver a message into the site's inbox."""
        self.inbox.append(message)

    def drain_inbox(self) -> List[Message]:
        """Return and clear the inbox."""
        out, self.inbox = self.inbox, []
        return out


class Coordinator:
    """The coordinator: no input data, only what the sites send it."""

    def __init__(self):
        self.inbox: List[Message] = []
        self.timer = Timer()
        self.state: Dict[str, Any] = {}

    def receive(self, message: Message) -> None:
        """Deliver a message into the coordinator's inbox."""
        self.inbox.append(message)

    def drain_inbox(self) -> List[Message]:
        """Return and clear the inbox."""
        out, self.inbox = self.inbox, []
        return out

    def messages_from(self, site_id: int, kind: Optional[str] = None) -> List[Message]:
        """Messages currently in the inbox sent by ``site_id`` (optionally of one kind)."""
        return [
            m
            for m in self.inbox
            if m.sender == site_id and (kind is None or m.kind == kind)
        ]


class StarNetwork:
    """The star communication network of the coordinator model.

    Every transmission goes through :meth:`send_to_coordinator` or
    :meth:`send_to_site`, which records a :class:`Message` in the ledger and
    delivers the payload.  Rounds are advanced explicitly by the protocol.
    """

    def __init__(
        self, instance: Union[DistributedInstance, UncertainDistributedInstance]
    ):
        self.instance = instance
        self.sites = [
            Site(i, instance.shard(i), instance.site_view(i))
            for i in range(instance.n_sites)
        ]
        self.coordinator = Coordinator()
        self.ledger = CommunicationLedger()
        self._round = 0
        #: Optional :class:`~repro.obs.trace.Tracer` a traced protocol run
        #: installs; :func:`~repro.runtime.tasks.run_site_tasks` reads it to
        #: record round spans and absorb task buffers.  ``None`` (the
        #: default) keeps the network entirely untraced.
        self.tracer = None

    # ------------------------------------------------------------------
    # Round management
    # ------------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of sites."""
        return len(self.sites)

    @property
    def current_round(self) -> int:
        """The current round index (0 before the protocol starts)."""
        return self._round

    def next_round(self) -> int:
        """Advance to the next synchronous round and return its index."""
        self._round += 1
        return self._round

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _require_started(self) -> None:
        if self._round < 1:
            raise RuntimeError("call next_round() before sending messages")

    def send_to_coordinator(
        self,
        site_id: int,
        kind: str,
        payload: Any,
        words: float,
        *,
        n_bytes: Optional[int] = None,
        n_bytes_encoded: Optional[int] = None,
    ) -> Message:
        """Send ``payload`` from a site to the coordinator, charging ``words``.

        ``n_bytes`` is the payload's serialized size when it physically
        crossed a wire (cluster backend) and ``n_bytes_encoded`` its size
        under the result frame's codec; in-process deliveries leave both
        ``None``.
        """
        self._require_started()
        if not (0 <= site_id < self.n_sites):
            raise ValueError(f"unknown site id {site_id}")
        message = Message(
            sender=site_id,
            receiver=COORDINATOR,
            round_index=self._round,
            kind=kind,
            words=float(words),
            payload=payload,
            n_bytes=n_bytes,
            n_bytes_encoded=n_bytes_encoded,
        )
        self.ledger.record(message)
        self.coordinator.receive(message)
        return message

    def send_to_site(
        self,
        site_id: int,
        kind: str,
        payload: Any,
        words: float,
        *,
        n_bytes: Optional[int] = None,
    ) -> Message:
        """Send ``payload`` from the coordinator to one site, charging ``words``."""
        self._require_started()
        if not (0 <= site_id < self.n_sites):
            raise ValueError(f"unknown site id {site_id}")
        message = Message(
            sender=COORDINATOR,
            receiver=site_id,
            round_index=self._round,
            kind=kind,
            words=float(words),
            payload=payload,
            n_bytes=n_bytes,
        )
        self.ledger.record(message)
        self.sites[site_id].receive(message)
        return message

    def broadcast(self, kind: str, payload: Any, words_per_site: float) -> List[Message]:
        """Send the same payload from the coordinator to every site.

        Each copy is charged separately (the star network has no physical
        broadcast), matching the paper's accounting.
        """
        return [
            self.send_to_site(i, kind, payload, words_per_site) for i in range(self.n_sites)
        ]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def site_times(self, label: Optional[str] = None) -> Dict[int, float]:
        """Per-site accumulated computation time.

        With ``label=None`` the sum over all labels is returned for each site.
        """
        out: Dict[int, float] = {}
        for site in self.sites:
            if label is None:
                out[site.site_id] = float(sum(site.timer.totals.values()))
            else:
                out[site.site_id] = site.timer.total(label)
        return out

    def coordinator_time(self, label: Optional[str] = None) -> float:
        """Accumulated coordinator computation time."""
        if label is None:
            return float(sum(self.coordinator.timer.totals.values()))
        return self.coordinator.timer.total(label)


__all__ = ["Site", "Coordinator", "StarNetwork"]
