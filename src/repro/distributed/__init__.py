"""Coordinator-model substrate.

The paper's model: ``s`` sites hold disjoint shards of the input and talk
only to a central coordinator over a star network, in synchronous rounds.
Communication is the resource being optimised, so the simulator's job is to
*account* for every word that crosses the star, not to move bytes.

* :class:`Message`, :class:`CommunicationLedger` — per-message word counts,
  per-round / per-direction totals.
* :class:`Site`, :class:`Coordinator`, :class:`StarNetwork` — the parties and
  the instrumented channel between them.
* :class:`DistributedInstance` — a clustering input split across sites.
* :class:`DistributedResult` — centers + outliers + accounting returned by
  every protocol in :mod:`repro.core` and :mod:`repro.baselines`.
* :mod:`repro.distributed.partition` — balanced / skewed / adversarial data
  partitioners.
"""

from repro.distributed.messages import Message, CommunicationLedger
from repro.distributed.network import Site, Coordinator, StarNetwork
from repro.distributed.instance import DistributedInstance, UncertainDistributedInstance
from repro.distributed.result import DistributedResult
from repro.distributed.partition import (
    partition_balanced,
    partition_dirichlet,
    partition_round_robin,
    partition_outliers_concentrated,
)

__all__ = [
    "Message",
    "CommunicationLedger",
    "Site",
    "Coordinator",
    "StarNetwork",
    "DistributedInstance",
    "UncertainDistributedInstance",
    "DistributedResult",
    "partition_balanced",
    "partition_dirichlet",
    "partition_round_robin",
    "partition_outliers_concentrated",
]
