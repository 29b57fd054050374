"""Who holds a site's ``state`` between rounds.

A :class:`~repro.runtime.tasks.SiteTask` mutates its site's ``ctx.state``
dict, and :func:`~repro.runtime.tasks.run_site_tasks` stores what comes back
in ``Site.state`` so the next round continues where this one stopped.  The
coordinator never reads it: as in the paper's coordinator model, a driver
learns about a site only from the site's messages and its task's return
value.

In-process backends (serial / process) hand the state dict back.
The cluster backend keeps it resident on the runner that produced it: the
result frame carries a :data:`STATE_DIGEST_TAG` digest (the entry keys, each
entry's pickled size and a monotonically increasing *state epoch*), which
recovery uses to check a replayed copy, and ``Site.state`` becomes a
:class:`ResidentState` handle.  The next dispatch turns the handle into a
``(STATE_TOKEN_TAG, epoch)`` token instead of re-pickling the dict.
"""

from __future__ import annotations

from typing import Any

#: Result-frame marker: ``(STATE_DIGEST_TAG, epoch, {key: pickled_bytes})``
#: stands for the state dict the runner kept resident.
STATE_DIGEST_TAG = "__state_digest__"

#: Dispatch-frame marker: ``(STATE_TOKEN_TAG, epoch)`` names the resident
#: state a site task continues from instead of shipping the dict.
STATE_TOKEN_TAG = "__state_token__"


def is_state_token(value: Any) -> bool:
    """True if ``value`` is a resident-state dispatch token."""
    return isinstance(value, tuple) and len(value) == 2 and value[0] == STATE_TOKEN_TAG


class ResidentState:
    """Opaque stand-in for a site's state dict that lives on a cluster runner.

    It names the state (``resident_key``, ``site_id``, ``epoch``) and holds
    none of it.  Only the backend that produced it reads it, and only while
    it is the key's current handle: dispatching a superseded handle raises
    :class:`RuntimeError`.  Recovery moves the current handle to the epoch
    of the replayed copy.
    """

    __slots__ = ("resident_key", "site_id", "epoch", "__weakref__")

    def __init__(self, resident_key: Any, site_id: int, epoch: int):
        self.resident_key = resident_key
        self.site_id = int(site_id)
        self.epoch = int(epoch)


__all__ = [
    "ResidentState",
    "STATE_DIGEST_TAG",
    "STATE_TOKEN_TAG",
    "is_state_token",
]
