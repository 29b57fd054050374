"""Who holds a site's ``state`` between rounds.

A :class:`~repro.runtime.tasks.SiteTask` mutates its site's ``ctx.state``
dict, and :func:`~repro.runtime.tasks.run_site_tasks` stores what comes back
in ``Site.state`` so the next round continues where this one stopped.  The
coordinator never reads it: as in the paper's coordinator model, a driver
learns about a site only from the site's messages and its task's return
value.

The serial backend hands the state dict back.  The cluster backend keeps
it resident on the runner that produced it: the result frame carries a
:data:`STATE_DIGEST_TAG` digest (the entry keys, each entry's
:func:`state_entry_size` and a monotonically increasing *state epoch*),
which recovery uses to check a replayed copy, and ``Site.state`` becomes a
:class:`ResidentState` handle.  The next dispatch turns the handle into a
``(STATE_TOKEN_TAG, epoch)`` token instead of re-pickling the dict.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

import numpy as np

#: Result-frame marker: ``(STATE_DIGEST_TAG, epoch, {key: size})`` stands
#: for the state dict the runner kept resident (sizes from
#: :func:`state_entry_size`).
STATE_DIGEST_TAG = "__state_digest__"

#: Dispatch-frame marker: ``(STATE_TOKEN_TAG, epoch)`` names the resident
#: state a site task continues from instead of shipping the dict.
STATE_TOKEN_TAG = "__state_token__"


class _SizingPickler(pickle.Pickler):
    """Pickles every array as its dtype and shape, adding up its ``nbytes``."""

    def __init__(self, sink: io.BytesIO):
        super().__init__(sink, protocol=pickle.HIGHEST_PROTOCOL)
        self.array_bytes = 0

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            self.array_bytes += obj.nbytes
            return tuple, ((obj.dtype.str, obj.shape),)
        return NotImplemented


def state_entry_size(value: Any) -> int:
    """The digest size of one state entry: its pickle, arrays at ``nbytes``.

    Every ``np.ndarray`` (a memmap included) is priced at its ``nbytes``
    and its data is never read or copied, so sizing a disk-backed cost
    matrix costs neither RAM nor I/O.  Arrays of different lengths give
    different sizes, which is what recovery's replay check compares.
    """
    sink = io.BytesIO()
    pickler = _SizingPickler(sink)
    pickler.dump(value)
    return sink.tell() + pickler.array_bytes


def is_state_token(value: Any) -> bool:
    """True if ``value`` is a resident-state dispatch token."""
    return isinstance(value, tuple) and len(value) == 2 and value[0] == STATE_TOKEN_TAG


class ResidentState:
    """Opaque stand-in for a site's state dict that lives on a cluster runner.

    It names the state (``resident_key``, ``site_id``, ``epoch``) and holds
    none of it.  Only the backend that produced it reads it, and only while
    it is the key's current handle: dispatching a superseded handle, or one
    whose run ended, raises :class:`RuntimeError`.  Recovery moves the current handle to the epoch
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
    "state_entry_size",
]
