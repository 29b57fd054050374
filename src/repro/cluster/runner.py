"""The long-lived per-host runner process of the cluster backend.

One runner is spawned per simulated host.  It connects back to the
coordinator over a unix-domain socket, announces itself, then serves
dispatch frames until it is told to shut down (or its socket dies with the
coordinator).  It serves two frame shapes:

``("site", seq, resident_key, sticky, dyn, evict)``
    One site's share of a protocol round — the only task shape the cluster
    runs.  ``sticky`` is the site's heavy immutable half, its site view: the
    site's view of its input (for a Euclidean, matrix or graph metric, its
    own ``n_i`` rows and not the whole input; see
    ``DistributedInstance.site_view``), or its uncertain nodes.  It carries
    no global id: the site names its points by local ids, and the
    coordinator maps them.  It is shipped **once** per protocol run and kept
    resident under ``resident_key``; later rounds send ``sticky=None`` and
    the runner reuses its cached copy, so the view is never re-pickled
    round after round.  ``evict`` lists the keys of ended runs, whose site
    views and state the runner drops before it runs the task, so what a
    runner holds is bounded by the runs in progress.  ``dyn`` carries the
    per-round payload (task function, arguments, site state, RNG stream,
    inbox) — where the *state* slot is either a plain dict (the site's
    first round) or a :data:`~repro.runtime.state.STATE_TOKEN_TAG` token
    ``(tag, epoch)`` naming the **mutable state this runner already holds**
    from the previous round.  After the task runs, the new state stays resident
    under ``resident_key`` at ``epoch + 1`` and the reply carries only a
    :data:`~repro.runtime.state.STATE_DIGEST_TAG` digest (keys, per-entry
    sizes, the new epoch), which recovery checks a replayed copy
    against — never the dict itself.  The reply ``("site_res", seq, result,
    extras)`` carries the task's return value and its buffered
    site-to-coordinator messages as ``(kind, payload, words)`` entries,
    payload objects included, in the one pickle of the result frame: numpy
    arrays travel out of band, and an object the task both sends and
    returns is pickled once.  ``extras`` carries, when ``dyn["trace"]`` is
    set, the task's :class:`~repro.obs.trace.TraceBuffer`, which the
    coordinator absorbs onto its trace timeline.  The site's own timer
    gains a ``cluster:encode`` label (the state digest is genuine site-side
    work), so cluster site timers carry the serial labels plus
    ``cluster:encode``.

``("shutdown",)``
    Reply ``("bye", host_id)`` and exit.

Every site reply is encoded under the ``site`` codec of the
:class:`~repro.cluster.framing.WirePolicy` resolved from the runner's
(inherited) environment, so both directions of a channel agree on codecs
without negotiation.

When the pool's retry policy sets a heartbeat timeout, the runner is
spawned with :data:`~repro.cluster.recovery.HEARTBEAT_INTERVAL_ENV` in its
environment and a daemon thread sends unsolicited ``("hb", seq)`` frames
at that interval, so a runner stalled inside a long task (or wedged by a
SIGSTOP) is distinguishable from one that is merely busy.  ``seq`` names
the frame being executed (``None`` when idle), whose wire ledger records
the heartbeat under the ``hb`` kind.  Heartbeats and replies share one
send lock, and a reply clears ``seq`` under it, so a heartbeat naming a
frame always crosses the socket before that frame's reply.

Failures inside a task are caught and relayed as ``("exc", seq, exc, tb)``
frames with the original exception object whenever it pickles; the runner
itself stays alive for the next frame.  The runner is started as a fresh
``python -m repro.cluster.runner`` subprocess: it inherits nothing from the
coordinator's address space, so anything it computes on genuinely arrived
through the socket — distributed memory, not shared memory with extra
steps.  A runner also exits on its own when the coordinator's socket
closes, so an abruptly killed coordinator never leaks runner processes.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.framing import Codec, FrameChannel, NONE_CODEC, WirePolicy
from repro.cluster.recovery import HEARTBEAT_INTERVAL_ENV
from repro.obs.trace import TraceBuffer, collector_scope
from repro.runtime.state import STATE_DIGEST_TAG, is_state_token, state_entry_size


def _resolve_state(resident_key, dyn_state, resident_state: Dict[Any, Tuple[int, dict]]):
    """The state dict a site task runs against, honouring resident epochs."""
    if not is_state_token(dyn_state):
        return dict(dyn_state) if dyn_state else {}
    _, epoch = dyn_state
    entry = resident_state.get(resident_key)
    if entry is None:
        raise RuntimeError(
            f"runner has no resident mutable state for {resident_key!r}; the "
            "coordinator must ship the state dict before referencing it by epoch"
        )
    held_epoch, state = entry
    if held_epoch != epoch:
        raise RuntimeError(
            f"resident state for {resident_key!r} is at epoch {held_epoch}, "
            f"but the dispatch references epoch {epoch}"
        )
    return state


def _execute_site(
    frame: Tuple,
    resident: Dict[Any, Tuple],
    resident_state: Dict[Any, Tuple[int, dict]],
    host_id: int,
) -> Tuple:
    """Evaluate a ``("site", ...)`` frame against the resident caches."""
    from repro.runtime.tasks import SiteContext

    _, seq, resident_key, sticky, dyn, evict = frame
    for stale_key in evict:
        # The coordinator names the keys of ended runs, so resident memory
        # stays bounded by the runs in progress, not the runs served.
        resident.pop(stale_key, None)
        resident_state.pop(stale_key, None)
    if sticky is not None:
        resident[resident_key] = sticky
    else:
        if resident_key not in resident:
            raise RuntimeError(
                f"runner has no resident state for {resident_key!r}; the "
                "coordinator must ship the site view before reusing it"
            )
        sticky = resident[resident_key]

    trace_on = bool(dyn.get("trace"))
    buffer = TraceBuffer(origin=f"host-{host_id}") if trace_on else None
    ctx = SiteContext(
        site_id=dyn["site_id"],
        local_metric=sticky,
        state=_resolve_state(resident_key, dyn["state"], resident_state),
        rng=dyn["rng"],
        inbox=dyn["inbox"],
        trace=buffer,
    )
    if buffer is not None:
        with collector_scope(buffer):
            with buffer.span("site_task", site=ctx.site_id):
                value = dyn["fn"](ctx, *dyn["args"], **dyn["kwargs"])
    else:
        value = dyn["fn"](ctx, *dyn["args"], **dyn["kwargs"])

    # The state digest is genuine site-side work the serial path never pays;
    # it lands in the site's own timer under a ``cluster:`` label, so
    # cluster site timers are the serial label set plus ``cluster:encode``.
    with ctx.timer.measure("cluster:encode"):
        # The mutable state stays where it was produced; the coordinator
        # gets a digest (keys, per-entry sizes, the new epoch) that
        # fingerprints it, so recovery can check a replayed copy.
        previous = resident_state.get(resident_key)
        epoch = (previous[0] if previous is not None else 0) + 1
        resident_state[resident_key] = (epoch, ctx.state)
        sizes = {key: state_entry_size(value_) for key, value_ in ctx.state.items()}

    result = {
        "site_id": ctx.site_id,
        "value": value,
        "state": (STATE_DIGEST_TAG, epoch, sizes),
        "timer": ctx.timer,
        "rng": ctx.rng,
        "outbox": [(out.kind, out.payload, out.words) for out in ctx.outbox],
    }
    extras = {"trace": buffer} if buffer is not None else {}
    return ("site_res", seq, result, extras)


def _exception_frame(seq: int, exc: BaseException) -> Tuple:
    """Relay a task failure, preserving the original exception when it pickles."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return ("exc", seq, None, tb)
    return ("exc", seq, exc, tb)


def _heartbeat_interval() -> float:
    """Seconds between heartbeat frames (0 disables; from the environment)."""
    raw = os.environ.get(HEARTBEAT_INTERVAL_ENV, "")
    try:
        return float(raw) if raw else 0.0
    except ValueError:
        return 0.0


def _heartbeat_loop(
    channel: FrameChannel,
    executing: List[Optional[int]],
    send_lock: threading.Lock,
    stop: threading.Event,
    interval: float,
) -> None:
    """Send ``("hb", executing[0])`` frames until told to stop (or the socket dies)."""
    while not stop.wait(interval):
        try:
            with send_lock:
                channel.send(("hb", executing[0]))
        except OSError:
            return  # coordinator gone; the serve loop is exiting too


def serve(channel: FrameChannel, host_id: int) -> None:
    """Serve dispatch frames until shutdown or coordinator disconnect."""
    resident: Dict[Any, Tuple] = {}
    resident_state: Dict[Any, Tuple[int, dict]] = {}
    # Replies travel under the same base kind's codec as their request, so
    # the coordinator's ledger prices both directions of a kind consistently.
    site_codec = WirePolicy.from_env().codec_for("site")
    send_lock = threading.Lock()
    stop = threading.Event()
    executing: List[Optional[int]] = [None]  # the seq heartbeats name

    def send(frame: Tuple, codec: Optional[Codec] = None) -> None:
        # All socket writes go through the send lock so heartbeat frames
        # never interleave with a reply frame's bytes; after a reply,
        # heartbeats no longer name its frame.
        with send_lock:
            executing[0] = None
            if codec is None:
                channel.send(frame)
            else:
                channel.send(frame, codec)

    interval = _heartbeat_interval()
    if interval > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(channel, executing, send_lock, stop, interval),
            daemon=True,
            name=f"runner-{host_id}-heartbeat",
        ).start()
    try:
        send(("hello", host_id))
        while True:
            try:
                frame, _, _, _ = channel.recv()
            except ConnectionError:
                return  # coordinator went away; nothing left to serve
            except Exception as exc:  # noqa: BLE001 - e.g. an unimportable task fn
                # The frame failed to decode before a sequence number was known,
                # so it cannot be answered; report why and die loudly instead of
                # leaving the coordinator a bare connection reset.
                tb = traceback.format_exc()
                try:
                    send(("fatal", f"frame decode failed: {exc!r}\n{tb}"))
                except OSError:
                    pass
                raise
            tag = frame[0]
            if tag == "shutdown":
                try:
                    send(("bye", host_id))
                except OSError:
                    pass
                return
            seq = executing[0] = frame[1]
            codec = site_codec
            try:
                if tag != "site":
                    raise RuntimeError(f"unknown frame tag {tag!r}")
                response = _execute_site(frame, resident, resident_state, host_id)
            except BaseException as exc:  # noqa: BLE001 - relayed to the coordinator
                response = _exception_frame(seq, exc)
                codec = NONE_CODEC
            try:
                send(response, codec)
            except OSError:
                return  # coordinator gone mid-reply; nothing left to serve
            except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable result
                # Frames are encoded before any byte hits the socket, so a
                # serialization failure leaves the stream clean: relay it as
                # this task's failure instead of dying and losing the host.
                send(
                    _exception_frame(
                        seq,
                        RuntimeError(f"task result could not be serialized: {exc!r}"),
                    )
                )
    finally:
        stop.set()


def runner_main(socket_path: str, host_id: int) -> None:
    """Entry point of a runner process: connect, serve, exit."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(socket_path)
    channel = FrameChannel(sock)
    try:
        serve(channel, host_id)
    finally:
        channel.close()


if __name__ == "__main__":  # pragma: no cover - exercised in a child process
    import sys

    runner_main(sys.argv[1], int(sys.argv[2]))


__all__ = ["runner_main", "serve"]
