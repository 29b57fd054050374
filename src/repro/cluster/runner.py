"""The long-lived per-host runner process of the cluster backend.

One runner is spawned per simulated host.  It connects back to the
coordinator over a unix-domain socket, announces itself, then serves
dispatch frames until it is told to shut down (or its socket dies with the
coordinator).  It serves four frame shapes:

``("site", seq, resident_key, sticky, dyn, evict)``
    One site's share of a protocol round — the only task shape the cluster
    runs.  ``sticky`` is the site's heavy immutable half — ``(shard,
    local_metric)``, where the local metric is the site's view of its input
    (its points' metric, or its uncertain nodes) — shipped **once** per
    protocol run and kept resident under ``resident_key``; later rounds send
    ``sticky=None`` and the runner reuses its cached copy, so the view is
    never re-pickled round after round.  ``evict`` lists superseded keys to
    drop (a new run reusing the site slot), bounding resident memory by the
    number of live site slots.  ``dyn`` carries the per-round payload (task
    function, arguments, site state, RNG stream, inbox) — where the *state*
    slot is either a plain dict (first round, or residency was cleared) or a
    :data:`~repro.runtime.state.STATE_TOKEN_TAG` token ``(tag, epoch,
    writes, deleted)`` referencing the **mutable state this runner already
    holds** from the previous round, with the coordinator's write overlay
    applied on top.  After the task runs, the new state stays resident under
    ``resident_key`` at ``epoch + 1`` and the reply carries only a
    :data:`~repro.runtime.state.STATE_DIGEST_TAG` digest (keys, per-entry
    pickled sizes, the new epoch) — never the dict itself.  The reply
    ``("site_res", seq, result, extras)`` also encodes every buffered
    site-to-coordinator payload *individually*, so the coordinator learns
    the exact serialized size of each semantic message (the ``n_bytes`` it
    stamps on the communication ledger).  ``extras`` carries the frame's
    runner-overhead ``Timer`` (``cluster:task``, ``cluster:encode``) plus,
    when ``dyn["trace"]`` is set, the task's
    :class:`~repro.obs.trace.TraceBuffer`, which the coordinator absorbs
    onto its trace timeline.  The site's own timer additionally gains a
    ``cluster:encode`` label (outbox/digest encoding is genuine site-side
    work), so cluster site timers carry the serial labels plus
    ``cluster:*`` extras.

``("pull_state", seq, resident_key, epoch, keys)``
    Fault individual resident-state entries back to the coordinator (lazy
    proxy access, e.g. final solution extraction).  The epoch must match the
    resident copy — a stale proxy faulting after a newer round is an error,
    not silently newer data.  Reply ``("res", seq, {key: value})``.

``("clear_resident", seq)``
    Drop every resident entry — the sticky halves and the mutable state.
    Reply ``("res", seq, None)``.

``("shutdown",)``
    Reply ``("bye", host_id)`` and exit.

Every reply frame is encoded under the :class:`~repro.cluster.framing.WirePolicy`
resolved from the runner's (inherited) environment — site replies get the
compressing codec, state pulls and control frames stay uncompressed —
so both directions of a channel agree on codecs without negotiation.

When the pool's retry policy sets a heartbeat timeout (or a telemetry
session asks for runner resource samples), the runner is spawned with
:data:`~repro.cluster.recovery.HEARTBEAT_INTERVAL_ENV` in its environment
and a daemon thread sends unsolicited ``("hb", host_id, n[, sample])``
frames at that interval, so a runner stalled inside a long task (or wedged
by a SIGSTOP) is distinguishable from one that is merely busy.  With
:data:`~repro.obs.sampler.RESOURCE_SAMPLE_ENV` also set, each heartbeat
piggybacks one :func:`~repro.obs.sampler.read_resource_sample` dict — the
telemetry plane's runner-side RSS/CPU feed, costing zero extra round trips.
Heartbeat frames are accounted on the coordinator's wire ledger under the
``hb`` kind like every other frame (liveness-only heartbeats that arrive
before any run has attached a ledger are consumed unrecorded).  A send lock
serialises heartbeat frames with reply frames on the socket.

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
from typing import Any, Dict, Optional, Tuple

from repro.cluster.framing import Codec, FrameChannel, NONE_CODEC, WirePolicy, encode_payload
from repro.cluster.recovery import HEARTBEAT_INTERVAL_ENV
from repro.obs.sampler import read_resource_sample, resource_samples_enabled
from repro.obs.trace import TraceBuffer, collector_scope
from repro.runtime.state import STATE_DIGEST_TAG, is_state_token
from repro.utils.timing import Timer


def _resolve_state(resident_key, dyn_state, resident_state: Dict[Any, Tuple[int, dict]]):
    """The state dict a site task runs against, honouring resident epochs."""
    if not is_state_token(dyn_state):
        return dict(dyn_state) if dyn_state else {}
    _, epoch, writes, deleted = dyn_state
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
    for key in deleted:
        state.pop(key, None)
    state.update(writes)
    return state


def _execute_site(
    frame: Tuple,
    resident: Dict[Any, Tuple],
    resident_state: Dict[Any, Tuple[int, dict]],
    host_id: int,
    result_codec: Codec,
) -> Tuple:
    """Evaluate a ``("site", ...)`` frame against the resident caches."""
    from repro.runtime.tasks import SiteContext

    _, seq, resident_key, sticky, dyn, evict = frame
    for stale_key in evict:
        # The coordinator names superseded keys (a new protocol run reusing
        # this host's site slot), so resident memory stays bounded by the
        # number of live site slots, not the number of runs served.
        resident.pop(stale_key, None)
        resident_state.pop(stale_key, None)
    if sticky is not None:
        resident[resident_key] = sticky
    else:
        if resident_key not in resident:
            raise RuntimeError(
                f"runner has no resident state for {resident_key!r}; the "
                "coordinator must ship (shard, local_metric) before reusing it"
            )
        sticky = resident[resident_key]
    shard, local_metric = sticky

    trace_on = bool(dyn.get("trace"))
    buffer = TraceBuffer(origin=f"host-{host_id}") if trace_on else None
    frame_timer = Timer()
    ctx = SiteContext(
        site_id=dyn["site_id"],
        shard=shard,
        local_metric=local_metric,
        state=_resolve_state(resident_key, dyn["state"], resident_state),
        rng=dyn["rng"],
        inbox=dyn["inbox"],
        trace=buffer,
    )
    if buffer is not None:
        with collector_scope(buffer):
            with buffer.span("site_task", site=ctx.site_id):
                with frame_timer.measure("cluster:task"):
                    value = dyn["fn"](ctx, *dyn["args"], **dyn["kwargs"])
    else:
        with frame_timer.measure("cluster:task"):
            value = dyn["fn"](ctx, *dyn["args"], **dyn["kwargs"])

    # Encoding the outbox and state digest is genuine site-side work the
    # serial path never pays; it lands in the site's own timer under a
    # ``cluster:`` label (so cluster site timers are the serial label set
    # plus ``cluster:*``) and in the frame timer the coordinator folds into
    # its per-host runner totals.
    with ctx.timer.measure("cluster:encode"), frame_timer.measure("cluster:encode"):
        # Encode each buffered transmission separately: the byte length of
        # one payload here is exactly the n_bytes the coordinator stamps on
        # the corresponding ledger message, and running the frame's codec
        # over the same blob prices its *encoded* size (n_bytes_encoded) —
        # per-message honesty for both columns of the raw/encoded split.
        outbox = []
        for out in ctx.outbox:
            blob = encode_payload(out.payload)
            if result_codec.wire_id != NONE_CODEC.wire_id:
                n_encoded = min(len(blob), len(result_codec.compress(blob)))
            else:
                n_encoded = len(blob)
            outbox.append((out.kind, blob, out.words, len(blob), n_encoded))

        # The mutable state stays where it was produced; the coordinator
        # gets a digest (keys, per-entry pickled sizes, the new epoch) and
        # faults entries individually through "pull_state" on demand.  The
        # sizes are measured with the same encoder a fault would use, so the
        # digest prices each entry at its true wire cost.
        previous = resident_state.get(resident_key)
        epoch = (previous[0] if previous is not None else 0) + 1
        resident_state[resident_key] = (epoch, ctx.state)
        sizes = {key: len(encode_payload(value_)) for key, value_ in ctx.state.items()}

    result = {
        "site_id": ctx.site_id,
        "value": value,
        "state": (STATE_DIGEST_TAG, epoch, sizes),
        "timer": ctx.timer,
        "rng": ctx.rng,
        "outbox": outbox,
    }
    extras: Dict[str, Any] = {"timer": frame_timer}
    if buffer is not None:
        extras["trace"] = buffer
    return ("site_res", seq, result, extras)


def _execute_pull_state(frame: Tuple, resident_state: Dict[Any, Tuple[int, dict]]) -> Tuple:
    """Fault resident-state entries back to the coordinator (lazy proxy read)."""
    _, seq, resident_key, epoch, keys = frame
    entry = resident_state.get(resident_key)
    if entry is None:
        raise RuntimeError(
            f"runner holds no resident mutable state for {resident_key!r} "
            "(evicted, cleared, or never produced)"
        )
    held_epoch, state = entry
    if held_epoch != epoch:
        raise RuntimeError(
            f"resident state for {resident_key!r} advanced to epoch {held_epoch}; "
            f"the proxy faulting epoch {epoch} is stale"
        )
    missing = [key for key in keys if key not in state]
    if missing:
        raise KeyError(missing[0])
    return ("res", seq, {key: state[key] for key in keys})


def _exception_frame(seq: int, exc: BaseException) -> Tuple:
    """Relay a task failure, preserving the original exception when it pickles."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return ("exc", seq, None, tb)
    return ("exc", seq, exc, tb)


#: Reply codec per dispatch tag: answers travel under the same base kind's
#: codec as their request, so the coordinator's ledger prices both
#: directions of a kind consistently.
_REPLY_KIND = {"site": "site", "pull_state": "state_pull"}


def _heartbeat_interval() -> float:
    """Seconds between heartbeat frames (0 disables; from the environment)."""
    raw = os.environ.get(HEARTBEAT_INTERVAL_ENV, "")
    try:
        return float(raw) if raw else 0.0
    except ValueError:
        return 0.0


def _heartbeat_loop(
    channel: FrameChannel,
    host_id: int,
    send_lock: threading.Lock,
    stop: threading.Event,
    interval: float,
    with_samples: bool = False,
) -> None:
    """Send unsolicited liveness frames until told to stop (or the socket dies).

    With ``with_samples``, each frame carries one resource sample — the
    telemetry plane's runner-side feed, riding the liveness traffic that
    crosses the socket anyway.  Sampling failures degrade to a plain
    heartbeat: liveness must never depend on ``/proc`` cooperating.
    """
    n = 0
    while not stop.wait(interval):
        n += 1
        frame: Tuple = ("hb", host_id, n)
        if with_samples:
            try:
                frame = ("hb", host_id, n, read_resource_sample())
            except Exception:  # pragma: no cover - sampling must not kill liveness
                pass
        try:
            with send_lock:
                channel.send(frame)
        except OSError:
            return  # coordinator gone; the serve loop is exiting too


def serve(channel: FrameChannel, host_id: int) -> None:
    """Serve dispatch frames until shutdown or coordinator disconnect."""
    resident: Dict[Any, Tuple] = {}
    resident_state: Dict[Any, Tuple[int, dict]] = {}
    policy = WirePolicy.from_env()
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(frame: Tuple, codec: Optional[Codec] = None) -> None:
        # All socket writes go through the send lock so heartbeat frames
        # never interleave with a reply frame's bytes.
        with send_lock:
            if codec is None:
                channel.send(frame)
            else:
                channel.send(frame, codec)

    interval = _heartbeat_interval()
    if interval > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(channel, host_id, send_lock, stop, interval,
                  resource_samples_enabled()),
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
            if tag == "clear_resident":
                resident.clear()
                resident_state.clear()
                send(("res", frame[1], None))
                continue
            seq = frame[1]
            codec = policy.codec_for(_REPLY_KIND.get(tag, "control"))
            try:
                if tag == "site":
                    response = _execute_site(
                        frame, resident, resident_state, host_id, codec
                    )
                elif tag == "pull_state":
                    response = _execute_pull_state(frame, resident_state)
                else:
                    raise RuntimeError(f"unknown frame tag {tag!r}")
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
