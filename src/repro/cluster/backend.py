"""The distributed-memory cluster backend.

:class:`ClusterBackend` implements the :class:`~repro.runtime.backends.ExecutionBackend`
interface by spawning one long-lived runner process per simulated host and
shipping every task over a length-prefixed unix-domain socket
(:mod:`repro.cluster.framing`).  It makes these claims honest:

* **Distributed memory.**  Runners start as fresh interpreters
  (``python -m repro.cluster.runner``) and inherit nothing; every byte a
  site computes on arrived through its socket.
* **Wire-level byte accounting.**  Each dispatch and result frame's exact
  size is recorded in the run ledger's
  :class:`~repro.cluster.wire.WireLedger` — the physically transmitted
  (codec-encoded) bytes *and* the bytes the frame would have cost
  uncompressed.  A site's buffered site-to-coordinator messages ride its
  result frame as plain objects next to the task's return value, so each
  byte is counted once, per frame.
* **Codec frames.**  Frames are encoded under a
  :class:`~repro.cluster.framing.WirePolicy` (site and replay frames
  compressed; the ``REPRO_WIRE_CODEC`` environment override reaches the
  runners through their inherited environment).
* **Resident site state.**  A site's heavy immutable half — its site
  view (local metric, or its uncertain nodes), which carries no global
  id — is shipped once per protocol run and kept resident on its runner
  (sites are pinned to hosts by ``site_id % n_hosts``).  The *mutable*
  half gets the same treatment: after a site task completes, its
  ``ctx.state`` stays on the runner and only a digest (keys, per-entry
  sizes, a state epoch) crosses back; the coordinator's ``Site.state`` becomes an opaque
  :class:`~repro.runtime.state.ResidentState` handle, and the next dispatch
  ships an epoch token instead of the dict.  The coordinator never reads
  site state: drivers get what they need from the sites' messages and
  their tasks' return values.
* **A run owns what the pool holds for it.**  Its sites' state and
  dispatch logs live until :meth:`ClusterBackend.end_run` names its
  network, and each runner heartbeat goes on the ledger of the frame the
  runner is executing, so concurrent runs never touch each other's state
  or books.

Site tasks are the only work the pool runs: :meth:`submit_site_pairs`
returns one future per site task, and the round scheduler
(:func:`repro.runtime.tasks.run_site_tasks`) joins them at a barrier.
Every protocol, the uncertain ones included, keeps its sites' input and
state resident, logs every dispatch and replays it on recovery in one way.

**Fault tolerance** is a property of the pool, set where it is built
(``retry=RetryPolicy(...)``), and has one code path.  Every site dispatch
is appended to its site's dispatch log
(:class:`~repro.cluster.recovery.SiteLog`); the decisions — budget, re-pin
rule, digest checks, which ledger a death goes on — live in
:class:`~repro.cluster.recovery.Recovery`, and this module does the I/O.
Within the budget a death replays exactly the work it interrupted, when it
is needed: a site task in flight on the dead host at once (on the recovery
thread), a site whose state sat idle there at its key's next dispatch.  A
replay re-places the site deterministically and re-executes its log from
record 0 (re-shipping the sticky half, rewriting state-token epochs
positionally and carrying the same RNG streams over), verifying the
replayed state against the recorded digests, and starts over elsewhere if
its target dies too.  Results are bit-identical to the no-failure run; the
replay frames are accounted under ``replay_*`` kinds, next to one
:class:`~repro.cluster.wire.RecoveryEvent` per interrupted run.  The
default budget is zero, which is fail fast: placement never routes around
a dead host, and the death fails its in-flight futures with a
:class:`~repro.cluster.recovery.DeadHostError` naming the host, its
in-flight tasks and its sites' last committed state epochs.  Sockets and the
scratch directory are cleaned up by :meth:`close` either way.  An optional
heartbeat timeout catches runners that are wedged but still connected, and
a :class:`~repro.cluster.recovery.FaultPlan` (or the ``REPRO_FAULT_PLAN``
environment knob) injects deterministic faults for tests and CI.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.framing import (
    FrameChannel,
    WirePolicy,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.cluster.loop import EventLoop, TimerHandle
from repro.cluster.recovery import (
    DeadHostError,
    FaultPlan,
    HEARTBEAT_INTERVAL_ENV,
    Recovery,
    RetryPolicy,
    SiteDispatchRecord,
    SiteLog,
    SiteLogs,
    resolve_retry_policy,
)
from repro.cluster.wire import WireLedger
from repro.runtime.backends import ExecutionBackend, effective_cpu_count
from repro.runtime.state import ResidentState, STATE_TOKEN_TAG, is_state_token


#: How long one ``accept`` waits before the start path checks whether the
#: runner it waits for has already exited.
_ACCEPT_POLL_S = 0.05


class _HostDied(Exception):
    """Internal: a registration raced the target's death; the caller re-targets."""


class _Pending:
    """Book-keeping for one in-flight frame awaiting its response."""

    __slots__ = (
        "future", "wire", "round_index", "kind", "convert", "tracer", "t_send",
        # Recovery book-keeping: the site log + record a "site" frame
        # belongs to, and the fault-plan dispatch ordinal for after-triggers.
        "site_log", "record_index", "fault_ordinal",
    )

    def __init__(self, future, wire, round_index, kind, convert,
                 site_log, record_index, fault_ordinal):
        self.future = future
        self.wire = wire
        self.round_index = round_index
        self.kind = kind
        self.convert = convert
        #: Set only on traced runs: the run tracer plus the dispatch instant
        #: (tracer clock), bracketing the frame's wire span on receipt.
        self.tracer = None
        self.t_send = 0.0
        self.site_log = site_log
        self.record_index = record_index
        self.fault_ordinal = fault_ordinal


class _Host:
    """One runner process plus its loop-managed channel and pending map.

    The coordinator runs **no threads for this host**: its channel is
    registered with the backend's single :class:`EventLoop`, which reads
    result frames, flushes queued dispatch bytes and watches heartbeats for
    every host at once.
    """

    def __init__(self, host_id: int):
        self.host_id = host_id
        self.process: Optional[subprocess.Popen] = None
        self.channel: Optional[FrameChannel] = None
        self.pending: Dict[int, _Pending] = {}
        self.lock = threading.Lock()
        self.dead: Optional[str] = None
        #: Monotonic instant of the last frame (result or heartbeat) this
        #: host's socket produced; the heartbeat monitor compares it against
        #: the policy's timeout while work is in flight.
        self.last_seen = 0.0
        #: Keys whose site view and state the runner holds (under ``lock``).
        self.resident_keys: Set[Any] = set()
        #: Keys of ended runs the runner still holds (under ``lock``); the
        #: next site frame to this host carries them, and the runner drops
        #: their state.
        self.evict: List[Any] = []
        #: Serialises frame encode + enqueue, so a host's frames cross its
        #: socket in the order their send records reach the wire ledger.
        self.encode_lock = threading.Lock()


class ClusterBackend(ExecutionBackend):
    """Run site tasks on one long-lived runner process per simulated host.

    A run owns what the pool holds or receives for it: its sites' state
    and dispatch logs, until :meth:`end_run`, and the heartbeats sent while
    its frames execute.  A runner death goes on the books of exactly the
    runs whose work it interrupts: a run with a frame in flight to the dead
    host, or a run whose later dispatch needs site state the host held.
    Each such run's wire ledger gets one
    :class:`~repro.cluster.wire.RecoveryEvent` for the death, and a ledger
    whose run has returned never changes.  A death that interrupts nothing
    — one after a run's last reply, say — is reported only by
    :meth:`dead_hosts`.
    """

    name = "cluster"

    def __init__(
        self,
        n_hosts: Optional[int] = None,
        *,
        start_timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if n_hosts is not None and n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        self.n_hosts = n_hosts or effective_cpu_count()
        self.start_timeout = float(start_timeout)
        #: Per-frame-kind codec choices; runners resolve the same policy from
        #: the environment they inherit, so both directions agree.
        self.wire_policy = WirePolicy.from_env()
        #: How runner death is treated, for the life of the pool: ``None``
        #: is the zero budget (fail fast).
        self.retry = resolve_retry_policy(retry)
        #: Deterministic fault injection; defaults to the ``REPRO_FAULT_PLAN``
        #: environment knob (``None`` when unset — no faults).
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._hosts: Optional[List[_Host]] = None
        self._socket_dir: Optional[str] = None
        self._seq = 0
        self._submit_lock = threading.Lock()
        self._start_lock = threading.Lock()
        #: One replayable dispatch log per resident key.
        self._site_logs = SiteLogs()
        self._recovery = Recovery(self.retry)
        #: The single selector loop multiplexing every runner channel; one
        #: daemon thread regardless of ``n_hosts``.
        self._loop: Optional[EventLoop] = None
        #: Periodic heartbeat-silence check registered on the loop at start
        #: (only when the retry policy configures a timeout).
        self._monitor_timer: Optional[TimerHandle] = None
        self._recovery_threads: List[threading.Thread] = []

    def end_run(self, network) -> None:
        """The run on ``network`` is over: drop what the pool holds for its sites.

        Each site's log is popped, so nothing replays it, and its key joins
        the eviction list of the live host holding its state, which the
        host's next site frame carries.  Each log's lock waits out a replay
        still finishing, so the run's ledger is final when this returns.
        """
        for site in network.sites:
            log = self._site_logs.pop(site.resident_key)
            if log is None:
                continue
            with log.lock:
                host = self._host_by_id(log.location)
            if host is None:
                continue
            with host.lock:
                host.resident_keys.discard(log.key)
                if host.dead is None:
                    host.evict.append(log.key)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def socket_dir(self) -> Optional[str]:
        """Scratch directory holding the per-host sockets (None when stopped)."""
        return self._socket_dir

    def dead_hosts(self) -> Dict[int, str]:
        """``host_id -> death reason`` for every host observed dead.

        Empty for a healthy (or never-started, or closed) pool.  The
        cluster service uses this to retire a pool whose hosts died instead
        of handing the wreck to the next admitted job.
        """
        if self._hosts is None:
            return {}
        return {
            host.host_id: host.dead
            for host in self._hosts
            if host.dead is not None
        }

    def _runner_environment(self) -> Dict[str, str]:
        """Child environment: mirror the coordinator's import path.

        Task functions cross the wire as qualified names, so the runner must
        be able to import every module the coordinator can (``repro`` itself,
        but also e.g. a caller's own task modules).  The coordinator's full
        ``sys.path`` becomes the runner's ``PYTHONPATH``; the empty entry
        (script-directory convention) is pinned to the current directory.
        When the retry policy configures a heartbeat timeout, the runner is
        asked to send unsolicited heartbeats at a quarter of it, so a host
        busy with one long task never looks silent.
        """
        entries = []
        for entry in sys.path:
            entries.append(entry if entry else os.getcwd())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(entries))
        timeout = self.retry.heartbeat_timeout
        if timeout is not None:
            env[HEARTBEAT_INTERVAL_ENV] = f"{max(0.05, timeout / 4.0):.3f}"
        return env

    def _ensure_started(self) -> List[_Host]:
        hosts = self._hosts
        if hosts is not None:
            return hosts
        with self._start_lock:
            # Concurrent service jobs race the warm pool's first dispatch;
            # exactly one spawns the runners, the rest adopt them.
            if self._hosts is not None:
                return self._hosts
            return self._start_locked()

    def _start_locked(self) -> List[_Host]:
        socket_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        env = self._runner_environment()
        hosts: List[_Host] = []
        listeners: List[socket.socket] = []
        try:
            # Bind every listener and start every runner before the first
            # accept, so the interpreters start up concurrently and the
            # pool's start time is the slowest runner's, not their sum.
            for host_id in range(self.n_hosts):
                host = _Host(host_id)
                hosts.append(host)
                path = os.path.join(socket_dir, f"h{host_id}.sock")
                listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                listeners.append(listener)
                listener.bind(path)
                listener.listen(1)
                listener.settimeout(_ACCEPT_POLL_S)
                # A fresh interpreter per host (not a fork): the runner
                # inherits no address space, so everything it computes on
                # demonstrably arrived through its socket.
                host.process = subprocess.Popen(
                    [sys.executable, "-m", "repro.cluster.runner", path, str(host_id)],
                    env=env,
                )
            for host, listener in zip(hosts, listeners):
                # Wait in short slices, so a runner that exits without
                # connecting fails the start at once; the full timeout only
                # bounds a runner that is alive but never connects.
                started = time.monotonic()
                conn = None
                while conn is None:
                    try:
                        conn, _ = listener.accept()
                    except socket.timeout:
                        exitcode = host.process.poll()
                        waited = time.monotonic() - started
                        if exitcode is not None or waited >= self.start_timeout:
                            raise RuntimeError(
                                f"cluster host {host.host_id} failed to connect within "
                                f"{waited:.1f}s (exit code {exitcode})"
                            ) from None
                host.channel = FrameChannel(conn)
                hello, _, _, _ = host.channel.recv()
                if hello != ("hello", host.host_id):
                    raise RuntimeError(
                        f"cluster host {host.host_id} sent a bad handshake: {hello!r}"
                    )
                host.last_seen = time.monotonic()
        except BaseException:
            self._hosts = hosts  # let close() reap whatever did start
            self._socket_dir = socket_dir
            self.close()
            raise
        finally:
            for listener in listeners:
                listener.close()
        self._hosts = hosts
        self._socket_dir = socket_dir
        # One selector loop multiplexes every channel: switch the sockets to
        # non-blocking only now, after the blocking handshakes completed.
        loop = EventLoop()
        self._loop = loop
        for host in hosts:
            host.channel.set_nonblocking()
            loop.register_channel(
                host.channel,
                on_frames=lambda frames, host=host: self._handle_frames(host, frames),
                on_error=lambda exc, host=host: self._on_channel_error(host, exc),
            )
        loop.start()
        timeout = self.retry.heartbeat_timeout
        if timeout is not None:
            self._monitor_timer = loop.call_every(
                max(0.05, min(timeout / 4.0, 0.25)), self._check_heartbeats
            )
        return hosts

    def _check_heartbeats(self) -> None:
        """Kill hosts that go silent past the heartbeat timeout with work in flight.

        Runs as a periodic event-loop callback.  A healthy busy runner is
        never silent: result frames refresh ``last_seen``, and runners send
        unsolicited heartbeats between them.  An *idle* host is exempt —
        silence without in-flight work is normal — and registration of new
        work refreshes ``last_seen``, so the timer always measures silence
        while something was owed.
        """
        timeout = self.retry.heartbeat_timeout
        hosts = self._hosts
        if hosts is None:
            return
        now = time.monotonic()
        for host in hosts:
            if host.dead is not None:
                continue
            with host.lock:
                busy = bool(host.pending)
                last = host.last_seen
            if busy and last and now - last > timeout:
                if host.process is not None:
                    try:
                        host.process.kill()
                    except OSError:  # pragma: no cover - already gone
                        pass
                self._mark_dead(
                    host,
                    f"no frames or heartbeats for {now - last:.1f}s with tasks "
                    f"in flight (heartbeat timeout {timeout}s)",
                )

    def close(self) -> None:
        """Shut runners down and remove sockets/scratch dir.  Idempotent.

        One loop-shutdown path replaces the old per-host thread joins: stop
        the single event loop (joining its one thread), then — with no other
        thread touching the sockets — drain each live channel's queued bytes
        in blocking mode, send the shutdown frame, close the socket and reap
        the process.  After this returns the backend holds no threads and no
        file descriptors.
        """
        hosts, self._hosts = self._hosts, None
        socket_dir, self._socket_dir = self._socket_dir, None
        loop, self._loop = self._loop, None
        if self._monitor_timer is not None:
            self._monitor_timer.cancel()
            self._monitor_timer = None
        # Runner-resident state dies with the runners: a handle dispatched
        # after close is no longer current and fails its dispatch.
        self._site_logs = SiteLogs()
        if loop is not None:
            loop.stop()
        if hosts is not None:
            for host in hosts:
                if host.channel is not None and host.dead is None:
                    # The loop is gone, so direct blocking writes cannot
                    # interleave with anything: flush whatever dispatch
                    # bytes it had not drained, then say goodbye.
                    try:
                        host.channel.set_blocking(2.0)
                        host.channel.flush_out()
                        host.channel.send(("shutdown",))
                    except (OSError, ConnectionError):
                        pass
            for host in hosts:
                if host.channel is not None:
                    host.channel.close()
                if host.process is not None:
                    self._reap(host.process)
                self._fail_pending(
                    host, f"cluster host {host.host_id} was shut down with tasks in flight"
                )
        for thread in self._recovery_threads:
            thread.join(timeout=5.0)
        self._recovery_threads = []
        if socket_dir is not None:
            shutil.rmtree(socket_dir, ignore_errors=True)

    @staticmethod
    def _reap(process: subprocess.Popen) -> None:
        """Bounded terminate→kill escalation for one runner process.

        A wedged runner — blocked on a dead socket, swapping, or SIGSTOPped —
        must never hang shutdown: the graceful window is short, SIGTERM gets
        one more short window (a *stopped* process cannot even handle it),
        and SIGKILL ends the argument.  The final wait is bounded too; a
        process that survives SIGKILL is the kernel's problem, not ours.
        """
        try:
            process.wait(timeout=2.0)
            return
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck runner
            pass
        process.terminate()
        try:
            process.wait(timeout=2.0)
            return
        except subprocess.TimeoutExpired:  # pragma: no cover - still stuck
            pass
        process.kill()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def _fail_pending(self, host: _Host, reason: str) -> None:
        with host.lock:
            pending = sorted(host.pending.items())
            host.pending.clear()
        for _, entry in pending:
            if not entry.future.done():
                entry.future.set_exception(RuntimeError(reason))

    def _mark_dead(self, host: _Host, detail: str) -> None:
        """Classify one runner death against the retry budget.

        Idempotent — the first caller (reader EOF, sender EPIPE, heartbeat
        monitor, fatal frame) claims the death under the host lock and drains
        the pending map; later callers return immediately.  A death within
        the budget hands the drained work to a recovery thread.  The death
        past it (the first one, for a zero budget) fails that work with a
        :class:`DeadHostError` whose reason names the in-flight task ids,
        their rounds and the host's last committed state epoch per site, so
        a terminal failure is diagnosable from its message alone.
        """
        with host.lock:
            if host.dead is not None:
                return
            # Placeholder until the full reason is assembled below: anything
            # racing a submission in this window still sees a host-naming
            # message.
            placeholder = f"cluster host {host.host_id} died mid-round ({detail})"
            # Classified before ``dead`` is set: whoever observes this death
            # also observes whether it is terminal.
            recover = (
                self._hosts is not None
                and self._recovery.recovers(host.host_id, placeholder)
            )
            host.dead = placeholder
            pending = sorted(host.pending.items())
            host.pending.clear()
            held = list(host.resident_keys)
        exitcode = None
        if host.process is not None:
            try:
                exitcode = host.process.wait(timeout=1.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - still dying
                exitcode = host.process.poll()
        inflight = ", ".join(
            f"{entry.kind} seq {seq} (round {entry.round_index})"
            for seq, entry in pending
        ) or "none"
        reason = (
            f"cluster host {host.host_id} died mid-round ({detail}; runner exit "
            f"code {exitcode}); in-flight tasks: [{inflight}]; last committed "
            f"state epoch by site: {{{self._site_logs.epoch_note(held)}}}"
        )
        if recover:
            host.dead = reason
            # Recovery runs off-thread: _mark_dead runs on the event-loop
            # thread, which must keep serving the surviving hosts.
            thread = threading.Thread(
                target=self._recover_host, args=(host, pending, reason),
                name=f"repro-cluster-recovery-{host.host_id}", daemon=True,
            )
            self._recovery_threads.append(thread)
            thread.start()
            return
        reason = host.dead = self._recovery.terminal(reason)
        task_ids = tuple(f"{entry.kind}#{seq}" for seq, entry in pending)
        for seq, entry in pending:
            self._clear_log_pending(entry)
            if not entry.future.done():
                entry.future.set_exception(
                    DeadHostError(
                        reason,
                        host_id=host.host_id,
                        round_index=entry.round_index,
                        epoch=entry.site_log.epoch if entry.site_log else None,
                        task_ids=task_ids,
                    )
                )

    # ------------------------------------------------------------------
    # Recovery I/O: draining a dead host and replaying site logs
    # ------------------------------------------------------------------

    @staticmethod
    def _clear_log_pending(entry: _Pending) -> None:
        if entry.site_log is not None:
            pending = entry.site_log.pending
            if pending is not None and pending[1] is entry:
                entry.site_log.pending = None

    def _host_by_id(self, host_id: Optional[int]) -> Optional[_Host]:
        hosts = self._hosts
        if hosts is None or host_id is None or not (0 <= host_id < len(hosts)):
            return None
        return hosts[host_id]

    def _place(self, site_id: int) -> _Host:
        """The host :meth:`Recovery.place` picks for site ``site_id``."""
        hosts = self._hosts
        if hosts is None:
            raise RuntimeError("the cluster backend is closed")
        return hosts[self._recovery.place(site_id, [host.dead for host in hosts])]

    def _ensure_located_locked(self, log: SiteLog) -> Optional[_Host]:
        """A live host holding ``log``'s resident state (caller holds log.lock).

        Returns the current location if it lives, replays the log onto the
        deterministic re-pin target if it died, or ``None`` when the key has
        never been dispatched (nothing resident anywhere yet).
        """
        if log.location is None:
            return None
        host = self._host_by_id(log.location)
        if host is not None and host.dead is None:
            return host
        return self._replay_log_locked(log, host)

    def _replay_log_locked(
        self, log: SiteLog, dead: _Host, adopt_final: Optional[Future] = None
    ) -> _Host:
        """Rebuild the state ``dead``'s death lost (caller holds log.lock).

        Replays every record from 0 onto the site's placement — the first
        record necessarily shipped the full state dict, so a fresh host
        rebuilds from nothing — with state-token epochs rewritten
        positionally to the target's own epoch sequence and each replayed
        digest checked; if the target dies too, re-places and starts over.
        Historical results are discarded; the final record resolves the
        original in-flight future (``log.pending`` or ``adopt_final``), or
        else moves the site's handle to the replayed epoch.  Charges the
        records' ledger and returns the host now holding the state.
        """
        pending = log.pending
        log.pending = None
        resolve = pending[1].future if pending is not None else adopt_final
        last = log.records[-1]
        tracer = last.tracer
        t0 = tracer.clock() if tracer is not None else 0.0
        sent = 0
        while True:
            target = self._place(log.site_id)
            # Placement hands a zero budget the dead host itself; a spent
            # budget refuses any further replay.  Either way the site's last
            # committed epoch goes on the error.
            refusal, dead_id = target.dead, target.host_id
            if refusal is None:
                refusal, dead_id = self._recovery.exhausted, dead.host_id
            if refusal is not None:
                raise DeadHostError(
                    refusal, host_id=dead_id, epoch=log.epoch,
                    round_index=last.round_index,
                )
            epoch = 0
            try:
                for index, rec in enumerate(log.records):
                    state = rec.state
                    if is_state_token(state):
                        # Record i's token referenced the epoch record i-1
                        # produced; on the target that is whatever epoch the
                        # previous replay just returned.
                        state = (STATE_TOKEN_TAG, epoch)
                    is_final = rec is last and resolve is not None
                    future = self._submit_frame(
                        target,
                        self._site_frame(
                            target, log, rec, state, decode_payload(rec.rng_bytes),
                            traced=is_final and rec.traced,
                        ),
                        wire=rec.wire, round_index=rec.round_index, kind="replay",
                        convert=None, tracer=rec.tracer,
                    )
                    sent += 1
                    result = future.result()
                    _, epoch, sizes = result["state"]
                    log.check_replay(index, sizes)
                    if is_final:
                        log.digests[index] = (epoch, dict(sizes))
                        if not resolve.done():
                            resolve.set_result(self._site_result_converter(log)(result))
                break
            except (_HostDied, DeadHostError):
                if target.dead is None:
                    raise  # the replay diverged; the target is fine
        log.epoch = epoch
        log.location = target.host_id
        if resolve is None and log.handle is not None:
            # Every record was already complete: the site's handle names the
            # old copy's epoch — move it to the replayed copy's, so its next
            # dispatch token references the state the target now holds.
            log.handle.epoch = epoch
        self._recovery.touch(
            dead.host_id, dead.dead, last.wire, tracer, last.round_index,
            site_id=log.site_id, target=target.host_id, frames=sent,
        )
        if tracer is not None:
            tracer.add_span(
                "recovery", t0, tracer.clock(), origin="coordinator",
                host=dead.host_id, round=last.round_index,
                site=log.site_id, frames=sent,
            )
        return target

    def _recover_host(self, host: _Host, pending: List[Tuple[int, _Pending]],
                      reason: str) -> None:
        """Replay the work one death interrupted (runs on its own thread).

        Every drained frame puts the death on its run's books.  Frames that
        need no site-log lock resolve first (failing another recovery's
        in-flight replay frames promptly — that thread owns the log lock we
        would otherwise wait on, and re-places its replay), then each
        drained site frame's log replays, resolving the frame's future.
        Any failure here fails the affected futures with a
        :class:`DeadHostError` — never silently.
        """
        try:
            site_entries: List[_Pending] = []
            for _, entry in pending:
                self._recovery.touch(
                    host.host_id, reason, entry.wire, entry.tracer, entry.round_index
                )
                if entry.future.done():
                    continue
                if entry.site_log is not None:
                    site_entries.append(entry)
                else:
                    entry.future.set_exception(
                        DeadHostError(
                            f"{reason}; this in-flight frame ({entry.kind}) is "
                            "not replayable",
                            host_id=host.host_id,
                            round_index=entry.round_index,
                        )
                    )
            for entry in site_entries:
                log = entry.site_log
                with log.lock:
                    # A dispatch that got the lock first already replayed it.
                    if log.location == host.host_id:
                        self._replay_log_locked(log, host)
                if not entry.future.done():  # pragma: no cover - defensive
                    entry.future.set_exception(
                        DeadHostError(
                            f"{reason}; its site log could not be replayed",
                            host_id=host.host_id,
                            round_index=entry.round_index,
                        )
                    )
        except BaseException as exc:  # noqa: BLE001 - relayed to every waiter
            error = exc if isinstance(exc, DeadHostError) else DeadHostError(
                f"recovery of cluster host {host.host_id} failed: {exc!r} "
                f"(original death: {reason})",
                host_id=host.host_id,
            )
            for _, entry in pending:
                self._clear_log_pending(entry)
                if not entry.future.done():
                    entry.future.set_exception(error)

    def _apply_faults(self, host: _Host, actions) -> None:
        """Execute matched fault-plan actions against one host."""
        for action in actions:
            if action.op == "kill":
                if host.process is not None:
                    try:
                        host.process.kill()
                    except OSError:  # pragma: no cover - already gone
                        pass
            elif action.op == "stall":
                if host.process is not None:
                    try:
                        host.process.send_signal(signal.SIGSTOP)
                    except OSError:  # pragma: no cover - already gone
                        pass
            elif action.op == "disconnect":
                # Shut down, not close: the event loop still watches the
                # descriptor, reads EOF on it and classifies the death.
                if host.channel is not None:
                    host.channel.shutdown()
            elif action.op == "delay":
                time.sleep(action.seconds)

    def _on_channel_error(self, host: _Host, exc: BaseException) -> None:
        """Loop callback: a host's channel died (EOF, error, undecodable frame).

        A frame that cannot be decoded (unknown class, corrupt stream,
        MemoryError on a huge payload) must not be swallowed silently: that
        would leave every in-flight future unresolved and the caller blocked
        forever — it is classified as a host death like a socket error.
        """
        if host.dead is not None or self._hosts is None:
            return
        if isinstance(exc, ConnectionError):
            self._mark_dead(host, str(exc))
        else:
            self._mark_dead(host, f"result frame could not be decoded: {exc!r}")

    def _handle_frames(self, host: _Host, frames) -> None:
        """Loop callback: dispatch one batch of decoded frames from a host."""
        for frame, n_bytes, raw_bytes, codec in frames:
            if host.dead is not None:
                return
            self._handle_frame(host, frame, n_bytes, raw_bytes, codec)

    def _handle_frame(
        self, host: _Host, frame: Tuple, n_bytes: int, raw_bytes: int, codec: str
    ) -> None:
        """Process one received frame on the event-loop thread."""
        host.last_seen = time.monotonic()
        tag = frame[0]
        if tag == "hb":
            # A heartbeat names the frame its runner is executing (None when
            # idle) and goes on that frame's books.  It crossed the socket
            # before that frame's reply, so the frame is still pending here.
            with host.lock:
                entry = host.pending.get(frame[1])
            if entry is not None and entry.wire is not None:
                entry.wire.record(
                    round_index=entry.round_index, host=host.host_id,
                    direction="recv", kind="hb",
                    n_bytes=n_bytes, raw_bytes=raw_bytes, codec=codec,
                    tracer=entry.tracer,
                )
            return
        if tag == "bye":
            return
        if tag == "fatal":
            self._mark_dead(host, frame[1])
            return
        seq = frame[1]
        with host.lock:
            entry = host.pending.pop(seq, None)
        if entry is None:  # pragma: no cover - defensive
            return
        plan = self.fault_plan
        if plan is not None and plan.has_io_actions:
            # Loop-dispatch trigger point: the Nth reply frame the event
            # loop handles for this host, in arrival order — which the
            # single loop serialises, so an io-triggered kill/stall/
            # disconnect lands at a reproducible point of the I/O schedule
            # regardless of how dispatch threads interleaved.
            self._apply_faults(
                host,
                plan.take(host.host_id, entry.round_index,
                          plan.next_io_ordinal(host.host_id), "io"),
            )
        t_recv = entry.tracer.clock() if entry.tracer is not None else 0.0
        if entry.wire is not None:
            entry.wire.record(
                round_index=entry.round_index, host=host.host_id,
                direction="recv", kind=entry.kind + "_result",
                n_bytes=n_bytes, raw_bytes=raw_bytes, codec=codec,
                tracer=entry.tracer,
            )
        if entry.tracer is not None:
            entry.tracer.add_span(
                "rpc", entry.t_send, t_recv, kind=entry.kind,
                host=host.host_id, round=entry.round_index,
                n_bytes=n_bytes, raw_bytes=raw_bytes,
            )
        if plan is not None and entry.fault_ordinal is not None:
            # After-trigger point: the frame's result has arrived.
            self._apply_faults(
                host,
                plan.take(host.host_id, entry.round_index,
                          entry.fault_ordinal, "after"),
            )
        if tag == "exc":
            _, _, exc, tb = frame
            if exc is None:
                exc = RuntimeError(
                    f"cluster host {host.host_id} task failed with an "
                    f"unpicklable exception:\n{tb}"
                )
            self._clear_log_pending(entry)
            entry.future.set_exception(exc)
            return
        value = frame[2]
        # A site result's state slot is its (tag, epoch, sizes) digest.
        digest = value["state"] if entry.site_log is not None else None
        extras = frame[3] if len(frame) > 3 else None
        if extras and entry.tracer is not None:
            buffer = extras.get("trace")
            if buffer is not None:
                entry.tracer.absorb(
                    buffer,
                    window=(entry.t_send, t_recv),
                    tags={"round": entry.round_index, "host": host.host_id},
                )
        try:
            if entry.convert is not None:
                value = entry.convert(value)
        except BaseException as convert_exc:  # noqa: BLE001 - relayed
            self._clear_log_pending(entry)
            entry.future.set_exception(convert_exc)
            return
        if digest is not None:
            # Commit the record's state digest to its site log before the
            # future resolves: replay verification reads it, and a waiter
            # observing the result must observe the checkpoint too.
            entry.site_log.note_result(entry.record_index, digest[1], digest[2])
        entry.future.set_result(value)

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------

    def _submit_frame(
        self,
        host: _Host,
        build_frame: Callable[[int, List[Any]], Tuple],
        *,
        wire: Optional[WireLedger],
        round_index: int,
        kind: str,
        convert: Optional[Callable[[Any], Any]],
        tracer=None,
        site_log: Optional[SiteLog] = None,
        record_index: Optional[int] = None,
    ) -> Future:
        """Encode, register and enqueue one site frame; returns its future.

        ``build_frame(seq, evict)`` builds the frame around the host's
        eviction list, taken as the frame is encoded.  ``site_log`` and
        ``record_index`` name the dispatch record the frame carries, for
        recovery.  A registration racing the host's death throws
        :class:`_HostDied` before the frame reaches the wire or the ledger,
        so the caller can re-target and replay.
        """
        future: Future = Future()
        fault_ordinal: Optional[int] = None
        plan = self.fault_plan
        if plan is not None and kind == "site":
            # Before-trigger point: counted and applied before any byte of
            # the frame exists, so a "kill ... when=before" death is observed
            # by dispatch or by the reader — genuinely mid-round.
            fault_ordinal = plan.next_ordinal(host.host_id, round_index)
            self._apply_faults(
                host, plan.take(host.host_id, round_index, fault_ordinal, "before")
            )
        with self._submit_lock:
            self._seq += 1
            seq = self._seq
        # Serialize on the submitting thread: an unpicklable dispatch fails
        # just this task (the stream never sees a byte of it), and the wire
        # ledger is complete the moment the future resolves — the event
        # loop only ever flushes already-accounted bytes.  The host's
        # encode lock serialises encode+enqueue as one step.
        codec = self.wire_policy.codec_for(kind)
        with host.encode_lock:
            with host.lock:
                evict, host.evict = host.evict, []
            try:
                frame = encode_frame(build_frame(seq, evict), codec)
            except Exception as exc:  # noqa: BLE001 - relayed via the future
                with host.lock:
                    host.evict[:0] = evict  # the next frame carries them
                future.set_exception(
                    RuntimeError(
                        f"task dispatch to cluster host {host.host_id} could not "
                        f"be serialized: {exc!r}"
                    )
                )
                return future
            # Register under the host lock with a dead-recheck: _mark_dead
            # sets ``dead`` before draining ``pending``, so either this entry
            # lands in the drain or the death is observed here — never an
            # unresolved future.
            entry = _Pending(
                future, wire, round_index, kind, convert,
                site_log, record_index, fault_ordinal,
            )
            if tracer is not None and tracer.enabled:
                entry.tracer = tracer
                entry.t_send = tracer.clock()
            with host.lock:
                if host.dead is not None:
                    raise _HostDied(host.dead)
                if not host.pending:
                    # Idle -> busy: the silence window the heartbeat monitor
                    # measures starts now, not at the last old frame.
                    host.last_seen = time.monotonic()
                host.pending[seq] = entry
                if entry.site_log is not None:
                    # Atomic with registration: either _mark_dead's drain
                    # sees this entry (and replay resolves it via the log),
                    # or the death was observed above — never an orphaned
                    # record.
                    entry.site_log.pending = (entry.record_index, entry)
                    entry.site_log.location = host.host_id
            if wire is not None:
                wire.record(
                    round_index=round_index, host=host.host_id,
                    direction="send", kind=kind + "_dispatch",
                    n_bytes=frame.n_bytes, raw_bytes=frame.raw_bytes,
                    codec=frame.codec, tracer=entry.tracer,
                )
            # Queue the encoded bytes on the channel (still under the encode
            # lock, so byte order matches ledger order) and ask the event
            # loop to flush them; backpressure lives in the channel's own
            # send buffer, not a thread-fed queue.
            host.channel.queue_frame(frame)
            loop = self._loop
            if loop is not None:
                loop.notify_write(host.channel)
        return future

    def submit_site_pairs(
        self,
        pairs: Sequence[Tuple[Any, Any]],
        *,
        round_index: int,
        ledger,
        tracer=None,
    ) -> List[Future]:
        """Ship ``(SiteTask, SiteContext)`` pairs, returning SiteTaskResult futures.

        Every frame of the round is recorded in ``ledger.ensure_wire()``.

        Site ``s`` is pinned to host ``s % n_hosts``, and its sticky half,
        the site view ``ctx.local_metric``, is shipped only the first time
        the host sees the context's ``resident_key`` — later rounds reuse the
        runner-resident copy.  Mutable state gets the same residency: when
        ``ctx.state`` is the key's current
        :class:`~repro.runtime.state.ResidentState` handle, the dispatch
        carries only an epoch token; a plain dict (first round) is shipped
        whole and the runner adopts it.  Any other handle — superseded by a
        later round, or from an ended run or a closed pool — fails its
        dispatch with a :class:`RuntimeError` naming the key.  The key's
        state stays on the pool until :meth:`end_run` names its network.

        Every dispatch appends a
        :class:`~repro.cluster.recovery.SiteDispatchRecord` to the key's
        :class:`~repro.cluster.recovery.SiteLog` before its frame is built.
        A key whose host died is replayed onto its placement under the log
        lock before anything new is dispatched for it; on a zero or spent
        budget the dispatch's future fails with :class:`DeadHostError`
        instead.  Failures reach the caller through the site's future.
        """
        wire = ledger.ensure_wire()
        pairs = list(pairs)
        if not pairs:
            return []
        self._ensure_started()
        futures = []
        for task, ctx in pairs:
            try:
                future = self._dispatch_site(
                    task, ctx, wire=wire, round_index=round_index, tracer=tracer,
                )
            except RuntimeError as exc:  # DeadHostError or a stale handle
                future = Future()
                future.set_exception(exc)
            futures.append(future)
        return futures

    def _dispatch_site(self, task, ctx, *, wire, round_index: int, tracer) -> Future:
        """Log, place and submit one site task (see :meth:`submit_site_pairs`)."""
        traced = tracer is not None and tracer.enabled
        key = ctx.resident_key
        log = self._site_logs.open(key, ctx.site_id, ctx.local_metric)
        with log.lock:
            target = self._ensure_located_locked(log) or self._place(ctx.site_id)
            state = self._encode_dispatch_state(ctx.state, log)
            if traced:
                tracer.inc(
                    "cluster.resident_hit" if key in target.resident_keys
                    else "cluster.resident_miss"
                )
                tracer.inc(
                    "cluster.state_token" if is_state_token(state)
                    else "cluster.state_ship"
                )
            record = SiteDispatchRecord(
                round_index, ctx.site_id, task.fn, task.args, task.kwargs,
                encode_payload(ctx.rng), ctx.inbox, state, traced, wire, tracer,
            )
            index = log.append(record)
            try:
                return self._submit_frame(
                    target,
                    self._site_frame(target, log, record, state, ctx.rng, traced),
                    wire=wire, round_index=round_index, kind="site",
                    convert=self._site_result_converter(log),
                    tracer=tracer, site_log=log, record_index=index,
                )
            except _HostDied:
                # The target died between placement and registration.  The
                # record is already in the log; replaying it (from record 0,
                # on the placement the death leaves) both rebuilds the
                # resident state and produces this dispatch's result.
                adopted: Future = Future()
                self._replay_log_locked(log, target, adopted)
                return adopted

    def _site_frame(
        self, host: _Host, log: SiteLog, record: SiteDispatchRecord,
        state: Any, rng: Any, traced: bool,
    ) -> Callable[[int, List[Any]], Tuple]:
        """The frame builder of one dispatch or replay of ``log`` to ``host``.

        The sticky half ships only when the host does not hold the key yet.
        """
        key = log.key
        with host.lock:
            sticky = None if key in host.resident_keys else log.sticky
            host.resident_keys.add(key)
        dyn = {
            "site_id": record.site_id,
            "fn": record.fn,
            "args": record.args,
            "kwargs": record.kwargs,
            "state": state,
            "rng": rng,
            "inbox": record.inbox,
        }
        if traced:
            # Only traced dispatches carry the extra key, so untraced
            # frames stay byte-identical to an untraced build.
            dyn["trace"] = True
        return lambda seq, evict: ("site", seq, key, sticky, dyn, evict)

    # ------------------------------------------------------------------
    # Resident mutable state
    # ------------------------------------------------------------------

    @staticmethod
    def _encode_dispatch_state(state: Any, log: SiteLog) -> Any:
        """What the dispatch frame carries in its state slot.

        The key's current handle becomes its ``(STATE_TOKEN_TAG, epoch)``
        token; a plain dict ships whole.  Any other handle is refused.
        """
        if not isinstance(state, ResidentState):
            return state
        if state.resident_key != log.key or log.handle is not state:
            raise RuntimeError(
                f"site {state.site_id}'s state handle (epoch {state.epoch}) is not "
                f"the current handle of resident key {log.key!r}: a later round "
                "superseded it, or its run ended, or the pool that holds the "
                "state was closed"
            )
        return (STATE_TOKEN_TAG, state.epoch)

    @staticmethod
    def _site_result_converter(log: SiteLog) -> Callable[[dict], Any]:
        """Build the wire->SiteTaskResult decoder for one dispatched site task.

        The frame's state digest becomes a :class:`ResidentState` handle,
        registered as the key's current one.
        """
        from repro.runtime.tasks import Outgoing, SiteTaskResult

        def convert(result: dict):
            outbox = [
                Outgoing(kind=kind, payload=payload, words=words)
                for kind, payload, words in result["outbox"]
            ]
            log.handle = ResidentState(log.key, log.site_id, result["state"][1])
            return SiteTaskResult(
                site_id=result["site_id"],
                value=result["value"],
                state=log.handle,
                timer=result["timer"],
                rng=result["rng"],
                outbox=outbox,
            )

        return convert

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "stopped" if self._hosts is None else "running"
        return f"ClusterBackend(n_hosts={self.n_hosts}, {state})"


__all__ = ["ClusterBackend"]
