"""The distributed-memory cluster backend.

:class:`ClusterBackend` implements the :class:`~repro.runtime.backends.ExecutionBackend`
interface by spawning one long-lived runner process per simulated host and
shipping every task over a length-prefixed unix-domain socket
(:mod:`repro.cluster.framing`).  Compared to the process pool it makes three
claims honest:

* **Distributed memory.**  Runners start as fresh interpreters
  (``python -m repro.cluster.runner``) and inherit nothing; every byte a
  site computes on arrived through its socket.
* **Wire-level byte accounting.**  Each dispatch and result frame's exact
  size is recorded in the :class:`~repro.cluster.wire.WireLedger` the caller
  supplies — the physically transmitted (codec-encoded) bytes *and* the
  bytes the frame would have cost uncompressed — and site results encode
  each buffered site-to-coordinator payload individually so the
  communication ledger can stamp per-message ``n_bytes`` (plus its
  codec-priced ``n_bytes_encoded``) next to the semantic word counts.
* **Codec frames.**  Frames are encoded under a
  :class:`~repro.cluster.framing.WirePolicy` (site traffic compressed,
  latency-sensitive state pulls and control frames not; the
  ``REPRO_WIRE_CODEC`` environment override reaches the runners through
  their inherited environment).
* **Resident site state.**  A site's heavy immutable half — its shard and
  its view of the input (local metric, or its uncertain nodes) — is
  shipped once per protocol run and kept resident on its runner (sites are
  pinned to hosts by ``site_id % n_hosts``).  The *mutable* half gets the
  same treatment: after a site task completes, its ``ctx.state`` stays on
  the runner and only a digest (keys, per-entry pickled sizes, a state
  epoch) crosses back; the next dispatch ships an epoch token instead of
  the dict, and the coordinator's ``Site.state`` becomes a
  :class:`~repro.runtime.state.RemoteStateProxy` that faults individual
  entries over the wire only on explicit access.  Later rounds therefore
  pay wire cost only for what actually changed.

Site tasks are the only work the pool runs: :meth:`submit_site_pairs`
returns one future per site task, and the round scheduler
(:func:`repro.runtime.tasks.run_site_tasks`) joins them at a barrier.
Every protocol, the uncertain ones included, keeps its sites' input and
state resident, logs every dispatch and replays it on recovery in one way.

**Fault tolerance** is a property of the pool, set where it is built
(``retry=RetryPolicy(...)``), and has one code path.  Every site dispatch
is appended to its site's dispatch log
(:class:`~repro.cluster.recovery.SiteLog`) and placed by one function.  A
runner death is *classified* against the policy's retry budget.  Within
the budget, the dead host's sites re-pin to survivors deterministically and
each log replays from record 0 (re-shipping the sticky half, rewriting
state-token epochs positionally and carrying the same RNG streams over);
the replayed state is verified against the recorded digests and the round
resumes.  Results are bit-identical to the no-failure run, and every replay
frame is accounted in the wire ledger under ``replay_*`` kinds next to a
:class:`~repro.cluster.wire.RecoveryEvent` recording the re-pin map.  The
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
import weakref
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
    RetryPolicy,
    SiteDispatchRecord,
    SiteLog,
    resolve_retry_policy,
)
from repro.cluster.wire import WireLedger
from repro.obs.sampler import RESOURCE_SAMPLE_ENV
from repro.runtime.backends import ExecutionBackend, default_worker_count
from repro.runtime.state import (
    RemoteStateProxy,
    STATE_TOKEN_TAG,
    is_state_token,
    materialize_state,
)
from repro.utils.timing import Timer


class _HostDied(Exception):
    """Internal: a registration raced the target's death; the caller re-targets."""


class _Pending:
    """Book-keeping for one in-flight frame awaiting its response."""

    __slots__ = (
        "future", "wire", "round_index", "kind", "convert", "tracer", "t_send",
        # Job namespace the frame belongs to ("" for direct backend use):
        # a re-issued state pull stays on the owning job's books.
        "job",
        # Recovery book-keeping: the site log + record a "site" frame
        # belongs to, the (key, keys) of a re-issuable state pull, and the
        # fault-plan dispatch ordinal for after-triggers.
        "site_log", "record_index", "pull_info", "fault_ordinal",
    )

    def __init__(self, future, wire, round_index, kind, convert, job=""):
        self.future = future
        self.wire = wire
        self.round_index = round_index
        self.kind = kind
        self.convert = convert
        self.job = job
        #: Set only on traced runs: the run tracer plus the dispatch instant
        #: (tracer clock), bracketing the frame's wire span on receipt.
        self.tracer = None
        self.t_send = 0.0
        self.site_log = None
        self.record_index = None
        self.pull_info = None
        self.fault_ordinal = None


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
        #: Shared bookkeeping for this host's death, created by ``_mark_dead``
        #: when the death is within the retry budget: whichever thread
        #: replays one of the host's site logs (the recovery thread, or a
        #: racing dispatch/pull that got the log lock first) records its
        #: re-pin and frame count here, and the recovery thread emits the
        #: merged event.  Guarded by the backend's ``_retry_lock``.
        self.recovery_stats: Optional[Dict[str, Any]] = None
        #: Monotonic instant of the last frame (result or heartbeat) this
        #: host's socket produced; the heartbeat monitor compares it against
        #: the policy's timeout while work is in flight.
        self.last_seen = 0.0
        #: Accumulated runner-side frame overhead (``cluster:*`` labels from
        #: result-frame extras).  Touched only by the event-loop thread.
        self.runner_timer = Timer()
        self.resident_keys: Set[Any] = set()
        #: (job, site_id) -> resident key currently cached on the runner for
        #: that slot; a new key for the same slot evicts the old one remotely,
        #: so runner memory is bounded by live site slots, not runs served.
        #: The job namespace ("" for direct backend use) keeps concurrent
        #: jobs' identical site ids from evicting each other's state.
        self.resident_by_site: Dict[Tuple[str, int], Any] = {}
        #: Serialises frame encode + enqueue, so a host's frames cross its
        #: socket in the order their send records reach the wire ledger.
        self.encode_lock = threading.Lock()
        #: ``(wire, tracer, round_index, job)`` captured atomically by the
        #: last dispatch to this host, so the event loop can account heartbeat
        #: frames against the same ledger/tracer pair every other frame of
        #: the run uses.  ``(None, None, 0, "")`` until the first dispatch:
        #: heartbeats before any run are liveness-only.  The job slot lets a
        #: finishing job detach only its own accounting.
        self.hb_account: Tuple[Optional[WireLedger], Optional[Any], int, str] = (
            None, None, 0, "",
        )


class ClusterBackend(ExecutionBackend):
    """Run site tasks on one long-lived runner process per simulated host."""

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
        self.n_hosts = n_hosts or default_worker_count()
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
        #: resident_key -> weakref of the *current-epoch* proxy for that
        #: key's mutable state; used to materialise proxies before their
        #: runner-side copy is evicted or cleared.
        self._live_state: Dict[Any, "weakref.ref[RemoteStateProxy]"] = {}
        self._state_lock = threading.Lock()
        #: resident_key -> replayable dispatch log, one per resident key.
        self._site_logs: Dict[Any, SiteLog] = {}
        self._logs_lock = threading.Lock()
        self._failures = 0
        self._retry_lock = threading.Lock()
        #: Terminal reason once the retry budget is exhausted (at the first
        #: death for a zero budget): every later replay attempt raises it
        #: instead of recovering.
        self._exhausted: Optional[str] = None
        #: The single selector loop multiplexing every runner channel; one
        #: daemon thread regardless of ``n_hosts``.
        self._loop: Optional[EventLoop] = None
        #: Periodic heartbeat-silence check registered on the loop at start
        #: (only when the retry policy configures a timeout).
        self._monitor_timer: Optional[TimerHandle] = None
        self._recovery_threads: List[threading.Thread] = []
        #: Telemetry session of the current run (a driver's ``trace=``
        #: session, installed for the run's backend scope); ``None`` when
        #: the live plane is off.  When set, runners are spawned with
        #: resource sampling on their heartbeats.
        self.telemetry: Optional[Any] = None
        #: job namespace -> telemetry session for runs admitted through the
        #: cluster service.
        self._telemetry_by_job: Dict[str, Any] = {}

    def set_telemetry(self, telemetry: Optional[Any]) -> None:
        """Install (or remove, with ``None``) a telemetry session.

        A driver given ``trace=`` a session installs it for the run's
        backend scope and removes it at exit.  Runner-side effects —
        heartbeat-piggybacked resource samples and the heartbeat interval
        itself — are inherited through the child environment at spawn time,
        so a session installed after the pool started only gains the
        coordinator-side features for already-running hosts; install one
        before the first dispatch (a driver run does) to sample runners too.
        """
        self.telemetry = telemetry

    def set_job_telemetry(self, job: str, telemetry: Optional[Any]) -> None:
        """Install (or remove, with ``None``) one job's telemetry session.

        Runner resource samples ride host-level heartbeats that belong to no
        single job, so they land in every installed session
        (shared-infrastructure metrics, not job data).
        """
        if telemetry is not None:
            self._telemetry_by_job[job] = telemetry
        else:
            self._telemetry_by_job.pop(job, None)

    def detach_run_accounting(self, job: Optional[str] = None) -> None:
        """Stop accounting heartbeats against the current run's ledger/tracer.

        Called when a run's backend scope exits (see
        :func:`repro.runtime.backends.backend_scope`).  Taking each host
        lock makes this a barrier: a heartbeat being recorded concurrently
        completes first, so after this returns the finished run's ledger
        (and the trace counters mirroring it) are frozen while the warm
        pool's later heartbeats go back to liveness-only.  With ``job``
        given, only hosts whose captured accounting belongs to that job are
        detached — a finishing job on a shared service pool never freezes a
        concurrent job's heartbeat accounting.
        """
        if self._hosts is None:
            return
        for host in self._hosts:
            with host.lock:
                if job is None or host.hb_account[3] == job:
                    host.hb_account = (None, None, 0, "")

    def _absorb_resource_sample(self, host: _Host, sample: Any) -> None:
        """Land one heartbeat-piggybacked runner sample on the run timeline(s).

        Only the event-loop thread touches these gauges, so the manual
        running max on ``peak_rss_bytes`` is race-free.  Samples are
        host-level truth that belongs to no single job, so every installed
        session — the pool's own plus any per-job ones — receives them.
        """
        if not isinstance(sample, dict):
            return
        sessions = [self.telemetry] if self.telemetry is not None else []
        for session in self._telemetry_by_job.values():
            if not any(session is seen for seen in sessions):
                sessions.append(session)
        for session in sessions:
            tracer = session.tracer
            if tracer is None or not getattr(tracer, "enabled", False):
                continue
            origin = f"host-{host.host_id}"
            tracer.event("resource_sample", origin=origin, **sample)
            prefix = f"resource.{origin}."
            for field in ("rss_bytes", "cpu_s", "n_threads", "n_fds"):
                if field in sample:
                    tracer.gauge(prefix + field, sample[field])
            rss = sample.get("rss_bytes", -1.0)
            peak_key = prefix + "peak_rss_bytes"
            if rss > tracer.metrics.gauges.get(peak_key, 0.0):
                tracer.gauge(peak_key, rss)

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
        busy with one long task never looks silent.  An installed telemetry
        session *also* forces heartbeats on (at its sample interval, or the
        retry-derived interval if that is tighter) and asks each one to
        carry a resource sample — the runner-side feed of the live plane.
        """
        entries = []
        for entry in sys.path:
            entries.append(entry if entry else os.getcwd())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(entries))
        timeout = self.retry.heartbeat_timeout
        interval = max(0.05, timeout / 4.0) if timeout is not None else None
        if self.telemetry is not None:
            wanted = max(0.01, float(self.telemetry.sample_interval))
            interval = wanted if interval is None else min(interval, wanted)
            env[RESOURCE_SAMPLE_ENV] = "1"
        if interval is not None:
            env[HEARTBEAT_INTERVAL_ENV] = f"{interval:.3f}"
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
        try:
            for host_id in range(self.n_hosts):
                host = _Host(host_id)
                path = os.path.join(socket_dir, f"h{host_id}.sock")
                listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    listener.bind(path)
                    listener.listen(1)
                    listener.settimeout(self.start_timeout)
                    # A fresh interpreter per host (not a fork): the runner
                    # inherits no address space, so everything it computes on
                    # demonstrably arrived through its socket.
                    host.process = subprocess.Popen(
                        [sys.executable, "-m", "repro.cluster.runner", path, str(host_id)],
                        env=env,
                    )
                    try:
                        conn, _ = listener.accept()
                    except socket.timeout:
                        exitcode = host.process.poll()
                        raise RuntimeError(
                            f"cluster host {host_id} failed to connect within "
                            f"{self.start_timeout}s (exit code {exitcode})"
                        ) from None
                finally:
                    listener.close()
                host.channel = FrameChannel(conn)
                hello, _, _, _ = host.channel.recv()
                if hello != ("hello", host_id):
                    raise RuntimeError(
                        f"cluster host {host_id} sent a bad handshake: {hello!r}"
                    )
                host.last_seen = time.monotonic()
                hosts.append(host)
        except BaseException:
            self._hosts = hosts  # let close() reap whatever did start
            self._socket_dir = socket_dir
            self.close()
            raise
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
        with self._state_lock:
            # Runner-resident state dies with the runners; attached proxies
            # raise a "backend is closed" error on their next fault instead
            # of silently re-spawning a pool that never held their state.
            self._live_state.clear()
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
        policy = self.retry
        with host.lock:
            if host.dead is not None:
                return
            # Placeholder until the full reason is assembled below: anything
            # racing a submission in this window still sees a host-naming
            # message.
            placeholder = f"cluster host {host.host_id} died mid-round ({detail})"
            with self._retry_lock:
                self._failures += 1
                recover = (
                    self._hosts is not None and self._failures <= policy.max_retries
                )
                if not recover:
                    # Set before ``dead``: whoever observes this death also
                    # observes that it is terminal, so no replay starts on a
                    # spent budget — and a refused replay names the budget.
                    if policy.max_retries:
                        placeholder += "; retry budget exhausted"
                    self._exhausted = placeholder
            if recover:
                # Created together with the death claim so a dispatch that
                # races the recovery thread to a site-log replay always has
                # somewhere to record its contribution.
                host.recovery_stats = {
                    "repin": {}, "frames": 0, "wire": None, "tracer": None,
                    "round": 0, "closed": False, "emitted": False,
                }
            host.dead = placeholder
            pending = sorted(host.pending.items())
            host.pending.clear()
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
            f"state epoch by site: {{{self._committed_epoch_note(host)}}}"
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
        if policy.max_retries:
            reason = (
                f"{reason}; retry budget exhausted "
                f"({policy.max_retries} host failure(s) already recovered)"
            )
        self._exhausted = host.dead = reason
        task_ids = tuple(f"{entry.kind}#{seq}" for seq, entry in pending)
        for seq, entry in pending:
            self._clear_log_pending(entry)
            if not entry.future.done():
                entry.future.set_exception(
                    DeadHostError(
                        reason,
                        host_id=host.host_id,
                        round_index=entry.round_index,
                        epoch=self._log_epoch_for(entry),
                        task_ids=task_ids,
                    )
                )

    # ------------------------------------------------------------------
    # Recovery: re-pinning and state-epoch replay
    # ------------------------------------------------------------------

    def _committed_epoch_note(self, host: _Host) -> str:
        """``site N: epoch E`` fragments for the host's resident site state."""
        notes = []
        for (job, site_id), key in sorted(host.resident_by_site.items()):
            with self._logs_lock:
                log = self._site_logs.get(key)
            if log is not None:
                label = f"site {site_id}" if not job else f"{job}/site {site_id}"
                notes.append(f"{label}: epoch {log.epoch}")
        return "; ".join(notes) or "none"

    @staticmethod
    def _clear_log_pending(entry: _Pending) -> None:
        if entry.site_log is not None:
            pending = entry.site_log.pending
            if pending is not None and pending[1] is entry:
                entry.site_log.pending = None

    def _log_epoch_for(self, entry: _Pending) -> Optional[int]:
        return entry.site_log.epoch if entry.site_log is not None else None

    def _has_live_proxy(self, key: Any) -> bool:
        with self._state_lock:
            ref = self._live_state.get(key)
        proxy = ref() if ref is not None else None
        return proxy is not None and not proxy.detached

    def _host_by_id(self, host_id: Optional[int]) -> Optional[_Host]:
        hosts = self._hosts
        if hosts is None or host_id is None or not (0 <= host_id < len(hosts)):
            return None
        return hosts[host_id]

    def _place(self, site_id: int) -> _Host:
        """Deterministic placement for site ``site_id``.

        The default ``site_id % n_hosts`` pin wins while its host lives.
        Once it died, a pool with a retry budget routes to
        ``alive[site_id % len(alive)]`` — a pure function of the site id and
        the set of dead hosts, so two coordinators observing the same deaths
        place identically.  A zero budget never routes around a dead host:
        the dead default comes back, and the dispatch fails with its death.
        """
        hosts = self._hosts
        if hosts is None:
            raise RuntimeError("the cluster backend is closed")
        default = hosts[site_id % len(hosts)]
        if default.dead is None or not self.retry.max_retries:
            return default
        alive = [h for h in hosts if h.dead is None]
        if not alive:
            raise DeadHostError(
                f"no surviving cluster hosts to re-pin site {site_id} to "
                f"(last death: {default.dead})",
                host_id=default.host_id,
            )
        return alive[site_id % len(alive)]

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
        target = self._place(log.site_id)
        self._replay_log_locked(log, target)
        return target

    def _verify_replay_digest(
        self, log: SiteLog, index: int, epoch: Any, sizes: Dict[str, int]
    ) -> None:
        """Assert a replayed record reproduced the recorded state digest.

        Epochs are *not* compared — the replay target assigns its own
        monotonic sequence — but the digest's per-entry pickled sizes are the
        content fingerprint the original run committed, and determinism says
        they must match exactly.
        """
        expected = log.digests[index]
        if expected is None:
            return
        tracer = log.records[index].tracer
        if tracer is not None:
            tracer.inc("recovery.digest_checks")
        if dict(expected[1]) != dict(sizes):
            raise DeadHostError(
                f"replay of site {log.site_id} (resident key {log.key!r}) "
                f"diverged at record {index}: replayed state digest {sizes!r} "
                f"!= recorded digest {expected[1]!r}",
                host_id=log.location,
                round_index=log.records[index].round_index,
                epoch=expected[0],
            )

    def _replay_log_locked(
        self, log: SiteLog, target: _Host, adopt_final: Optional[Future] = None
    ) -> int:
        """Re-execute a site's dispatch log on ``target`` (caller holds log.lock).

        Replays every record from 0 — the first record necessarily shipped
        the full state dict, so a fresh host rebuilds from nothing — with
        state-token epochs rewritten positionally to the target's own epoch
        sequence and each replayed digest verified against the recorded one.
        Historical results are discarded; the final record resolves the
        original in-flight future (``log.pending`` or ``adopt_final``) via
        the regular site-result converter, and any still-live state proxy is
        rebound to the new location.  Returns the number of replayed frames.
        """
        # Placement hands a zero budget the dead host itself; a spent budget
        # refuses any further replay.  Either way the site's last committed
        # epoch goes on the error.
        refusal, dead_id = target.dead, target.host_id
        if refusal is None:
            refusal, dead_id = self._exhausted, log.location
        if refusal is not None:
            raise DeadHostError(
                refusal, host_id=dead_id, epoch=log.epoch,
                round_index=log.records[-1].round_index if log.records else None,
            )
        origin = self._host_by_id(log.location)
        pending = log.pending
        log.pending = None
        resolve = pending[1].future if pending is not None else adopt_final
        final_index = len(log.records) - 1
        epoch = 0
        replayed = 0
        for index, rec in enumerate(log.records):
            state = rec.state
            if is_state_token(state):
                # Record i's token referenced the epoch record i-1 produced;
                # on the target that is whatever epoch the previous replay
                # just returned.
                state = (STATE_TOKEN_TAG, epoch, state[2], state[3])
            is_final = index == final_index and resolve is not None
            convert = None
            if is_final:
                convert = self._site_result_converter(
                    target, log.key, log.site_id, rec.wire, rec.round_index,
                    rec.tracer, log.job,
                )
            if rec.tracer is not None:
                rec.tracer.inc("recovery.replayed_frames")
            future = self._submit_frame(
                target,
                self._site_frame(
                    target, log, rec, state, decode_payload(rec.rng_bytes),
                    traced=is_final and rec.traced,
                ),
                wire=rec.wire, round_index=rec.round_index, kind="replay",
                convert=convert, tracer=rec.tracer, job=log.job,
            )
            replayed += 1
            result = future.result()  # raises if the target died too
            if is_final:
                epoch, sizes = result.state.epoch, result.state.sizes
            else:
                _, epoch, sizes = result["state"]
            self._verify_replay_digest(log, index, epoch, sizes)
            if is_final:
                log.digests[index] = (epoch, dict(sizes))
                if not resolve.done():
                    resolve.set_result(result)
        log.epoch = epoch
        log.location = target.host_id
        if origin is not None and origin.recovery_stats is not None:
            # Whoever replayed this log — the recovery thread, or a dispatch/
            # pull that beat it to the log lock — contributes to the death's
            # shared bookkeeping; the recovery thread emits the merged event.
            with self._retry_lock:
                stats = origin.recovery_stats
                stats["repin"][log.site_id] = target.host_id
                stats["frames"] += replayed
                if log.records:
                    stats["round"] = max(stats["round"], log.records[-1].round_index)
                    if stats["wire"] is None:
                        stats["wire"] = log.records[-1].wire
                    if stats["tracer"] is None:
                        stats["tracer"] = log.records[-1].tracer
        if pending is None and adopt_final is None:
            # Every record was already complete: the run may still hold a
            # live proxy over the old location — point it at the replayed
            # copy (same content, new host, new epoch).
            with self._state_lock:
                ref = self._live_state.get(log.key)
            proxy = ref() if ref is not None else None
            if proxy is not None and not proxy.detached and proxy.owner() is self:
                rec = log.records[final_index]
                proxy.rebind(
                    lambda keys, host=target, key=log.key, epoch=epoch, rec=rec:
                        self._pull_state_entries(
                            host, key, epoch, keys, rec.wire, rec.round_index,
                            rec.tracer, log.job,
                        ),
                    epoch=epoch,
                )
        return replayed

    def _recover_host(self, host: _Host, pending: List[Tuple[int, _Pending]],
                      reason: str) -> None:
        """Recover one dead host: re-pin, replay, account.

        Runs on its own thread.  Order matters: frames that need no site-log
        lock resolve first (failing another recovery's in-flight replay
        frames promptly — that thread owns the log lock we would otherwise
        wait on), then every site log located on the dead host replays onto
        its re-pin target, then in-flight state pulls re-issue against the
        replayed copies.  Any failure here fails the affected futures with a
        :class:`DeadHostError` — never silently.
        """
        repin: Dict[int, int] = {}
        replayed = 0
        tracer = next((e.tracer for _, e in pending if e.tracer is not None), None)
        wire = next((e.wire for _, e in pending if e.wire is not None), None)
        round_hint = max((e.round_index for _, e in pending), default=0)
        t0 = tracer.clock() if tracer is not None else 0.0
        try:
            site_entries: List[_Pending] = []
            pull_entries: List[_Pending] = []
            for seq, entry in pending:
                if entry.future.done():
                    continue
                if entry.kind == "site" and entry.site_log is not None:
                    site_entries.append(entry)
                elif entry.kind in ("state_pull", "replay_pull") and entry.pull_info is not None:
                    pull_entries.append(entry)
                else:
                    entry.future.set_exception(
                        DeadHostError(
                            f"{reason}; this in-flight frame ({entry.kind}) is "
                            "not replayable",
                            host_id=host.host_id,
                            round_index=entry.round_index,
                        )
                    )
            for (_, site_id), key in sorted(host.resident_by_site.items()):
                with self._logs_lock:
                    log = self._site_logs.get(key)
                if log is None:
                    continue
                with log.lock:
                    if log.location != host.host_id:
                        continue  # already re-pinned (racing dispatch replayed it)
                    if (
                        host.hb_account[0] is None
                        and log.pending is None
                        and not self._has_live_proxy(key)
                    ):
                        # Nothing waits on this state, nobody can read it, and
                        # no run is accounting against this host (the
                        # dispatch-time (wire, tracer) pair is cleared by
                        # ``detach_run_accounting`` when a run ends): skip the
                        # replay, let the next dispatch re-ship the full
                        # context through the ordinary miss path.  While a run
                        # IS active the log replays even with nothing in
                        # flight — the run may well dispatch to this site next
                        # round, and the ledger must show the death (exactly
                        # one recovery event plus replay frames) no matter how
                        # the event loop races that dispatch.
                        log.location = None
                        continue
                    # Replay contributions (re-pin, frame count, round/wire/
                    # tracer evidence) land in ``host.recovery_stats``.
                    self._replay_log_locked(log, self._place(site_id))
            for entry in site_entries:
                if not entry.future.done():  # pragma: no cover - defensive
                    entry.future.set_exception(
                        DeadHostError(
                            f"{reason}; its site log could not be replayed",
                            host_id=host.host_id,
                            round_index=entry.round_index,
                        )
                    )
            for entry in pull_entries:
                # Follows the site log to the replayed copy of the state.
                key, keys = entry.pull_info
                try:
                    value = self._pull_state_entries(
                        host, key, None, keys, entry.wire, entry.round_index,
                        entry.tracer, entry.job,
                    )
                except Exception as exc:  # noqa: BLE001 - relayed to the waiter
                    entry.future.set_exception(exc)
                else:
                    entry.future.set_result(value)
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
            return
        with self._retry_lock:
            # Merge replay contributions — including those from dispatches or
            # pulls that beat this thread to a site-log replay, which would
            # otherwise leave the event empty.  Pass 2 above blocked on every
            # log's lock, so all replays of this host's logs are recorded.
            stats = host.recovery_stats
            if stats is not None:
                repin.update(stats["repin"])
                replayed += stats["frames"]
                round_hint = max(round_hint, stats["round"])
                if wire is None:
                    wire = stats["wire"]
                if tracer is None:
                    tracer = stats["tracer"]
            if wire is None:
                # Nothing in flight and nothing replayed, but a run may still
                # be accounting against this host: fall back to the (wire,
                # tracer) pair captured at its last dispatch so a mid-run
                # death always shows in the ledger.  Cleared at run end by
                # ``detach_run_accounting``, so idle warm-pool deaths stay
                # off finished runs' books.
                hb_wire, hb_tracer, hb_round, _ = host.hb_account
                wire = hb_wire
                if tracer is None:
                    tracer = hb_tracer
                round_hint = max(round_hint, hb_round)
            if stats is not None:
                # Later contributors (a dispatch that routes around the
                # death after this merge) emit the event themselves iff we
                # are not about to.
                stats["closed"] = True
                stats["emitted"] = wire is not None
        if wire is not None:
            wire.record_recovery(
                host=host.host_id, round_index=round_hint, reason=reason,
                repin=repin, replayed_frames=replayed,
            )
        if tracer is not None:
            tracer.inc("recovery.host_failures")
            tracer.inc("recovery.repinned_sites", len(repin))
            tracer.add_span(
                "recovery", t0, tracer.clock(), origin="coordinator",
                host=host.host_id, round=round_hint,
                sites=len(repin), frames=replayed,
            )
            tracer.event(
                "host_death", host=host.host_id, round=round_hint,
                repinned=len(repin), replayed=replayed,
            )

    def _note_death_observed(
        self, host: _Host, wire, tracer, round_index: int
    ) -> None:
        """Make sure ``host``'s death shows in the ledger exactly once.

        Called by any site dispatch that *observes* a death: its placement
        routes around (or replays off) the dead host.  Contributes this
        dispatch's round/wire/tracer to the death's shared bookkeeping if
        the recovery thread has not merged yet (it emits the single merged
        event), or emits the recovery event here if the thread closed
        without ledger evidence (nothing was in flight and
        nothing was resident, so it had no wire to record on).  The
        ``emitted`` flag under ``_retry_lock`` keeps the event unique.
        """
        emit = False
        with self._retry_lock:
            stats = host.recovery_stats
            if stats is not None:
                if not stats["closed"]:
                    stats["round"] = max(stats["round"], round_index)
                    if stats["wire"] is None:
                        stats["wire"] = wire
                    if stats["tracer"] is None:
                        stats["tracer"] = tracer
                elif not stats["emitted"] and wire is not None:
                    stats["emitted"] = True
                    emit = True
        if emit:
            wire.record_recovery(
                host=host.host_id, round_index=round_index,
                reason=host.dead, repin={}, replayed_frames=0,
            )
            if tracer is not None:
                tracer.inc("recovery.host_failures")
                tracer.event(
                    "host_death", host=host.host_id,
                    round=round_index, repinned=0, replayed=0,
                )

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
            # Unsolicited runner heartbeat.  Accounted against the
            # (ledger, tracer) pair the last dispatch to this host
            # captured atomically — the same pair every other frame of
            # the run uses.  Heartbeats arriving before any dispatch
            # (warm pool idling between runs) are liveness-only.  Under
            # the host lock so detach_run_accounting() can provide a
            # barrier: once it returns, no heartbeat is being (or will
            # be) recorded against the finished run's ledger/tracer.
            with host.lock:
                hb_wire, hb_tracer, hb_round, _ = host.hb_account
                if hb_wire is not None:
                    hb_wire.record(
                        round_index=hb_round, host=host.host_id,
                        direction="recv", kind="hb",
                        n_bytes=n_bytes, raw_bytes=raw_bytes, codec=codec,
                        tracer=hb_tracer,
                    )
            if len(frame) > 3 and frame[3]:
                self._absorb_resource_sample(host, frame[3])
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
        if plan is not None and plan.has_io_actions and entry.kind != "control":
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
        if extras:
            timer = extras.get("timer")
            if timer is not None:
                host.runner_timer.merge(timer)
            if entry.tracer is not None:
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
        build_frame: Callable[[int], Tuple],
        *,
        wire: Optional[WireLedger],
        round_index: int,
        kind: str,
        convert: Optional[Callable[[Any], Any]],
        tracer=None,
        job: str = "",
        entry_extra: Optional[Dict[str, Any]] = None,
        on_dead: str = "fail",
    ) -> Future:
        """Encode, register and enqueue one frame; returns its future.

        ``entry_extra`` lands on the pending entry's recovery slots (site
        log + record, re-issuable pull).  ``on_dead`` chooses what a
        registration racing the host's death does: ``"fail"`` (default)
        resolves the future with the death, ``"raise"`` throws
        :class:`_HostDied` so the caller can re-target and replay.
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
            try:
                frame = encode_frame(build_frame(seq), codec)
            except Exception as exc:  # noqa: BLE001 - relayed via the future
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
            entry = _Pending(future, wire, round_index, kind, convert, job)
            entry.fault_ordinal = fault_ordinal
            if entry_extra:
                for slot, value in entry_extra.items():
                    setattr(entry, slot, value)
            if tracer is not None and tracer.enabled:
                entry.tracer = tracer
                entry.t_send = tracer.clock()
            with host.lock:
                if host.dead is not None:
                    if on_dead == "raise":
                        raise _HostDied(host.dead)
                    future.set_exception(
                        DeadHostError(
                            host.dead, host_id=host.host_id, round_index=round_index,
                        )
                    )
                    return future
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
                # Captured as one tuple so the event loop accounting a
                # heartbeat sees a *consistent* (ledger, tracer) pair — the
                # pair this run's frames use — never a ledger from one run
                # and a tracer from another.
                host.hb_account = (wire, entry.tracer, round_index, job)
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
        wire: Optional[WireLedger] = None,
        round_index: int = 0,
        tracer=None,
        job: str = "",
    ) -> List[Future]:
        """Ship ``(SiteTask, SiteContext)`` pairs, returning SiteTaskResult futures.

        Site ``s`` is pinned to host ``s % n_hosts``, and its
        ``(shard, local_metric)`` sticky half is shipped only the first time
        the host sees the context's ``resident_key`` — later rounds reuse the
        runner-resident copy.  Mutable state gets the same residency: when
        ``ctx.state`` is the :class:`~repro.runtime.state.RemoteStateProxy`
        this backend produced for the same key, the dispatch carries only an
        epoch token plus the coordinator's write overlay; otherwise (first
        round, residency cleared, foreign proxy) the full dict is shipped
        and the runner adopts it.

        Every dispatch appends a
        :class:`~repro.cluster.recovery.SiteDispatchRecord` to the key's
        :class:`~repro.cluster.recovery.SiteLog` before its frame is built.
        A key whose host died is replayed onto its placement under the log
        lock before anything new is dispatched for it; on a zero or spent
        budget the dispatch's future fails with :class:`DeadHostError`
        instead.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        self._ensure_started()
        futures = []
        for task, ctx in pairs:
            try:
                future = self._dispatch_site(
                    task, ctx, wire=wire, round_index=round_index,
                    tracer=tracer, job=job,
                )
            except DeadHostError as exc:
                future = Future()
                future.set_exception(exc)
            futures.append(future)
        return futures

    def _dispatch_site(
        self, task, ctx, *, wire, round_index: int, tracer, job: str
    ) -> Future:
        """Log, place and submit one site task (see :meth:`submit_site_pairs`)."""
        traced = tracer is not None and tracer.enabled
        key = ctx.resident_key
        with self._logs_lock:
            log = self._site_logs.get(key)
            if log is None:
                log = self._site_logs[key] = SiteLog(
                    key, ctx.site_id, (ctx.shard, ctx.local_metric), job
                )
        with log.lock:
            target = self._ensure_located_locked(log) or self._place(ctx.site_id)
            default = self._host_by_id(ctx.site_id % self.n_hosts)
            if target is not default:
                # Placement routed around (or replayed off) a dead host: make
                # sure the death is on the ledger even if its recovery thread
                # closed with nothing in flight to evidence it.
                self._note_death_observed(default, wire, tracer, round_index)
            state = self._encode_dispatch_state(ctx.state, key)
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
                    convert=self._site_result_converter(
                        target, key, ctx.site_id, wire, round_index, tracer, job
                    ),
                    tracer=tracer, job=job, on_dead="raise",
                    entry_extra={"site_log": log, "record_index": index},
                )
            except _HostDied:
                # The target died between placement and registration.  The
                # record is already in the log; replaying it (from record 0,
                # on the placement the death leaves) both rebuilds the
                # resident state and produces this dispatch's result.
                adopted: Future = Future()
                self._replay_log_locked(log, self._place(ctx.site_id), adopted)
                return adopted

    def _site_frame(
        self, host: _Host, log: SiteLog, record: SiteDispatchRecord,
        state: Any, rng: Any, traced: bool,
    ) -> Callable[[int], Tuple]:
        """Claim ``log``'s resident slot on ``host``; return its frame builder.

        Used by first dispatch and replay alike.  The sticky half ships only
        when the host does not hold the key yet.  A fresh key for an
        already-seen ``(job, site)`` slot means a new protocol run took the
        slot over: the superseded key is evicted remotely (its live proxy
        materialised first, its dispatch log dropped), so a shared warm pool
        never grows runner memory or site logs with dead runs.  Slots are
        per job namespace, so concurrent jobs with identical site ids never
        evict each other.
        """
        key = log.key
        sticky = None
        evict: List[Any] = []
        if key not in host.resident_keys:
            sticky = log.sticky
            stale = host.resident_by_site.get((log.job, log.site_id))
            if stale is not None and stale != key:
                self._detach_resident_key(stale)
                evict.append(stale)
                host.resident_keys.discard(stale)
                with self._logs_lock:
                    self._site_logs.pop(stale, None)
            host.resident_keys.add(key)
            host.resident_by_site[(log.job, log.site_id)] = key
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
        return lambda seq: ("site", seq, key, sticky, dyn, evict)

    # ------------------------------------------------------------------
    # Resident mutable state
    # ------------------------------------------------------------------

    def _encode_dispatch_state(self, state: Any, key: Any) -> Any:
        """What the dispatch frame carries in its state slot.

        An attached current-epoch proxy of this backend collapses to its
        epoch token (plus the coordinator-side write overlay); anything else
        — a plain dict, a detached proxy, a proxy of another backend —
        materialises into a full dict the runner adopts.
        """
        if (
            isinstance(state, RemoteStateProxy)
            and not state.detached
            and state.owner() is self
            and state.resident_key == key
        ):
            with self._state_lock:
                ref = self._live_state.get(key)
            if ref is not None and ref() is state:
                return state.dispatch_token()
        return materialize_state(state)

    def _site_result_converter(
        self,
        host: _Host,
        key: Any,
        site_id: int,
        wire: Optional[WireLedger],
        round_index: int,
        tracer=None,
        job: str = "",
    ) -> Callable[[dict], Any]:
        """Build the wire->SiteTaskResult decoder for one dispatched site task.

        Runs on the event-loop thread when the result frame arrives; the
        frame's state digest becomes a :class:`RemoteStateProxy` registered
        as the key's current-epoch view.
        """
        from repro.runtime.tasks import Outgoing, SiteTaskResult

        def convert(result: dict):
            outbox = [
                Outgoing(
                    kind=kind, payload=decode_payload(blob), words=words,
                    n_bytes=n_bytes, n_bytes_encoded=n_encoded,
                )
                for kind, blob, words, n_bytes, n_encoded in result["outbox"]
            ]
            _, epoch, sizes = result["state"]
            proxy = RemoteStateProxy(
                resident_key=key,
                site_id=site_id,
                epoch=epoch,
                sizes=sizes,
                fetch=lambda keys: self._pull_state_entries(
                    host, key, epoch, keys, wire, round_index, tracer, job
                ),
                owner=self,
            )
            with self._state_lock:
                self._live_state[key] = weakref.ref(proxy)
            return SiteTaskResult(
                site_id=result["site_id"],
                value=result["value"],
                state=proxy,
                timer=result["timer"],
                rng=result["rng"],
                outbox=outbox,
            )

        return convert

    def _pull_state_entries(
        self,
        host: _Host,
        key: Any,
        epoch: Optional[int],
        keys: Sequence[str],
        wire: Optional[WireLedger],
        round_index: int,
        tracer=None,
        job: str = "",
    ) -> Dict[str, Any]:
        """Fault resident-state entries from a runner (a proxy read missed).

        The pull frames land in the same wire ledger as the round that
        produced the digest, so the ledger stays an honest account of every
        byte the protocol's state handling moved.

        When the owning host has died, the pull follows the site's dispatch
        log to the replayed copy of the state (replaying the log onto its
        placement first if recovery has not reached it yet) and is charged
        as a ``replay_pull`` frame.  A zero or spent retry budget refuses
        the replay, so the read raises :class:`DeadHostError` naming the
        host and the site's last committed epoch.
        """
        hosts = self._hosts
        if hosts is None or host not in hosts:
            raise RuntimeError(
                f"cannot fault state entries {list(keys)!r} for {key!r}: the "
                "cluster backend holding them was closed (pull_state() first)"
            )
        keys = list(keys)
        kind = "state_pull"
        while True:
            if host.dead is not None:
                with self._logs_lock:
                    log = self._site_logs.get(key)
                located = None
                if log is not None:
                    with log.lock:
                        located = self._ensure_located_locked(log)
                        epoch = log.epoch
                if located is None:
                    raise DeadHostError(
                        f"state entries {keys!r} of {key!r} are unreachable and "
                        f"there is no dispatch log to replay: {host.dead}",
                        host_id=host.host_id, round_index=round_index,
                    )
                host, kind = located, "replay_pull"
            if tracer is not None and tracer.enabled:
                tracer.inc("cluster.state_pulls")
                if kind == "replay_pull":
                    tracer.inc("recovery.replayed_frames")
                tracer.event(
                    "state_pull", host=host.host_id, round=round_index,
                    epoch=epoch, keys=len(keys),
                )
            try:
                future = self._submit_frame(
                    host,
                    lambda seq, epoch=epoch: ("pull_state", seq, key, epoch, keys),
                    wire=wire, round_index=round_index, kind=kind, convert=None,
                    tracer=tracer, job=job, on_dead="raise",
                    entry_extra={"pull_info": (key, keys)},
                )
            except _HostDied:
                continue  # died between the liveness check and registration
            return future.result()

    def _detach_resident_key(self, key: Any) -> None:
        """Forget a key's proxy registration, materialising it if still alive.

        Called right before the runner-side copy goes away (slot eviction,
        :meth:`clear_resident`): a live proxy pulls its remaining entries so
        nothing the coordinator could still read is lost; a dead proxy means
        nobody can read the state anymore and nothing needs shipping.
        """
        with self._state_lock:
            ref = self._live_state.pop(key, None)
        proxy = ref() if ref is not None else None
        if proxy is not None and not proxy.detached:
            proxy.pull_state()

    def runner_timers(self) -> Dict[int, Timer]:
        """Per-host runner overhead totals merged from result-frame extras.

        Every result frame carries the runner's own ``cluster:*`` timer for
        that frame (task execution, outbox/digest encoding); the reader
        threads fold them into one accumulating :class:`Timer` per host.
        The returned timers are snapshots — safe to read after
        :meth:`close`, empty when the pool never started.
        """
        if self._hosts is None:
            return {}
        out: Dict[int, Timer] = {}
        for host in self._hosts:
            snapshot = Timer()
            snapshot.merge(host.runner_timer)
            out[host.host_id] = snapshot
        return out

    def map_ordered(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Refuse generic callables: the pool runs site tasks only."""
        raise TypeError(
            f"{type(self).__name__} runs site tasks only: dispatch a round "
            "with repro.runtime.run_site_tasks"
        )

    submit_ordered = map_ordered

    def clear_resident(self) -> None:
        """Drop all runner-resident site state (frees memory on shared pools).

        Everything resident goes: the sticky ``(shard, local_metric)``
        copies and the mutable per-site state.  Live state proxies are
        materialised first — their remaining entries are pulled to the
        coordinator — so a mid-run clear loses nothing: the next dispatch
        simply re-ships the full context (sticky half, state dict) and
        results stay bit-identical.
        """
        if self._hosts is None:
            return
        with self._state_lock:
            keys = list(self._live_state)
        for key in keys:
            self._detach_resident_key(key)
        with self._logs_lock:
            # Dispatch logs checkpoint *resident* state; once nothing is
            # resident there is nothing left to replay.
            self._site_logs.clear()
        futures = []
        for host in self._hosts:
            if host.dead is not None:
                continue
            host.resident_keys.clear()
            host.resident_by_site.clear()
            # Its own kind: neither a fault plan's dispatch ordinals nor
            # its io ordinals count a control frame.
            futures.append(
                self._submit_frame(
                    host, lambda seq: ("clear_resident", seq),
                    wire=None, round_index=0, kind="control", convert=None,
                )
            )
        for future in futures:
            future.result()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "stopped" if self._hosts is None else "running"
        return f"ClusterBackend(n_hosts={self.n_hosts}, {state})"


__all__ = ["ClusterBackend"]
