"""The coordinator's selector-based event loop.

One :class:`EventLoop` thread multiplexes every runner channel of a
:class:`~repro.cluster.backend.ClusterBackend`: non-blocking reads feed each
channel's frame-reassembly buffer (:meth:`FrameChannel.read_ready` /
:meth:`~repro.cluster.framing.FrameChannel.take_frames`), writes drain the
channel's backpressured send queue
(:meth:`~repro.cluster.framing.FrameChannel.flush_out`) only while bytes are
actually queued, and periodic callbacks (heartbeat monitoring) run between
I/O batches.  This replaces the one-reader-plus-one-sender thread pair the
backend used to run per host — the coordinator's thread count is now O(1)
in the number of hosts, the shape a service admitting many concurrent jobs
needs.

Threading contract:

* Everything that touches the selector — registration, interest changes,
  timers — happens **on the loop thread**.  Other threads talk to the loop
  through :meth:`call_soon` (a thread-safe command queue drained every
  iteration, with a socketpair wakeup so a sleeping ``select`` notices) and
  the convenience wrappers built on it (:meth:`notify_write`,
  :meth:`register_channel`).
* Frame callbacks run on the loop thread.  They must not block on work the
  loop itself serves — the backend's recovery replay, which waits on
  response futures, therefore runs on its own short-lived thread exactly as
  before.
* A channel error (EOF, ``ECONNRESET``, an undecodable frame) unregisters
  the channel and invokes its ``on_error`` callback once; the loop itself
  keeps serving the surviving channels.
"""

from __future__ import annotations

import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.framing import FrameChannel

#: One received frame as the loop hands it to a channel callback:
#: ``(object, wire_bytes, raw_bytes, codec_name)`` — the tuple
#: :meth:`FrameChannel.recv` returns.
Frame = Tuple[Any, int, int, str]


class TimerHandle:
    """A cancellable periodic callback registered with :meth:`EventLoop.call_every`."""

    __slots__ = ("interval", "fn", "deadline", "cancelled")

    def __init__(self, interval: float, fn: Callable[[], None]):
        self.interval = float(interval)
        self.fn = fn
        self.deadline = time.monotonic() + self.interval
        self.cancelled = False

    def cancel(self) -> None:
        """Stop future firings (idempotent; safe from any thread)."""
        self.cancelled = True


class _Registration:
    """Loop-side record for one managed channel."""

    __slots__ = ("fd", "channel", "on_frames", "on_error", "writing", "dead")

    def __init__(self, fd: int, channel: FrameChannel, on_frames, on_error):
        self.fd = fd
        self.channel = channel
        self.on_frames = on_frames
        self.on_error = on_error
        #: Whether write interest is currently registered for this fd.
        self.writing = False
        #: Set once on_error ran; later I/O and errors are ignored.
        self.dead = False


class EventLoop:
    """A selectors-driven reactor multiplexing many :class:`FrameChannel` s."""

    def __init__(self, name: str = "repro-cluster-loop"):
        self.name = name
        self._selector = selectors.DefaultSelector()
        # The wakeup pair: call_soon() from another thread writes one byte so
        # a sleeping select() returns and drains the command queue.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._commands: Deque[Callable[[], None]] = deque()
        self._cmd_lock = threading.Lock()
        self._timers: List[TimerHandle] = []
        self._registrations: Dict[int, _Registration] = {}
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the loop thread (idempotent while it is alive)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stopping = False
        self._thread = threading.Thread(target=self._run, name=self.name, daemon=True)
        self._thread.start()

    @property
    def thread(self) -> Optional[threading.Thread]:
        """The loop thread (None before :meth:`start`)."""
        return self._thread

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self, join: bool = True, timeout: float = 5.0) -> None:
        """Stop the loop thread and release the selector/wakeup fds.

        Idempotent.  Registered channels are *not* closed — their owner
        (the backend) drains and closes them after the loop is gone, with
        the sockets back in blocking mode.
        """
        if self._thread is not None and self._thread.is_alive():
            self.call_soon(self._request_stop)
            if join:
                self._thread.join(timeout=timeout)
        self._thread = None
        if not self._closed:
            self._closed = True
            try:
                self._selector.close()
            except OSError:  # pragma: no cover - selector already gone
                pass
            self._wake_r.close()
            self._wake_w.close()

    def _request_stop(self) -> None:
        self._stopping = True

    # ------------------------------------------------------------------
    # Thread-safe entry points
    # ------------------------------------------------------------------

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread at the next iteration (thread-safe)."""
        with self._cmd_lock:
            self._commands.append(fn)
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, InterruptedError):
            pass  # a wake byte is already pending; that is enough
        except OSError:
            pass  # loop already shut down; stop() drains the queue anyway

    def call_every(self, interval: float, fn: Callable[[], None]) -> TimerHandle:
        """Register a periodic callback on the loop thread (thread-safe)."""
        handle = TimerHandle(interval, fn)
        self.call_soon(lambda: self._timers.append(handle))
        return handle

    def register_channel(
        self,
        channel: FrameChannel,
        on_frames: Callable[[List[Frame]], None],
        on_error: Callable[[BaseException], None],
    ) -> None:
        """Adopt one non-blocking channel into the loop (thread-safe).

        ``on_frames`` receives every batch of complete frames the channel
        produces; ``on_error`` fires once when the channel dies (EOF, socket
        error, undecodable frame) after it was unregistered.
        """
        reg = _Registration(channel.fileno(), channel, on_frames, on_error)
        if self.is_alive():
            self.call_soon(lambda: self._do_register(reg))
        else:
            self._do_register(reg)

    def _do_register(self, reg: _Registration) -> None:
        self._registrations[reg.fd] = reg
        self._selector.register(reg.fd, selectors.EVENT_READ, reg)

    def notify_write(self, channel: FrameChannel) -> None:
        """Tell the loop ``channel`` has queued bytes to flush (thread-safe)."""
        self.call_soon(lambda: self._enable_write(channel))

    def _enable_write(self, channel: FrameChannel) -> None:
        for reg in self._registrations.values():
            if reg.channel is channel:
                if not reg.writing and not reg.dead and channel.pending_out:
                    reg.writing = True
                    self._selector.modify(
                        reg.fd, selectors.EVENT_READ | selectors.EVENT_WRITE, reg
                    )
                return

    # ------------------------------------------------------------------
    # Loop body
    # ------------------------------------------------------------------

    def _drop_registration(self, reg: _Registration) -> None:
        self._registrations.pop(reg.fd, None)
        try:
            self._selector.unregister(reg.fd)
        except (KeyError, ValueError, OSError):
            pass

    def _channel_error(self, reg: _Registration, exc: BaseException) -> None:
        if reg.dead:
            return
        reg.dead = True
        self._drop_registration(reg)
        try:
            reg.on_error(exc)
        except Exception:  # noqa: BLE001 - a dying channel must not kill the loop
            traceback.print_exc(file=sys.stderr)

    def _service(self, reg: _Registration, mask: int) -> None:
        if reg.dead:
            return
        if mask & selectors.EVENT_WRITE:
            try:
                drained = reg.channel.flush_out()
            except ConnectionError as exc:
                self._channel_error(reg, exc)
                return
            if drained and reg.writing:
                reg.writing = False
                self._selector.modify(reg.fd, selectors.EVENT_READ, reg)
        if mask & selectors.EVENT_READ:
            try:
                n = reg.channel.read_ready()
            except ConnectionError as exc:
                self._channel_error(reg, exc)
                return
            if n == -1:
                return
            try:
                frames = reg.channel.take_frames()
            except Exception as exc:  # noqa: BLE001 - undecodable frame
                self._channel_error(reg, exc)
                return
            if frames:
                try:
                    reg.on_frames(frames)
                except Exception as exc:  # noqa: BLE001 - callback bug
                    self._channel_error(reg, exc)

    def _run_commands(self) -> None:
        while True:
            with self._cmd_lock:
                if not self._commands:
                    return
                fn = self._commands.popleft()
            try:
                fn()
            except Exception:  # noqa: BLE001 - a bad command must not kill the loop
                traceback.print_exc(file=sys.stderr)

    def _run_timers(self, now: float) -> None:
        due = [t for t in self._timers if not t.cancelled and t.deadline <= now]
        self._timers = [t for t in self._timers if not t.cancelled]
        for timer in due:
            timer.deadline = now + timer.interval
            try:
                timer.fn()
            except Exception:  # noqa: BLE001 - a bad timer must not kill the loop
                traceback.print_exc(file=sys.stderr)

    def _select_timeout(self) -> Optional[float]:
        deadlines = [t.deadline for t in self._timers if not t.cancelled]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _run(self) -> None:
        while not self._stopping:
            try:
                events = self._selector.select(self._select_timeout())
            except OSError:
                # A registered fd was closed out from under the selector.
                # Sweep the registrations for dead fds and keep serving the
                # rest.
                self._sweep_closed()
                continue
            for key, mask in events:
                if key.data is None:
                    # Wakeup byte(s): drain and fall through to the commands.
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, InterruptedError):
                        pass
                    except OSError:  # pragma: no cover - shutdown race
                        pass
                    continue
                self._service(key.data, mask)
            self._run_commands()
            self._run_timers(time.monotonic())

    def _sweep_closed(self) -> None:
        for reg in list(self._registrations.values()):
            try:
                fd = reg.channel.fileno()
            except OSError:
                fd = -1
            if fd == -1 or fd != reg.fd:
                self._channel_error(
                    reg, ConnectionError("channel socket was closed")
                )


__all__ = ["EventLoop", "Frame", "TimerHandle"]
