"""Codec-framed pickle transport over stream sockets.

The cluster backend ships every task and payload over a real byte stream
(a unix-domain socket per host), so the framing layer is where wire-level
byte accounting becomes exact.  A frame is::

    [8-byte big-endian encoded-body length][1-byte codec id][encoded body]

and the *body* — before the frame codec runs — is a pickle protocol-5
envelope with out-of-band buffers::

    [4-byte n_buffers][8-byte pickle length][n x 8-byte buffer lengths]
    [pickle bytes][buffer bytes ...]

Numpy arrays (and anything else that emits :class:`pickle.PickleBuffer`)
travel as raw out-of-band buffers after the pickle stream; on receive the
decoder hands ``pickle.loads`` memoryview slices of the frame buffer, so an
uncompressed frame is decoded **zero-copy** — the arrays alias the receive
buffer instead of being re-materialised through the pickle machinery.  The
receive buffer is a ``bytearray`` (and compressed bodies are decompressed
into one), so decoded arrays stay *writable* exactly like in-band pickled
copies would be.

On top of the body sits a per-frame codec: ``none`` (identity) or ``zlib``
(stdlib).  Both ends of a channel resolve the same policy from the same
environment, so they agree without negotiation.  Compression is an explicit
size-vs-decode-time tradeoff chosen per frame *kind* by a
:class:`WirePolicy`: site frames and their replays, which ship site views and
payloads, are compressed; heartbeats are not.  A codec that
fails to shrink a body (or a body under :data:`MIN_COMPRESS_BYTES`) is
dropped for that frame — the wire never carries a frame larger than its
raw form, and the choice is deterministic so repeated runs exchange
byte-identical streams.

Both :meth:`FrameChannel.send` and :meth:`FrameChannel.recv` report the
bytes that actually crossed the socket *and* the bytes the frame would have
occupied uncompressed (header included) — the raw/encoded pair the
:class:`~repro.cluster.wire.WireLedger` records per frame.

Framing errors are surfaced as :class:`ConnectionError` — a short read
means the peer went away mid-frame, which the backend turns into a
host-death diagnostic.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple, Union

#: Frame header: unsigned 64-bit big-endian *encoded* body length plus the
#: one-byte wire id of the codec that encoded the body.
_HEADER = struct.Struct(">QB")

#: Wire bytes a frame occupies beyond its encoded body.
FRAME_OVERHEAD = _HEADER.size

#: Body envelope header: number of out-of-band buffers, pickle byte length.
_BODY_HEADER = struct.Struct(">IQ")

#: Per-buffer length slot in the body envelope.
_BUF_LEN = struct.Struct(">Q")

#: Pickle protocol used for every frame (protocol 5: out-of-band buffers).
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Bodies smaller than this skip the compression attempt entirely: the codec
#: overhead cannot win on control frames and tiny results, and skipping keeps
#: the encoded stream deterministic and cheap.
MIN_COMPRESS_BYTES = 256


def encode_payload(obj: Any) -> bytes:
    """Serialise one object as a standalone pickle (no out-of-band buffers).

    This is the *component* encoder: a dispatch record keeps its RNG stream
    in this form for replay, independent of whatever frame carries it.
    """
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(data)


# ---------------------------------------------------------------------------
# Codec registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Codec:
    """One frame codec: a name, a one-byte wire id and the byte transforms."""

    name: str
    wire_id: int
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


NONE_CODEC = Codec(name="none", wire_id=0, compress=lambda d: d, decompress=lambda d: d)
ZLIB_CODEC = Codec(name="zlib", wire_id=1, compress=zlib.compress, decompress=zlib.decompress)

_CODECS_BY_NAME: Dict[str, Codec] = {"none": NONE_CODEC, "zlib": ZLIB_CODEC}

_CODECS_BY_ID: Dict[int, Codec] = {c.wire_id: c for c in _CODECS_BY_NAME.values()}


def available_codecs() -> Tuple[str, ...]:
    """Names the registry can resolve."""
    return tuple(sorted(_CODECS_BY_NAME))


def resolve_codec(name: Union[str, Codec, None]) -> Codec:
    """Resolve a codec name to a usable :class:`Codec`.

    ``None`` means ``"none"``.  Unknown names raise :class:`ValueError`.
    """
    if isinstance(name, Codec):
        return name
    if name is None:
        return NONE_CODEC
    codec = _CODECS_BY_NAME.get(str(name).strip().lower())
    if codec is None:
        raise ValueError(
            f"unknown wire codec {name!r}; available: {', '.join(available_codecs())}"
        )
    return codec


def codec_by_id(wire_id: int) -> Codec:
    """The codec a received frame header names; raises on undecodable ids."""
    codec = _CODECS_BY_ID.get(wire_id)
    if codec is None:
        raise ConnectionError(f"received a frame with unknown codec id {wire_id}")
    return codec


# ---------------------------------------------------------------------------
# Body envelope (pickle-5 with out-of-band buffers)
# ---------------------------------------------------------------------------


def encode_body(obj: Any) -> bytes:
    """Serialise one object into the raw (pre-codec) frame body."""
    buffers = []
    pik = pickle.dumps(obj, protocol=PICKLE_PROTOCOL, buffer_callback=buffers.append)
    raws = [b.raw() for b in buffers]
    parts = [_BODY_HEADER.pack(len(raws), len(pik))]
    for raw in raws:
        parts.append(_BUF_LEN.pack(raw.nbytes))
    parts.append(pik)
    parts.extend(raws)
    return b"".join(parts)


def decode_body(body) -> Any:
    """Inverse of :func:`encode_body`.

    ``body`` may be any buffer; out-of-band buffers are handed to pickle as
    memoryview *slices* of it (zero-copy).  Pass a ``bytearray`` to make the
    decoded arrays writable — they alias the body for their whole lifetime.
    """
    view = memoryview(body)
    n_buffers, pik_len = _BODY_HEADER.unpack_from(view, 0)
    offset = _BODY_HEADER.size
    lengths = []
    for _ in range(n_buffers):
        (length,) = _BUF_LEN.unpack_from(view, offset)
        offset += _BUF_LEN.size
        lengths.append(length)
    pik = view[offset : offset + pik_len]
    offset += pik_len
    buffers = []
    for length in lengths:
        buffers.append(view[offset : offset + length])
        offset += length
    return pickle.loads(pik, buffers=buffers)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodedFrame:
    """One frame ready for the socket, with its raw/encoded byte accounting.

    ``data`` is the codec-encoded body, ``codec`` the name the header will
    carry (``"none"`` whenever compression was skipped or did not shrink the
    body), ``raw_len`` the body's pre-codec length.
    """

    data: bytes
    codec: str
    raw_len: int

    @property
    def n_bytes(self) -> int:
        """Wire bytes the frame occupies, header included."""
        return FRAME_OVERHEAD + len(self.data)

    @property
    def raw_bytes(self) -> int:
        """Wire bytes the frame would occupy uncompressed, header included."""
        return FRAME_OVERHEAD + self.raw_len


def encode_frame(obj: Any, codec: Union[str, Codec, None] = None) -> EncodedFrame:
    """Serialise one object into an :class:`EncodedFrame` under ``codec``.

    Compression is attempted only when the body reaches
    :data:`MIN_COMPRESS_BYTES` and kept only when it shrinks the body, so an
    encoded frame is never larger than its raw form and the outcome is a
    pure function of the payload — repeat runs stay byte-identical.
    """
    resolved = resolve_codec(codec)
    body = encode_body(obj)
    if resolved.wire_id != NONE_CODEC.wire_id and len(body) >= MIN_COMPRESS_BYTES:
        compressed = resolved.compress(body)
        if len(compressed) < len(body):
            return EncodedFrame(data=compressed, codec=resolved.name, raw_len=len(body))
    return EncodedFrame(data=body, codec=NONE_CODEC.name, raw_len=len(body))


# ---------------------------------------------------------------------------
# Per-frame-kind codec policy
# ---------------------------------------------------------------------------

#: Frame kinds whose payloads are worth compressing: site dispatch/result
#: (site views and payloads) and their replays.
COMPRESSIBLE_KINDS = ("site", "replay")

_DEFAULT_POLICY: Dict[str, str] = {
    "site": "zlib",
    # Recovery traffic mirrors the kind it replays: re-executed site
    # dispatches compress like the originals.
    "replay": "zlib",
    # Heartbeats are a tiny ``("hb", seq)`` tuple sent on a liveness
    # deadline — never worth a codec pass.  Listed for documentation;
    # ``codec_for`` would default unknown kinds to ``none`` anyway.
    "hb": "none",
}

#: Environment variable overriding the codec of every compressible kind
#: (``none`` / ``zlib``).  The coordinator's environment is inherited by its
#: runners, so one setting governs both directions of every channel.
WIRE_CODEC_ENV = "REPRO_WIRE_CODEC"


@dataclass(frozen=True)
class WirePolicy:
    """Maps base frame kinds (``site``/``replay``/``hb``) to the codec
    their frames are encoded with, in both directions."""

    codecs: Mapping[str, Codec]

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "WirePolicy":
        """The default policy, with :data:`WIRE_CODEC_ENV` applied on top."""
        source = os.environ if env is None else env
        mapping = dict(_DEFAULT_POLICY)
        override = source.get(WIRE_CODEC_ENV)
        if override:
            for kind in COMPRESSIBLE_KINDS:
                mapping[kind] = override
        return cls(codecs={kind: resolve_codec(name) for kind, name in mapping.items()})

    def codec_for(self, kind: str) -> Codec:
        """Codec for one base frame kind; unknown kinds are uncompressed."""
        return self.codecs.get(kind, NONE_CODEC)


# ---------------------------------------------------------------------------
# Socket I/O
# ---------------------------------------------------------------------------

#: Upper bound on a single ``recv_into`` request.  Large compressed frames
#: arrive in many short reads; capping the request keeps each one inside the
#: kernel's buffer sizing while the loop below tolerates arbitrarily short
#: returns.
_RECV_CHUNK = 1 << 20


def recv_exact(sock: socket.socket, n_bytes: int) -> bytearray:
    """Read exactly ``n_bytes`` from ``sock`` or raise :class:`ConnectionError`.

    Reads via ``recv_into`` into one ``bytearray``, presized up to
    :data:`_RECV_CHUNK` and grown past it only as bytes arrive, so a
    corrupt header claiming a huge length costs no more memory than the
    bytes sent; short reads simply continue the loop.  The returned buffer
    is writable, so zero-copy decoded arrays are too.
    """
    buf = bytearray(min(n_bytes, _RECV_CHUNK))
    received = 0
    while received < n_bytes:
        want = min(n_bytes - received, _RECV_CHUNK)
        if len(buf) < received + want:
            buf.extend(bytes(received + want - len(buf)))
        with memoryview(buf) as view:
            n = sock.recv_into(view[received:], want)
        if n == 0:
            raise ConnectionError(
                f"peer closed the connection mid-frame ({received}"
                f"/{n_bytes} bytes received)"
            )
        received += n
    return buf


class FrameChannel:
    """A framed, codec-aware pickle channel over one socket.

    Every send and receive reports the frame's wire (encoded) and raw
    (uncompressed) sizes to its caller, which records them in the run's
    :class:`~repro.cluster.wire.WireLedger`.

    Two I/O styles share one framing.  The blocking pair
    (:meth:`send` / :meth:`recv`) is what runners and the startup handshake
    use.  The non-blocking pair is a read/write state machine for a
    selector-driven coordinator: :meth:`feed_bytes` + :meth:`take_frames`
    reassemble frames from whatever byte slices the socket produced
    (partial headers and split bodies included), and :meth:`queue_frame` +
    :meth:`flush_out` buffer outgoing frames and drain them as far as the
    socket accepts, with :attr:`pending_out` exposing the backpressure.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        # Non-blocking read state: raw bytes as they arrived, reassembled
        # into frames by take_frames().
        self._in_buf = bytearray()
        # Non-blocking write state: a FIFO of encoded byte chunks plus the
        # offset already sent from the head chunk.  queue_frame() runs on
        # dispatching threads while flush_out() runs on the event loop, so
        # the queue has its own lock.
        self._out: Deque[memoryview] = deque()
        self._out_bytes = 0
        self._out_lock = threading.Lock()

    def send(self, obj: Any, codec: Union[str, Codec, None] = None) -> EncodedFrame:
        """Encode and send one frame; returns the :class:`EncodedFrame`."""
        frame = encode_frame(obj, codec)
        self.send_frame(frame)
        return frame

    def send_frame(self, frame: EncodedFrame) -> int:
        """Send one pre-encoded frame; returns the wire bytes it occupied.

        Lets a caller separate serialization (and its byte accounting) from
        the potentially blocking socket write.
        """
        codec = resolve_codec(frame.codec)
        self._sock.sendall(_HEADER.pack(len(frame.data), codec.wire_id) + frame.data)
        return frame.n_bytes

    def recv(self) -> Tuple[Any, int, int, str]:
        """Receive one frame; returns ``(object, wire_bytes, raw_bytes, codec)``.

        ``wire_bytes`` is what physically crossed the socket (header
        included); ``raw_bytes`` what the frame would have occupied
        uncompressed; ``codec`` the name of the codec that actually encoded
        the body.  For an uncompressed frame the byte pair is equal and the
        object is decoded zero-copy from the receive buffer.

        Raises :class:`ConnectionError` when the peer disconnects — at a
        frame boundary (clean EOF) or mid-frame (short read).
        """
        try:
            header = recv_exact(self._sock, _HEADER.size)
        except ConnectionError:
            raise
        except OSError as exc:  # pragma: no cover - platform-dependent errno
            raise ConnectionError(f"socket receive failed: {exc}") from exc
        length, codec_id = _HEADER.unpack(bytes(header))
        return self._decode(codec_id, recv_exact(self._sock, length))

    def _decode(self, codec_id: int, data: bytearray) -> Tuple[Any, int, int, str]:
        """Decode one received frame body and size it (see :meth:`recv`).

        ``data`` is the encoded body as it crossed the socket, in a buffer
        the decoded arrays may alias for their lifetime.
        """
        codec = codec_by_id(codec_id)
        if codec.wire_id == NONE_CODEC.wire_id:
            body = data
        else:
            # Decompress into a writable scratch buffer so decoded arrays
            # are mutable either way (bytes from a decompressor are not).
            body = bytearray(codec.decompress(bytes(data)))
        n_bytes = FRAME_OVERHEAD + len(data)
        raw_bytes = FRAME_OVERHEAD + len(body)
        return decode_body(body), n_bytes, raw_bytes, codec.name

    # ------------------------------------------------------------------
    # Non-blocking state machines (selector-driven coordinator side)
    # ------------------------------------------------------------------

    def fileno(self) -> int:
        """The underlying socket's file descriptor (for selector registration)."""
        return self._sock.fileno()

    def set_nonblocking(self) -> None:
        """Switch the socket to non-blocking mode (loop-managed channels)."""
        self._sock.setblocking(False)

    def set_blocking(self, timeout: Optional[float] = None) -> None:
        """Switch back to blocking mode (shutdown drains outside the loop)."""
        self._sock.settimeout(timeout)

    def read_ready(self) -> int:
        """Read whatever the socket has into the reassembly buffer.

        Returns the number of bytes read, or ``-1`` when the socket merely
        has no data right now (``EWOULDBLOCK``).  EOF and socket errors
        raise :class:`ConnectionError` — on a frame-based protocol both mean
        the peer is gone.
        """
        try:
            data = self._sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return -1
        except OSError as exc:
            raise ConnectionError(f"socket receive failed: {exc}") from exc
        if not data:
            raise ConnectionError("peer closed the connection")
        self.feed_bytes(data)
        return len(data)

    def feed_bytes(self, data) -> None:
        """Append raw received bytes to the reassembly buffer.

        Accepts any byte slice — a lone half of a frame header is fine; the
        frames only materialise once :meth:`take_frames` finds them whole.
        """
        self._in_buf += data

    def take_frames(self) -> List[Tuple[Any, int, int, str]]:
        """Decode every *complete* frame currently in the reassembly buffer.

        Returns ``(object, wire_bytes, raw_bytes, codec)`` tuples exactly
        like :meth:`recv` would, in arrival order; incomplete trailing bytes
        (a partial header, a body still crossing the socket) stay buffered
        for the next feed.
        """
        frames: List[Tuple[Any, int, int, str]] = []
        buf = self._in_buf
        offset = 0
        while len(buf) - offset >= _HEADER.size:
            length, codec_id = _HEADER.unpack_from(buf, offset)
            total = _HEADER.size + length
            if len(buf) - offset < total:
                break
            # A writable copy of the body: zero-copy decoded arrays alias it
            # for their lifetime, so it must not be a view into _in_buf
            # (which the next feed would grow or the del below reclaim).
            data = bytearray(buf[offset + _HEADER.size : offset + total])
            offset += total
            frames.append(self._decode(codec_id, data))
        if offset:
            del buf[:offset]
        return frames

    def queue_frame(self, frame: EncodedFrame) -> int:
        """Buffer one pre-encoded frame for a later :meth:`flush_out`.

        Returns the wire bytes the frame occupies, like :meth:`send_frame`,
        so the dispatch path can account the frame the moment it hands it
        over.
        """
        codec = resolve_codec(frame.codec)
        payload = _HEADER.pack(len(frame.data), codec.wire_id) + frame.data
        with self._out_lock:
            self._out.append(memoryview(payload))
            self._out_bytes += len(payload)
        return frame.n_bytes

    @property
    def pending_out(self) -> int:
        """Bytes queued but not yet accepted by the socket (backpressure)."""
        return self._out_bytes

    def flush_out(self) -> bool:
        """Write queued bytes until the socket stops accepting them.

        Returns ``True`` when the send buffer drained completely, ``False``
        when bytes remain (the caller keeps write interest registered).
        Raises :class:`ConnectionError` when the peer is gone.
        """
        with self._out_lock:
            while self._out:
                chunk = self._out[0]
                try:
                    n = self._sock.send(chunk)
                except (BlockingIOError, InterruptedError):
                    return False
                except OSError as exc:
                    raise ConnectionError(f"socket send failed: {exc}") from exc
                self._out_bytes -= n
                if n < len(chunk):
                    self._out[0] = chunk[n:]
                    return False
                self._out.popleft()
        return True

    def shutdown(self) -> None:
        """Drop the connection but keep the descriptor: both ends read EOF."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        self.shutdown()
        self._sock.close()


__all__ = [
    "COMPRESSIBLE_KINDS",
    "Codec",
    "EncodedFrame",
    "FRAME_OVERHEAD",
    "FrameChannel",
    "MIN_COMPRESS_BYTES",
    "NONE_CODEC",
    "PICKLE_PROTOCOL",
    "WIRE_CODEC_ENV",
    "WirePolicy",
    "ZLIB_CODEC",
    "available_codecs",
    "codec_by_id",
    "decode_body",
    "decode_payload",
    "encode_body",
    "encode_frame",
    "encode_payload",
    "recv_exact",
    "resolve_codec",
]
