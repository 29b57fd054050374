"""Tests for the codec-framed pickle transport."""

import itertools
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.framing import (
    FRAME_OVERHEAD,
    MIN_COMPRESS_BYTES,
    NONE_CODEC,
    WIRE_CODEC_ENV,
    ZLIB_CODEC,
    FrameChannel,
    WirePolicy,
    available_codecs,
    codec_by_id,
    decode_body,
    decode_payload,
    encode_body,
    encode_frame,
    encode_payload,
    recv_exact,
    resolve_codec,
)
from repro.cluster.loop import EventLoop
from repro.metrics import MatrixMetric


def _wire_bytes(frame):
    """The bytes one encoded frame occupies on the socket, header included."""
    return struct.pack(">QB", len(frame.data), resolve_codec(frame.codec).wire_id) + frame.data


@pytest.fixture()
def channel_pair():
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    left, right = FrameChannel(a), FrameChannel(b)
    yield left, right
    left.close()
    right.close()


class TestPayloadCodec:
    def test_roundtrip(self):
        obj = {"a": [1, 2, 3], "b": "text"}
        assert decode_payload(encode_payload(obj)) == obj

    def test_numpy_roundtrip(self):
        arr = np.arange(12, dtype=float).reshape(3, 4)
        np.testing.assert_array_equal(decode_payload(encode_payload(arr)), arr)


class TestBodyEnvelope:
    def test_roundtrip_with_out_of_band_buffers(self):
        obj = {"arr": np.arange(64, dtype=np.float64), "tag": "x", "n": 3}
        back = decode_body(bytearray(encode_body(obj)))
        np.testing.assert_array_equal(back["arr"], obj["arr"])
        assert back["tag"] == "x" and back["n"] == 3

    def test_decoded_arrays_alias_the_body_and_stay_writable(self):
        arr = np.arange(32, dtype=np.float64)
        body = bytearray(encode_body({"arr": arr}))
        back = decode_body(body)["arr"]
        # Out-of-band decode: the array aliases the receive buffer...
        assert back.base is not None
        # ...and is writable, exactly like an in-band pickled copy would be.
        back[0] = -1.0
        assert back[0] == -1.0

    def test_no_buffer_objects_roundtrip(self):
        assert decode_body(bytearray(encode_body(("plain", [1, 2])))) == ("plain", [1, 2])


class TestReadOnlyArrays:
    @pytest.mark.parametrize("codec", [NONE_CODEC, ZLIB_CODEC], ids=["none", "zlib"])
    @pytest.mark.parametrize("wrap", [bytes, bytearray], ids=["bytes", "bytearray"])
    def test_matrix_metric_site_view_stays_read_only(self, codec, wrap):
        """A site's ``MatrixMetric`` block keeps its read-only flag on the wire."""
        idx = np.arange(48, dtype=float)
        metric = MatrixMetric(np.abs(idx[:, None] - idx[None, :]))
        view = metric.restrict(np.arange(8, 40))
        frame = encode_frame(view, codec)
        assert frame.codec == codec.name
        back = decode_body(wrap(resolve_codec(frame.codec).decompress(frame.data)))
        np.testing.assert_array_equal(back.matrix, view.matrix)
        assert not back.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.matrix[0, 1] = 0.0


class TestCodecRegistry:
    def test_available_always_has_none_and_zlib(self):
        names = available_codecs()
        assert "none" in names and "zlib" in names

    def test_resolve_names(self):
        assert resolve_codec(None) is NONE_CODEC
        assert resolve_codec("none") is NONE_CODEC
        assert resolve_codec("zlib") is ZLIB_CODEC
        assert resolve_codec(ZLIB_CODEC) is ZLIB_CODEC

    def test_unknown_name_raises(self):
        for name in ("lz77", "zstd", "auto"):
            with pytest.raises(ValueError, match="unknown wire codec"):
                resolve_codec(name)

    def test_codec_by_id_roundtrip(self):
        assert codec_by_id(0) is NONE_CODEC
        assert codec_by_id(1) is ZLIB_CODEC

    def test_codec_by_id_unknown_raises_connection_error(self):
        for wire_id in (2, 99):
            with pytest.raises(ConnectionError, match="unknown codec id"):
                codec_by_id(wire_id)


class TestEncodeFrame:
    def test_uncompressed_frame_accounting(self):
        frame = encode_frame(("hello", 7))
        assert frame.codec == "none"
        assert frame.n_bytes == frame.raw_bytes == FRAME_OVERHEAD + len(frame.data)

    def test_compression_shrinks_and_keeps_raw_len(self):
        obj = {"blob": "abc" * 5000}
        frame = encode_frame(obj, "zlib")
        assert frame.codec == "zlib"
        assert frame.n_bytes < frame.raw_bytes
        assert frame.raw_bytes == FRAME_OVERHEAD + len(encode_body(obj))

    def test_small_bodies_skip_compression(self):
        frame = encode_frame("x", "zlib")
        assert frame.codec == "none"
        assert len(frame.data) < MIN_COMPRESS_BYTES

    def test_incompressible_bodies_fall_back_to_none(self):
        rng = np.random.default_rng(0)
        # Random bytes do not compress; the frame must not grow.
        obj = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        frame = encode_frame(obj, "zlib")
        assert frame.codec == "none"
        assert frame.n_bytes == frame.raw_bytes

    def test_encoding_is_deterministic(self):
        obj = {"arr": np.arange(2048, dtype=np.float64), "s": "y" * 1000}
        a, b = encode_frame(obj, "zlib"), encode_frame(obj, "zlib")
        assert a.data == b.data and a.codec == b.codec and a.raw_len == b.raw_len


class TestWirePolicy:
    def test_default_policy(self):
        policy = WirePolicy.from_env({})
        assert policy.codec_for("hb") is NONE_CODEC
        assert policy.codec_for("site") is ZLIB_CODEC
        assert policy.codec_for("replay") is ZLIB_CODEC

    def test_unknown_kind_is_uncompressed(self):
        assert WirePolicy.from_env({}).codec_for("mystery") is NONE_CODEC

    def test_env_override_applies_to_compressible_kinds_only(self):
        policy = WirePolicy.from_env({WIRE_CODEC_ENV: "none"})
        assert policy.codec_for("site") is NONE_CODEC
        assert policy.codec_for("replay") is NONE_CODEC
        policy = WirePolicy.from_env({WIRE_CODEC_ENV: "zlib"})
        assert policy.codec_for("site") is ZLIB_CODEC
        assert policy.codec_for("hb") is NONE_CODEC


class TestFrameChannel:
    def test_roundtrip_and_byte_counts(self, channel_pair):
        left, right = channel_pair
        frame = encode_frame(("hello", 7))
        assert left.send_frame(frame) == frame.n_bytes
        obj, received, raw, codec = right.recv()
        assert obj == ("hello", 7)
        assert codec == "none"
        # Both sides observe the identical wire size: 9-byte header + body.
        assert frame.n_bytes == received == FRAME_OVERHEAD + len(encode_body(("hello", 7)))
        assert received == raw == frame.raw_bytes

    def test_compressed_roundtrip_reports_raw_and_encoded(self, channel_pair):
        left, right = channel_pair
        obj = {"text": "z" * 10000}
        frame = left.send(obj, "zlib")
        back, n_bytes, raw_bytes, codec = right.recv()
        assert back == obj
        assert codec == frame.codec == "zlib"
        # The sizes the sender and the receiver report (the ledger's pair).
        assert n_bytes == frame.n_bytes < raw_bytes == frame.raw_bytes

    def test_compressed_numpy_arrays_stay_writable(self, channel_pair):
        left, right = channel_pair
        arr = np.zeros(4096, dtype=np.float64)
        left.send({"arr": arr}, "zlib")
        back = right.recv()[0]["arr"]
        back[0] = 1.0
        assert back[0] == 1.0

    def test_many_frames_in_order(self, channel_pair):
        left, right = channel_pair
        sent = [left.send({"i": i, "blob": np.full(100, i)}) for i in range(5)]
        for i, frame in enumerate(sent):
            obj, n_bytes, raw, _ = right.recv()
            assert obj["i"] == i
            np.testing.assert_array_equal(obj["blob"], np.full(100, i))
            assert (n_bytes, raw) == (frame.n_bytes, frame.raw_bytes)

    def test_bidirectional(self, channel_pair):
        left, right = channel_pair
        left.send("ping")
        assert right.recv()[0] == "ping"
        right.send("pong")
        assert left.recv()[0] == "pong"

    def test_clean_eof_raises_connection_error(self, channel_pair):
        left, right = channel_pair
        left.close()
        with pytest.raises(ConnectionError):
            right.recv()

    def test_mid_frame_eof_raises_connection_error(self):
        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            # A header promising more bytes than will ever arrive
            # (8-byte length + 1-byte codec id).
            a.sendall(b"\x00\x00\x00\x00\x00\x00\x00\xff\x00" + b"partial")
            a.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                FrameChannel(b).recv()
        finally:
            b.close()

    def test_huge_length_claim_then_eof_raises_connection_error(self):
        """A header claiming 2**62 bytes allocates only what arrives."""
        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            a.sendall(struct.pack(">QB", 1 << 62, 0) + b"partial")
            a.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                FrameChannel(b).recv()
        finally:
            b.close()

    def test_recv_exact_grows_past_one_chunk(self):
        """A read longer than one receive chunk grows its buffer as bytes arrive."""
        from repro.cluster.framing import _RECV_CHUNK

        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        payload = np.random.default_rng(3).bytes(2 * _RECV_CHUNK + 12345)
        thread = threading.Thread(target=a.sendall, args=(payload,))
        thread.start()
        try:
            assert recv_exact(b, len(payload)) == payload
        finally:
            thread.join()
            a.close()
            b.close()

    def test_recv_exact_requires_full_read(self):
        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            payload = bytes(range(256)) * 10

            def _writer():
                for offset in range(0, len(payload), 100):
                    a.sendall(payload[offset : offset + 100])
                a.close()

            thread = threading.Thread(target=_writer)
            thread.start()
            try:
                assert recv_exact(b, len(payload)) == payload
            finally:
                thread.join()
        finally:
            b.close()

    def test_multi_megabyte_compressed_frame_in_small_chunks(self):
        """A >4 MiB compressed frame survives arbitrarily short reads.

        The writer dribbles the encoded frame through the socket in 64 KiB
        slices, so the receiver's ``recv_into`` loop sees many short reads
        — the shape a multi-MB frame actually has on a loaded socket.
        """
        # Structured float data: >16 MiB raw, compresses well below that.
        arr = np.tile(np.arange(4096, dtype=np.float64), 512)
        obj = {"arr": arr, "tag": "bulk"}
        frame = encode_frame(obj, "zlib")
        assert frame.raw_bytes > 4 * 1024 * 1024
        assert frame.codec == "zlib"

        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        left, right = FrameChannel(a), FrameChannel(b)
        try:
            error = []

            def _writer():
                try:
                    left.send_frame(frame)
                except Exception as exc:  # pragma: no cover - surfaced below
                    error.append(exc)

            thread = threading.Thread(target=_writer)
            thread.start()
            obj_back, n_bytes, raw_bytes, codec = right.recv()
            thread.join()
            assert not error
            assert codec == "zlib"
            assert n_bytes == frame.n_bytes
            assert raw_bytes == frame.raw_bytes > 4 * 1024 * 1024
            np.testing.assert_array_equal(obj_back["arr"], arr)
            assert obj_back["tag"] == "bulk"
            # Writability survives the decompression path too.
            obj_back["arr"][0] = -5.0
        finally:
            left.close()
            right.close()


class TestNonBlockingReassembly:
    """The loop-facing half of the channel: feed_bytes/take_frames and the
    backpressured send queue (queue_frame/pending_out/flush_out)."""

    def test_partial_header_yields_nothing(self, channel_pair):
        _, right = channel_pair
        frame = encode_frame(("hello", 1))
        wire = _wire_bytes(frame)
        # Feed the header one byte at a time: no frame may materialise
        # before the body is complete.
        for i in range(FRAME_OVERHEAD):
            right.feed_bytes(wire[i : i + 1])
            assert right.take_frames() == []
        right.feed_bytes(wire[FRAME_OVERHEAD:])
        [(obj, n_bytes, raw, codec)] = right.take_frames()
        assert obj == ("hello", 1)
        assert n_bytes == raw == len(wire) == frame.n_bytes
        assert codec == "none"

    def test_split_compressed_body_reassembles(self, channel_pair):
        _, right = channel_pair
        obj = {"text": "q" * 20000}
        frame = encode_frame(obj, "zlib")
        assert frame.codec == "zlib"
        wire = _wire_bytes(frame)
        # Dribble the compressed body through in 7-byte slices, holding the
        # final byte back; the frame decodes only once it is whole.
        for offset in range(0, len(wire) - 1, 7):
            right.feed_bytes(wire[offset : min(offset + 7, len(wire) - 1)])
        assert right.take_frames() == []
        right.feed_bytes(wire[-1:])
        [(back, n_bytes, raw, codec)] = right.take_frames()
        assert back == obj
        assert codec == "zlib"
        assert n_bytes == frame.n_bytes < raw == frame.raw_bytes

    def test_two_frames_in_one_feed_decode_in_order(self, channel_pair):
        _, right = channel_pair
        wires = [_wire_bytes(encode_frame(("msg", i))) for i in range(3)]
        blob = b"".join(wires)
        # First feed ends inside frame 2's body: exactly one frame decodes.
        cut = len(wires[0]) + len(wires[1]) // 2
        right.feed_bytes(blob[:cut])
        first = right.take_frames()
        assert [f[0] for f in first] == [("msg", 0)]
        right.feed_bytes(blob[cut:])
        rest = right.take_frames()
        assert [f[0] for f in rest] == [("msg", 1), ("msg", 2)]
        assert [f[1] for f in first + rest] == [len(w) for w in wires]

    def test_interleaved_frames_from_two_channels(self):
        """Byte slices of two channels' streams interleave without mixing."""
        pairs = [socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM) for _ in range(2)]
        receivers = [FrameChannel(b) for _, b in pairs]
        try:
            streams = []
            for index in range(2):
                wires = b"".join(
                    _wire_bytes(encode_frame((f"ch{index}", i, "x" * 50)))
                    for i in range(4)
                )
                streams.append(wires)
            # Alternate 5-byte slices between the two channels, the shape a
            # selector loop actually sees when both sockets are readable.
            offsets = [0, 0]
            got = [[], []]
            while any(offsets[i] < len(streams[i]) for i in range(2)):
                for i in range(2):
                    if offsets[i] < len(streams[i]):
                        receivers[i].feed_bytes(streams[i][offsets[i] : offsets[i] + 5])
                        offsets[i] += 5
                        got[i].extend(obj for obj, _, _, _ in receivers[i].take_frames())
            for i in range(2):
                assert got[i] == [(f"ch{i}", j, "x" * 50) for j in range(4)]
        finally:
            for a, b in pairs:
                a.close()
                b.close()

    def test_queue_frame_accounts_at_queue_time_and_flushes(self, channel_pair):
        left, right = channel_pair
        frame = encode_frame({"blob": "y" * 5000}, "zlib")
        # The wire size is reported at queue time, before any byte hit the
        # socket.
        assert left.queue_frame(frame) == frame.n_bytes
        assert left.pending_out == FRAME_OVERHEAD + len(frame.data)
        assert left.flush_out() is True
        assert left.pending_out == 0
        back, n_bytes, raw, codec = right.recv()
        assert back == {"blob": "y" * 5000}
        assert n_bytes == frame.n_bytes and raw == frame.raw_bytes

    def test_read_ready_feeds_the_reassembly_buffer(self, channel_pair):
        left, right = channel_pair
        left.send(("nb", 42))
        right.set_nonblocking()
        # Data is in flight on a unix socketpair immediately.
        total = 0
        frames = []
        while not frames:
            n = right.read_ready()
            if n > 0:
                total += n
            frames = right.take_frames()
        assert frames[0][0] == ("nb", 42)
        assert total == frames[0][1]

    def test_read_ready_returns_minus_one_when_idle(self, channel_pair):
        _, right = channel_pair
        right.set_nonblocking()
        assert right.read_ready() == -1

    def test_read_ready_raises_on_eof(self, channel_pair):
        left, right = channel_pair
        left.close()
        right.set_nonblocking()
        with pytest.raises(ConnectionError):
            while right.read_ready() == -1:
                pass


#: Six frames for the reassembly fuzzing: numpy arrays (out of band), and
#: alternating codecs; the compressible ones really are zlib-encoded.
_FUZZ_OBJECTS = [
    ("site_res", i, {
        "arr": np.random.default_rng(i).normal(size=40 * (i + 1)),
        "ids": np.arange(100 * i),
        "tag": "x" * (60 * i),
    })
    for i in range(6)
]
_FUZZ_FRAMES = [
    encode_frame(obj, codec)
    for obj, codec in zip(_FUZZ_OBJECTS, itertools.cycle(("none", "zlib")))
]
_FUZZ_STREAM = b"".join(_wire_bytes(frame) for frame in _FUZZ_FRAMES)


def _reassembler():
    """A channel for the reassembly path alone, which never touches its socket."""
    return FrameChannel(None)


class TestReassemblyFuzz:
    """Truncated, garbage and oversized input on the loop's reassembly path
    (``feed_bytes``/``take_frames``, which ``read_ready`` feeds)."""

    @settings(max_examples=60, deadline=None)
    @given(chunks=st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=40))
    def test_random_chunks_reassemble_in_order(self, chunks):
        assert {frame.codec for frame in _FUZZ_FRAMES} == {"none", "zlib"}
        channel = _reassembler()
        got = []
        offset = 0
        for size in itertools.cycle(chunks):
            if offset >= len(_FUZZ_STREAM):
                break
            channel.feed_bytes(_FUZZ_STREAM[offset : offset + size])
            offset += size
            got.extend(channel.take_frames())
        assert len(got) == len(_FUZZ_OBJECTS)
        for (obj, n_bytes, raw_bytes, codec), want, frame in zip(
            got, _FUZZ_OBJECTS, _FUZZ_FRAMES
        ):
            assert obj[:2] == want[:2] and obj[2]["tag"] == want[2]["tag"]
            np.testing.assert_array_equal(obj[2]["arr"], want[2]["arr"])
            np.testing.assert_array_equal(obj[2]["ids"], want[2]["ids"])
            assert (n_bytes, raw_bytes, codec) == (frame.n_bytes, frame.raw_bytes, frame.codec)
        assert len(channel._in_buf) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        codec_id=st.sampled_from([0, 1, 2, 255]),
        body=st.binary(max_size=300),
        tail=st.binary(max_size=40),
    )
    def test_random_bytes_decode_or_raise(self, codec_id, body, tail):
        """A frame of random bytes decodes or raises; nothing grows the buffer."""
        data = struct.pack(">QB", len(body), codec_id) + body + tail
        channel = _reassembler()
        channel.feed_bytes(data)
        try:
            channel.take_frames()
        except Exception:  # noqa: BLE001 - any decode error is a clean failure
            pass
        assert len(channel._in_buf) <= len(data)

    def test_huge_length_claim_buffers_only_what_arrived(self):
        channel = _reassembler()
        header = struct.pack(">QB", 1 << 62, 0)
        channel.feed_bytes(header + b"abc")
        assert channel.take_frames() == []
        assert len(channel._in_buf) == len(header) + 3


class TestEventLoopIsolation:
    def test_garbage_on_one_channel_fails_only_that_channel(self):
        """The loop turns a decode error into that channel's one error and
        keeps serving the other channel."""
        loop = EventLoop()
        pairs = [socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM) for _ in range(2)]
        errors = {0: [], 1: []}
        frames = {0: [], 1: []}
        delivered = threading.Event()
        failed = threading.Event()

        def on_frames(index, batch):
            frames[index].extend(batch)
            delivered.set()

        def on_error(index, exc):
            errors[index].append(exc)
            failed.set()

        try:
            for index, (_, right) in enumerate(pairs):
                channel = FrameChannel(right)
                channel.set_nonblocking()
                loop.register_channel(
                    channel,
                    on_frames=lambda batch, index=index: on_frames(index, batch),
                    on_error=lambda exc, index=index: on_error(index, exc),
                )
            loop.start()
            # A header naming a 32-byte raw body, then 32 bytes that are no
            # body envelope: decoding raises, and then more bytes and EOF.
            bad = pairs[0][0]
            bad.sendall(struct.pack(">QB", 32, 0) + b"\xff" * 32)
            assert failed.wait(timeout=10)
            bad.sendall(b"\x00" * 64)
            bad.close()
            FrameChannel(pairs[1][0]).send(("ok", 1))
            assert delivered.wait(timeout=10)
            time.sleep(0.1)  # room for a second error, which must not come
            assert len(errors[0]) == 1 and errors[1] == []
            assert frames[0] == [] and [f[0] for f in frames[1]] == [("ok", 1)]
        finally:
            loop.stop()
            for left, right in pairs:
                left.close()
                right.close()
