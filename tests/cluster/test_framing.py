"""Tests for the codec-framed pickle transport."""

import socket
import threading

import numpy as np
import pytest

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
from repro.metrics import MatrixMetric


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

    def _wire_bytes(self, frame):
        import struct

        return struct.pack(">QB", len(frame.data), resolve_codec(frame.codec).wire_id) + frame.data

    def test_partial_header_yields_nothing(self, channel_pair):
        _, right = channel_pair
        frame = encode_frame(("hello", 1))
        wire = self._wire_bytes(frame)
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
        wire = self._wire_bytes(frame)
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
        wires = [self._wire_bytes(encode_frame(("msg", i))) for i in range(3)]
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
                    self._wire_bytes(encode_frame((f"ch{index}", i, "x" * 50)))
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
