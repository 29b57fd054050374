"""Tests for the wire ledger and its merge into the communication ledger."""

import pytest

from repro.cluster.wire import WireLedger, WireRecord
from repro.distributed import CommunicationLedger, Message
from repro.distributed.messages import COORDINATOR
from repro.obs.trace import Tracer


def _msg(sender=0, receiver=COORDINATOR, round_index=1, kind="x", words=10.0, n_bytes=None):
    return Message(sender, receiver, round_index, kind, words, n_bytes=n_bytes)


class TestWireLedger:
    def _filled(self):
        wire = WireLedger()
        wire.record(round_index=1, host=0, direction="send", kind="site_dispatch", n_bytes=100)
        wire.record(round_index=1, host=0, direction="recv", kind="site_result", n_bytes=40)
        wire.record(round_index=2, host=1, direction="send", kind="site_dispatch", n_bytes=60)
        return wire

    def test_aggregations(self):
        wire = self._filled()
        assert wire.total_bytes() == 200
        assert wire.bytes_by_round() == {1: 140, 2: 60}
        assert wire.bytes_by_host() == {0: 140, 1: 60}
        assert wire.bytes_by_kind() == {"site_dispatch": 160, "site_result": 40}
        assert wire.bytes_by_direction() == {"send": 160, "recv": 40}
        assert wire.n_frames() == 3

    def test_merge(self):
        a, b = self._filled(), self._filled()
        a.merge(b)
        assert a.total_bytes() == 400
        assert a.n_frames() == 6

    def test_summary_keys(self):
        summary = self._filled().summary()
        assert {
            "total_bytes", "frames", "by_round", "by_host",
            "by_kind", "by_host_kind", "by_direction",
        } <= set(summary)

    def test_summary_kind_breakdowns(self):
        summary = self._filled().summary()
        assert summary["by_kind"] == {"site_dispatch": 160, "site_result": 40}
        assert summary["by_host_kind"] == {
            0: {"site_dispatch": 100, "site_result": 40},
            1: {"site_dispatch": 60},
        }

    def test_bytes_by_round_host(self):
        wire = self._filled()
        assert wire.bytes_by_round_host() == {1: {0: 140}, 2: {1: 60}}

    def test_invalid_records_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WireRecord(1, 0, "send", "x", -1)
        with pytest.raises(ValueError, match="direction"):
            WireRecord(1, 0, "sideways", "x", 1)


class TestRawEncodedSplit:
    def _filled(self):
        wire = WireLedger()
        wire.record(
            round_index=1, host=0, direction="send", kind="site_dispatch",
            n_bytes=100, raw_bytes=250, codec="zlib",
        )
        wire.record(round_index=1, host=0, direction="recv", kind="site_result", n_bytes=40)
        wire.record(
            round_index=2, host=1, direction="send", kind="replay_dispatch",
            n_bytes=50, raw_bytes=100, codec="zlib",
        )
        return wire

    def test_raw_defaults_to_encoded(self):
        rec = WireRecord(1, 0, "send", "x", 70)
        assert rec.raw_bytes == 70
        assert rec.codec == "none"

    def test_codecs_never_grow_a_frame(self):
        with pytest.raises(ValueError, match="never grow"):
            WireRecord(1, 0, "send", "x", n_bytes=100, raw_bytes=50)

    def test_raw_aggregations(self):
        wire = self._filled()
        assert wire.total_bytes() == 190
        assert wire.total_raw_bytes() == 390
        assert wire.raw_bytes_by_kind() == {
            "site_dispatch": 250, "site_result": 40, "replay_dispatch": 100,
        }
        assert wire.raw_bytes_by_direction() == {"send": 350, "recv": 40}

    def test_compression_by_kind(self):
        wire = self._filled()
        ratios = wire.compression_by_kind()
        assert ratios["site_dispatch"] == 2.5
        assert ratios["site_result"] == 1.0
        assert ratios["replay_dispatch"] == 2.0
        assert wire.compression_ratio() == pytest.approx(390 / 190)

    def test_summary_has_raw_and_compression(self):
        summary = self._filled().summary()
        assert summary["raw_bytes"] == 390
        assert summary["compression"] == pytest.approx(390 / 190)
        assert summary["raw_by_kind"]["site_dispatch"] == 250
        assert summary["compression_by_kind"]["replay_dispatch"] == 2.0
        assert summary["raw_by_direction"] == {"send": 350, "recv": 40}

    def test_record_mirrors_into_tracer_counters(self):
        tracer = Tracer()
        wire = WireLedger()
        wire.record(round_index=1, host=0, direction="send", kind="site_dispatch",
                    n_bytes=100, raw_bytes=250, codec="zlib", tracer=tracer)
        wire.record(round_index=1, host=0, direction="recv", kind="site_result",
                    n_bytes=40, tracer=tracer)
        wire.record(round_index=2, host=1, direction="send", kind="replay_dispatch",
                    n_bytes=30, raw_bytes=70, codec="zlib", tracer=tracer)
        wire.record(round_index=2, host=1, direction="recv", kind="replay_pull_result",
                    n_bytes=20, tracer=tracer)
        wire.record(round_index=2, host=1, direction="recv", kind="hb", n_bytes=9)
        assert tracer.metrics.counters == {
            "wire.bytes": 380, "wire.bytes_encoded": 190,
            "wire.bytes.send": 320, "wire.bytes_encoded.send": 130,
            "wire.bytes.recv": 60, "wire.bytes_encoded.recv": 60,
            "wire.bytes.site_dispatch": 250, "wire.bytes_encoded.site_dispatch": 100,
            "wire.bytes.site_result": 40, "wire.bytes_encoded.site_result": 40,
            "wire.bytes.replay_dispatch": 70, "wire.bytes_encoded.replay_dispatch": 30,
            "wire.bytes.replay_pull_result": 20,
            "wire.bytes_encoded.replay_pull_result": 20,
            # Encoded bytes of the replay* frames only.
            "recovery.replay_bytes": 50,
        }

    def test_merge_carries_raw_bytes(self):
        a, b = self._filled(), self._filled()
        a.merge(b)
        assert a.total_raw_bytes() == 780


class TestMessageBytes:
    def test_n_bytes_defaults_to_none(self):
        assert _msg().n_bytes is None
        assert _msg().n_bytes_encoded is None

    def test_negative_n_bytes_rejected(self):
        with pytest.raises(ValueError, match="byte count"):
            _msg(n_bytes=-5)

    def test_encoded_cannot_exceed_raw(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            Message(0, COORDINATOR, 1, "x", 1.0, n_bytes=10, n_bytes_encoded=20)

    def test_encoded_stamp_accepted(self):
        m = Message(0, COORDINATOR, 1, "x", 1.0, n_bytes=100, n_bytes_encoded=40)
        assert m.n_bytes_encoded == 40

    def test_uplink_bytes_from_stamps(self):
        ledger = CommunicationLedger()
        ledger.record(Message(0, COORDINATOR, 1, "x", 1.0, n_bytes=100, n_bytes_encoded=40))
        ledger.record(Message(0, COORDINATOR, 1, "y", 1.0, n_bytes=60))
        assert ledger.uplink_bytes() == {"raw": 160, "encoded": 100}
        assert ledger.summary()["uplink_bytes"] == {"raw": 160, "encoded": 100}


class TestLedgerBytes:
    def test_zero_without_wire_transport(self):
        ledger = CommunicationLedger()
        ledger.record(_msg(words=10))
        assert ledger.total_bytes() == 0
        assert ledger.bytes_by_round() == {}
        summary = ledger.summary()
        assert summary["total_bytes"] == 0
        assert summary["bytes_by_round"] == {}

    def test_message_stamps_counted_without_wire(self):
        ledger = CommunicationLedger()
        ledger.record(_msg(words=10, n_bytes=128))
        ledger.record(_msg(words=5, round_index=2, n_bytes=64))
        assert ledger.total_bytes() == 192
        assert ledger.bytes_by_round() == {1: 128, 2: 64}

    def test_attached_wire_is_authoritative(self):
        ledger = CommunicationLedger()
        ledger.record(_msg(words=10, n_bytes=128))
        wire = ledger.ensure_wire()
        assert ledger.ensure_wire() is wire  # idempotent
        wire.record(round_index=1, host=0, direction="send", kind="site_dispatch", n_bytes=500)
        wire.record(round_index=1, host=0, direction="recv", kind="site_result", n_bytes=300)
        # Frame traffic covers dispatch + result; it supersedes the stamps.
        assert ledger.total_bytes() == 800
        assert ledger.bytes_by_round() == {1: 800}
        assert ledger.summary()["total_bytes"] == 800


class TestLedgerIndices:
    def test_record_after_index_built_stays_consistent(self):
        ledger = CommunicationLedger()
        ledger.record(_msg(kind="a", words=1))
        assert ledger.words_by_kind() == {"a": 1.0}  # builds the index
        ledger.record(_msg(kind="a", words=2))
        ledger.record(_msg(kind="b", words=4))
        assert ledger.words_by_kind() == {"a": 3.0, "b": 4.0}
        assert len(ledger.filter(kind="a")) == 2

    def test_merge_updates_built_indices(self):
        a, b = CommunicationLedger(), CommunicationLedger()
        a.record(_msg(sender=0, kind="profile", words=1))
        # Build both lazy indices before merging.
        assert a.words_by_kind() == {"profile": 1.0}
        assert a.words_by_site() == {0: 1.0}
        b.record(_msg(sender=1, kind="profile", words=2))
        b.record(_msg(sender=1, kind="solution", words=8))
        a.merge(b)
        assert a.words_by_kind() == {"profile": 3.0, "solution": 8.0}
        assert a.words_by_site() == {0: 1.0, 1: 10.0}
        assert len(a.filter(kind="solution")) == 1

    def test_merge_before_index_built(self):
        a, b = CommunicationLedger(), CommunicationLedger()
        a.record(_msg(kind="a", words=1))
        b.record(_msg(kind="b", words=2))
        a.merge(b)
        assert a.words_by_kind() == {"a": 1.0, "b": 2.0}

    def test_merge_carries_wire_ledgers(self):
        a, b = CommunicationLedger(), CommunicationLedger()
        b.ensure_wire().record(
            round_index=1, host=0, direction="send", kind="site_dispatch", n_bytes=77
        )
        a.merge(b)
        assert a.total_bytes() == 77

    def test_downlink_not_in_site_index(self):
        ledger = CommunicationLedger()
        ledger.record(_msg(sender=COORDINATOR, receiver=2, words=3))
        ledger.record(_msg(sender=2, words=5))
        assert ledger.words_by_site() == {2: 5.0}
