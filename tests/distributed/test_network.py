"""Tests for sites, coordinator and the star network."""

import pytest

from repro.distributed import StarNetwork


class TestSite:
    def test_local_metric_reindexes(self, small_instance):
        network = StarNetwork(small_instance)
        site = network.sites[0]
        assert len(site.local_metric) == site.n_points
        global_d = small_instance.metric.distance(int(site.shard[0]), int(site.shard[1]))
        assert site.local_metric.distance(0, 1) == pytest.approx(global_d)


class TestStarNetwork:
    def test_requires_round_before_send(self, small_instance):
        network = StarNetwork(small_instance)
        with pytest.raises(RuntimeError):
            network.send_to_coordinator(0, "x", None, 1)

    def test_round_progression(self, small_instance):
        network = StarNetwork(small_instance)
        assert network.current_round == 0
        assert network.next_round() == 1
        assert network.next_round() == 2

    def test_send_to_coordinator_delivers_and_charges(self, small_instance):
        network = StarNetwork(small_instance)
        network.next_round()
        network.send_to_coordinator(0, "profile", {"v": 1}, 12)
        assert network.ledger.total_words() == 12.0
        assert len(network.coordinator.inbox) == 1
        assert network.coordinator.inbox[0].payload == {"v": 1}

    def test_send_to_site_delivers(self, small_instance):
        network = StarNetwork(small_instance)
        network.next_round()
        network.send_to_site(2, "alloc", 7, 1)
        assert network.sites[2].inbox[0].payload == 7

    def test_unknown_site_rejected(self, small_instance):
        network = StarNetwork(small_instance)
        network.next_round()
        with pytest.raises(ValueError):
            network.send_to_coordinator(99, "x", None, 1)
        with pytest.raises(ValueError):
            network.send_to_site(-1, "x", None, 1)

    def test_messages_from_filtering(self, small_instance):
        network = StarNetwork(small_instance)
        network.next_round()
        network.send_to_coordinator(0, "a", 1, 1)
        network.send_to_coordinator(1, "a", 2, 1)
        network.send_to_coordinator(0, "b", 3, 1)
        assert [m.payload for m in network.coordinator.messages_from(0, "a")] == [1]
        assert len(network.coordinator.messages_from(0)) == 2

    def test_site_times_default_zero(self, small_instance):
        network = StarNetwork(small_instance)
        times = network.site_times()
        assert set(times) == set(range(network.n_sites))
        assert all(v == 0.0 for v in times.values())

    def test_timers_recorded(self, small_instance):
        network = StarNetwork(small_instance)
        with network.sites[0].timer.measure("work"):
            sum(range(1000))
        with network.coordinator.timer.measure("solve"):
            sum(range(1000))
        assert network.site_times()[0] > 0
        assert network.coordinator_time() > 0
        assert network.coordinator_time("solve") == network.coordinator_time()

    def test_drain_inbox(self, small_instance):
        network = StarNetwork(small_instance)
        network.next_round()
        network.send_to_site(0, "x", 1, 1)
        drained = network.sites[0].drain_inbox()
        assert len(drained) == 1
        assert network.sites[0].inbox == []
