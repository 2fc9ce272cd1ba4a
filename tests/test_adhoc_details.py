"""Focused tests of ad hoc manager and message manager internals."""

import pytest

from repro.core.adhoc import RECONNECT_BACKOFF_S
from repro.core.config import SosConfig
from repro.core.errors import SecurityError
from repro.core.wire import SosPacket
from repro.geo.point import Point
from repro.mobility.base import MobilityModel
from tests.worldutil import World


@pytest.fixture()
def world(ca, keypair_pool):
    return World(ca, keypair_pool)


def secured_pair(world, **config_kwargs):
    config = SosConfig(relay_request_grace=0.0, **config_kwargs)
    alice = world.add_user("alice", config=config)
    bob = world.add_user("bob", config=config)
    bob.follow(alice.user_id)
    world.start()
    alice.post("seed")
    world.run(60.0)
    assert bob.sos.adhoc.is_secured(alice.user_id)
    return alice, bob


class TestAdhocState:
    def test_secured_users_listed(self, world):
        alice, bob = secured_pair(world)
        assert bob.sos.adhoc.secured_users() == [alice.user_id]
        assert alice.sos.adhoc.is_secured(bob.user_id)

    def test_advert_of_unknown_peer_empty(self, world):
        alice = world.add_user("alice")
        assert alice.sos.adhoc.advert_of("u999999999") == {}

    def test_connect_unknown_peer_false(self, world):
        alice = world.add_user("alice")
        assert alice.sos.adhoc.connect("u999999999") is False

    def test_connect_already_connected_false(self, world):
        alice, bob = secured_pair(world)
        assert bob.sos.adhoc.connect(alice.user_id) is False

    def test_send_to_unsecured_raises(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        world.start()
        packet = SosPacket.request(alice.user_id, bob.user_id, [1])
        with pytest.raises(SecurityError):
            alice.sos.adhoc.send_packet(bob.user_id, packet)

    def test_blacklist_blocks_connect(self, world):
        alice, bob = secured_pair(world)
        bob.sos.adhoc._security_failure(alice.user_id, "test-injected")
        assert bob.sos.adhoc.connect(alice.user_id) is False
        # After the backoff expires the peer is reachable again.
        world.run(world.sim.now + RECONNECT_BACKOFF_S + 60.0)
        # peer must be rediscovered by then (link is still up; state kept)
        assert bob.sos.adhoc._blacklist_until[alice.user_id] <= world.sim.now

    def test_stats_track_traffic(self, world):
        alice, bob = secured_pair(world)
        stats = alice.sos.adhoc.stats
        assert stats["packets_sent"] > 0
        assert stats["bytes_sent"] > 0
        assert stats["connections_secured"] == 1


class TestPeerLossAndReconnect:
    class Wanderer(MobilityModel):
        """Near alice, away, then back."""

        def position_at(self, now):
            if now < 200 or now >= 600:
                return Point(130, 100)
            return Point(5000, 5000)

    def test_reconnect_after_separation(self, world):
        config = SosConfig(relay_request_grace=0.0)
        alice = world.add_user("alice", position=Point(100, 100), config=config)
        bob = world.add_user("bob", mobility=self.Wanderer(), config=config)
        bob.follow(alice.user_id)
        world.start()
        alice.post("first")
        world.run(150.0)
        assert len(bob.timeline()) == 1
        world.run(400.0)  # bob away
        assert not bob.sos.adhoc.is_secured(alice.user_id)
        alice.post("second")
        world.run(900.0)  # bob back: re-handshake + catch-up
        assert sorted(e.post.text for e in bob.timeline()) == ["first", "second"]
        # Two distinct secured connections happened on bob's side.
        assert bob.sos.adhoc.stats["connections_secured"] == 2


class TestMessageManagerDetails:
    def test_request_dedup_suppresses_repeats(self, world):
        alice, bob = secured_pair(world)
        manager = bob.sos.messages
        sent_before = alice.sos.messages.stats["requests_served"]
        manager.request_messages(alice.user_id, alice.user_id, [99])
        manager.request_messages(alice.user_id, alice.user_id, [99])  # deduped
        world.run(world.sim.now + 30.0)
        served_after = alice.sos.messages.stats["requests_served"]
        assert served_after - sent_before == 1

    def test_request_dedup_expires(self, world):
        alice, bob = secured_pair(world)
        manager = bob.sos.messages
        manager.request_messages(alice.user_id, alice.user_id, [99])
        world.run(world.sim.now + manager.request_timeout + 1.0)
        before = alice.sos.messages.stats["requests_served"]
        manager.request_messages(alice.user_id, alice.user_id, [99])
        world.run(world.sim.now + 30.0)
        assert alice.sos.messages.stats["requests_served"] == before + 1

    def test_already_stored_numbers_not_rerequested(self, world):
        alice, bob = secured_pair(world)
        before = alice.sos.messages.stats["requests_served"]
        bob.sos.messages.request_messages(alice.user_id, alice.user_id, [1])  # already has
        world.run(world.sim.now + 30.0)
        assert alice.sos.messages.stats["requests_served"] == before

    def test_duplicate_data_dropped(self, world):
        alice, bob = secured_pair(world)
        copy = alice.sos.store.get(alice.user_id, 1)
        packet = SosPacket.data(alice.user_id, copy)
        before = bob.sos.messages.stats["duplicates_dropped"]
        bob.sos.messages._packet_received(packet, alice.user_id)
        assert bob.sos.messages.stats["duplicates_dropped"] == before + 1

    def test_control_for_other_protocol_ignored(self, world):
        alice, bob = secured_pair(world)
        packet = SosPacket.control(alice.user_id, "some-other-protocol", b"x")
        bob.sos.messages._packet_received(packet, alice.user_id)  # no crash

    def test_set_protocol_replays_secured_peers(self, world):
        alice, bob = secured_pair(world)
        alice.post("while-connected")
        # Toggle while connected: new protocol must learn about alice and
        # fetch the post it missed during the swap.
        bob.select_routing("epidemic")
        world.run(world.sim.now + 60.0)
        texts = sorted(e.post.text for e in bob.timeline())
        assert "while-connected" in texts


class TestAdvertisementBudget:
    def test_advertisement_respects_limit(self, world):
        config = SosConfig(relay_request_grace=0.0, routing_protocol="epidemic")
        alice = world.add_user("alice", config=config)
        world.start()
        # 70 other authors plus alice's own post: only the 64 freshest
        # (highest message numbers) are advertised.
        from repro.storage.messagestore import StoredMessage

        for i in range(70):
            alice.sos.store.add(StoredMessage(
                author_id=f"u{i:09d}", number=10 + i, created_at=0.0, body=b"x",
                signature=b"s", author_cert=b"c", hops=1, received_at=0.0,
            ))
        alice.post("own")
        advert = alice.sos.adhoc.advertiser.discovery_info
        assert sorted(advert) == [f"u{i:09d}" for i in range(6, 70)]
