"""Tests for BubbleRap."""

import json

from repro.core.routing import BubbleRapRouting
from tests.test_routing_protocols import ALICE, BOB, CAROL, FakeServices, msg


class TestBubbleRap:
    def _bubble(self, subscriptions=()):
        router = BubbleRapRouting()
        services = FakeServices(user_id=BOB, subscriptions=subscriptions)
        router.attach(services)
        return router, services

    def test_centrality_counts_recent_distinct_peers(self):
        router, services = self._bubble()
        services._now = 0.0
        router.on_peer_secured(ALICE)
        router.on_peer_secured(CAROL)
        router.on_peer_secured(ALICE)  # duplicate
        assert router.centrality() == 2
        # Outside the window, encounters expire.
        services._now = router.WINDOW + 10.0
        router.on_peer_secured("u00000000d")
        assert router.centrality() == 1

    def test_familiarity_builds_community(self):
        router, services = self._bubble()
        services._now = 0.0
        router.on_peer_secured(ALICE)
        services._now = router.FAMILIARITY_THRESHOLD + 1.0
        router.on_peer_lost(ALICE)
        assert ALICE in router.community

    def test_short_contact_no_community(self):
        router, services = self._bubble()
        services._now = 0.0
        router.on_peer_secured(ALICE)
        services._now = 60.0
        router.on_peer_lost(ALICE)
        assert ALICE not in router.community

    def test_serves_up_centrality_gradient(self):
        router, services = self._bubble()
        services.store.add(msg(ALICE, 1, hops=1))
        # Peer with higher centrality gets the message...
        router.on_control(CAROL, json.dumps({"centrality": 5, "community": []}).encode())
        assert router.serve_request(CAROL, ALICE, [1])

    def test_refuses_down_gradient_without_destination(self):
        router, services = self._bubble()
        services.store.add(msg(ALICE, 1, hops=1))
        # Give ourselves high centrality.
        services._now = 0.0
        for peer in ("u00000000x", "u00000000y", "u00000000z"):
            router.on_peer_secured(peer)
        router.on_control(CAROL, json.dumps({"centrality": 0, "community": []}).encode())
        assert router.serve_request(CAROL, ALICE, [1]) == []

    def test_destination_community_overrides_gradient(self):
        router, services = self._bubble()
        services.store.add(msg(ALICE, 1, hops=1))
        services._now = 0.0
        for peer in ("u00000000x", "u00000000y", "u00000000z"):
            router.on_peer_secured(peer)
        router.subscriber_hints[ALICE] = {"u00000000s"}
        router.on_control(
            CAROL,
            json.dumps({"centrality": 0, "community": ["u00000000s"]}).encode(),
        )
        assert router.serve_request(CAROL, ALICE, [1])

    def test_direct_subscriber_always_served(self):
        router, services = self._bubble()
        services.store.add(msg(ALICE, 1, hops=1))
        router.subscriber_hints[ALICE] = {CAROL}
        assert router.serve_request(CAROL, ALICE, [1])

    def test_malformed_control_ignored(self):
        router, _ = self._bubble()
        router.on_control(ALICE, b"\x00 garbage")  # must not raise

    def test_control_exchanged_on_secure(self):
        router, services = self._bubble()
        router.on_peer_discovered(ALICE, {ALICE: 1})
        router.on_peer_secured(ALICE)
        assert services.controls
        payload = json.loads(services.controls[0][1])
        assert "centrality" in payload and "community" in payload


class TestBubbleEndToEnd:
    def test_bubble_delivers_in_small_world(self, ca, keypair_pool):
        from repro.core.config import SosConfig
        from tests.worldutil import World

        world = World(ca, keypair_pool)
        config = SosConfig(routing_protocol="bubble", relay_request_grace=0.0)
        alice = world.add_user("alice", config=config)
        bob = world.add_user("bob", config=config)
        bob.follow(alice.user_id)
        world.start()
        alice.post("bubble works")
        world.run(180.0)
        assert [e.post.text for e in bob.timeline()] == ["bubble works"]
