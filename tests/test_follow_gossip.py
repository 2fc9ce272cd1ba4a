"""Tests for §V follow-action dissemination (subscription gossip)."""

import pytest

from repro.alleyoop.post import Post
from repro.core.config import SosConfig
from repro.storage.messagestore import StoredMessage
from tests.worldutil import World


@pytest.fixture()
def world(ca, keypair_pool):
    return World(ca, keypair_pool)


def gossip_config(protocol="epidemic"):
    return SosConfig(routing_protocol=protocol, relay_request_grace=0.0,
                     gossip_follows=True)


def gossip_message(author_id, action, followee, number, created_at):
    """A subscription-gossip message as it reaches the app layer (the
    middleware has already verified originator signature and cert, so the
    app never inspects those fields)."""
    body = Post(
        text="", topic="sys:subscription",
        attributes={"action": action, "followee": followee},
    ).encode()
    return StoredMessage(
        author_id=author_id, number=number, created_at=created_at,
        body=body, signature=b"", author_cert=b"", hops=1,
        received_at=created_at,
    )


class TestFollowGossip:
    def test_follow_action_disseminates(self, world):
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        carol = world.add_user("carol", config=gossip_config())
        world.start()
        # bob follows carol; the action is a system message epidemic
        # carries to everyone in range.
        bob.follow(carol.user_id)
        world.run(120.0)
        assert alice.social_map.get(carol.user_id) == {bob.user_id}

    def test_unfollow_retracts(self, world):
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        carol = world.add_user("carol", config=gossip_config())
        world.start()
        bob.follow(carol.user_id)
        world.run(120.0)
        bob.unfollow(carol.user_id)
        world.run(240.0)
        assert alice.social_map.get(carol.user_id) == set()

    def test_gossip_never_reaches_the_feed(self, world):
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        carol = world.add_user("carol", config=gossip_config())
        # alice follows bob, so she'd see bob's regular posts...
        alice.follow(bob.user_id)
        world.start()
        bob.follow(carol.user_id)  # ...but this is gossip, not content
        world.run(120.0)
        assert alice.timeline() == []

    def test_gossip_off_by_default(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        carol = world.add_user("carol")
        world.start()
        bob.follow(carol.user_id)
        world.run(120.0)
        assert alice.social_map == {}
        assert bob.own_post_count() == 0  # no system message was created

    def test_hints_reach_destination_aware_protocol(self, world):
        alice = world.add_user("alice", config=gossip_config("bubble"))
        bob = world.add_user("bob", config=gossip_config("bubble"))
        carol = world.add_user("carol", config=gossip_config("bubble"))
        world.start()
        bob.follow(carol.user_id)
        world.run(120.0)
        hints = alice.sos.messages.protocol.subscriber_hints
        assert hints.get(carol.user_id) == {bob.user_id}

    def test_stale_unfollow_cannot_clobber_newer_follow(self, world):
        """Regression: DTN delivery reorders freely, so the unfollow from
        t=5 may arrive *after* the re-follow from t=10.  Arrival-order
        application used to regress the social map; action-order
        application must not."""
        alice = world.add_user("alice", config=gossip_config("bubble"))
        bob = world.add_user("bob", config=gossip_config("bubble"))
        carol = world.add_user("carol", config=gossip_config("bubble"))
        # bob: follow (msg 1, t=1), unfollow (msg 2, t=5), follow (msg 3, t=10).
        # alice hears 1 and 3 first; the stale unfollow straggles in last.
        alice.sos_message_received(
            gossip_message(bob.user_id, "follow", carol.user_id, 1, 1.0), "relay"
        )
        alice.sos_message_received(
            gossip_message(bob.user_id, "follow", carol.user_id, 3, 10.0), "relay"
        )
        alice.sos_message_received(
            gossip_message(bob.user_id, "unfollow", carol.user_id, 2, 5.0), "relay"
        )
        assert alice.social_map.get(carol.user_id) == {bob.user_id}
        hints = alice.sos.messages.protocol.subscriber_hints
        assert hints.get(carol.user_id) == {bob.user_id}

    def test_stale_follow_cannot_resurrect_newer_unfollow(self, world):
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        carol = world.add_user("carol", config=gossip_config())
        alice.sos_message_received(
            gossip_message(bob.user_id, "unfollow", carol.user_id, 2, 8.0), "relay"
        )
        alice.sos_message_received(
            gossip_message(bob.user_id, "follow", carol.user_id, 1, 2.0), "relay"
        )
        assert alice.social_map.get(carol.user_id) == set()

    def test_gossip_ordering_is_per_pair(self, world):
        """A newer action about one followee must not shadow older gossip
        about a different followee by the same author."""
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        carol = world.add_user("carol", config=gossip_config())
        dave = world.add_user("dave", config=gossip_config())
        alice.sos_message_received(
            gossip_message(bob.user_id, "follow", carol.user_id, 2, 9.0), "relay"
        )
        alice.sos_message_received(
            gossip_message(bob.user_id, "follow", dave.user_id, 1, 3.0), "relay"
        )
        assert alice.social_map.get(carol.user_id) == {bob.user_id}
        assert alice.social_map.get(dave.user_id) == {bob.user_id}

    def test_malformed_payload_emits_diagnostic(self, world):
        """A verified message whose body does not decode as a Post is
        evidence of a malformed sender: it must be traced, not silently
        swallowed (and it must never reach the feed)."""
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        alice.follow(bob.user_id)
        junk = StoredMessage(
            author_id=bob.user_id, number=1, created_at=0.0,
            body=b"\xff\xfenot json", signature=b"", author_cert=b"",
            hops=1, received_at=0.0,
        )
        alice.sos_message_received(junk, "relay")
        # Well-formed JSON with a misshapen attrs field must take the
        # same diagnostic path, not crash the delivery callback.
        misshapen = StoredMessage(
            author_id=bob.user_id, number=2, created_at=0.0,
            body=b'{"v": 1, "text": "x", "attrs": "zz"}',
            signature=b"", author_cert=b"", hops=1, received_at=0.0,
        )
        alice.sos_message_received(misshapen, "relay")
        events = [
            e for e in alice.sim.trace if (e.category, e.kind) == ("app", "malformed_payload")
        ]
        assert len(events) == 2
        assert events[0].data["author"] == bob.user_id
        assert alice.timeline() == []

    def test_misshapen_gossip_attributes_are_ignored(self, world):
        """Attribute values are sender-controlled: a non-string followee
        (unhashable or not) or action must neither crash the delivery
        callback nor pollute the social map."""
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        for attributes in (
            {"action": "follow", "followee": ["x"]},
            {"action": "follow", "followee": 7},
            {"action": ["follow"], "followee": "u000000099"},
        ):
            body = Post(text="", topic="sys:subscription", attributes=attributes).encode()
            message = StoredMessage(
                author_id=bob.user_id, number=1, created_at=0.0, body=body,
                signature=b"", author_cert=b"", hops=1, received_at=0.0,
            )
            alice.sos_message_received(message, "relay")
        assert alice.social_map in ({}, {"u000000099": set()})
        assert alice.timeline() == []

    def test_regular_posts_still_flow_with_gossip_on(self, world):
        alice = world.add_user("alice", config=gossip_config())
        bob = world.add_user("bob", config=gossip_config())
        bob.follow(alice.user_id)
        world.start()
        alice.post("real content")
        world.run(180.0)
        assert [e.post.text for e in bob.timeline()] == ["real content"]
