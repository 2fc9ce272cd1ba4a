"""Tests for the AlleyOop Social application layer."""

import pytest

from repro.alleyoop import CloudService, Feed, Post, sign_up
from repro.alleyoop.cloud import CloudError
from repro.alleyoop.post import PostFormatError
from repro.crypto.drbg import HmacDrbg
from repro.storage.actionlog import ActionKind
from repro.storage.messagestore import StoredMessage
from tests.worldutil import World


@pytest.fixture()
def world(ca, keypair_pool):
    return World(ca, keypair_pool)


class TestPostEncoding:
    def test_roundtrip(self):
        post = Post(text="hello", topic="news", attributes={"lang": "en"})
        decoded = Post.decode(post.encode())
        assert decoded == post

    def test_minimal_post(self):
        assert Post.decode(Post(text="x").encode()).text == "x"

    def test_unicode_text(self):
        post = Post(text="काठमाडौं ☀ emoji")
        assert Post.decode(post.encode()).text == "काठमाडौं ☀ emoji"

    def test_oversized_text_rejected(self):
        with pytest.raises(PostFormatError):
            Post(text="x" * 10_000).encode()

    def test_garbage_payload_rejected(self):
        with pytest.raises(PostFormatError):
            Post.decode(b"\xff\xfe not json")

    def test_wrong_structure_rejected(self):
        with pytest.raises(PostFormatError):
            Post.decode(b'{"v": 2, "text": "x"}')
        with pytest.raises(PostFormatError):
            Post.decode(b'["not", "a", "dict"]')

    def test_misshapen_fields_rejected_as_format_error(self):
        """Well-formed JSON with wrong field shapes must raise the decode
        contract's PostFormatError, never a raw TypeError/ValueError
        (the app's gossip handler catches only PostFormatError)."""
        for body in (
            b'{"v": 1, "text": "x", "attrs": 5}',
            b'{"v": 1, "text": "x", "attrs": "zz"}',
            b'{"v": 1, "text": "x", "attrs": [1, 2]}',
            b'{"v": 1, "text": "x", "topic": 7}',
        ):
            with pytest.raises(PostFormatError):
                Post.decode(body)


class TestFeed:
    def _message(self, number=1, author="u000000001", received=50.0):
        return StoredMessage(
            author_id=author, number=number, created_at=10.0,
            body=Post(text=f"post {number}").encode(),
            signature=b"s", author_cert=b"c", hops=1, received_at=received,
        )

    def test_ingest_and_order(self):
        feed = Feed()
        feed.ingest(self._message(1))
        feed.ingest(self._message(2))
        entries = feed.entries()
        assert [e.number for e in entries] == [2, 1]  # newest first
        assert len(feed) == 2

    def test_duplicates_ignored(self):
        feed = Feed()
        assert feed.ingest(self._message(1)) is not None
        assert feed.ingest(self._message(1)) is None
        assert len(feed) == 1

    def test_undecodable_ignored(self):
        feed = Feed()
        bad = StoredMessage(
            author_id="u000000001", number=1, created_at=0.0,
            body=b"junk", signature=b"s", author_cert=b"c",
        )
        assert feed.ingest(bad) is None

    def test_delay_computed(self):
        feed = Feed()
        entry = feed.ingest(self._message(1, received=70.0))
        assert entry.delay == 60.0

    def test_from_author(self):
        feed = Feed()
        feed.ingest(self._message(2))
        feed.ingest(self._message(1))
        feed.ingest(self._message(1, author="u000000002"))
        assert [e.number for e in feed.from_author("u000000001")] == [1, 2]


class TestCloud:
    def test_account_creation_assigns_10_byte_ids(self):
        cloud = CloudService(rng=HmacDrbg.from_int(50), now=0.0)
        account = cloud.create_account("alice", now=0.0)
        assert len(account.user_id.encode()) == 10

    def test_duplicate_username_rejected(self):
        cloud = CloudService(rng=HmacDrbg.from_int(51), now=0.0)
        cloud.create_account("alice", now=0.0)
        with pytest.raises(CloudError):
            cloud.create_account("alice", now=0.0)

    def test_offline_cloud_refuses_everything(self):
        cloud = CloudService(rng=HmacDrbg.from_int(52), now=0.0)
        cloud.online = False
        with pytest.raises(CloudError):
            cloud.create_account("alice", now=0.0)

    def test_signup_flow_end_to_end(self):
        cloud = CloudService(rng=HmacDrbg.from_int(53), now=0.0)
        result = sign_up(cloud, "alice", rng=HmacDrbg.from_int(54), now=0.0, key_bits=512)
        assert result.keystore.provisioned
        assert result.certificate.user_id == result.user_id
        assert cloud.stats["certificates_issued"] == 1

    def test_sync_uplink_contiguous_prefix(self):
        cloud = CloudService(rng=HmacDrbg.from_int(55), now=0.0)
        account = cloud.create_account("alice", now=0.0)
        from repro.storage.actionlog import Action

        uplink = cloud.sync_uplink(account.user_id)
        batch = [
            Action(seq=1, kind=ActionKind.POST, actor=account.user_id, created_at=0.0),
            Action(seq=3, kind=ActionKind.POST, actor=account.user_id, created_at=1.0),
        ]
        assert uplink(batch) == 1  # the gap stops acceptance
        assert account.last_synced_seq == 1

    def test_user_ids_minted_from_monotonic_counter(self):
        """Ids must come from a counter, not from len(accounts): if an
        account is ever removed, a length-derived id would be re-minted
        and collide with the removed user's history."""
        cloud = CloudService(rng=HmacDrbg.from_int(56), now=0.0)
        first = cloud.create_account("alice", now=0.0)
        removed = cloud.create_account("bob", now=0.0)
        # Simulate a future account-removal feature.
        del cloud._accounts["bob"]
        del cloud._by_user_id[removed.user_id]
        third = cloud.create_account("carol", now=0.0)
        assert third.user_id not in (first.user_id, removed.user_id)
        assert third.user_id == "u000000002"

    def test_user_id_space_exhaustion_is_a_clean_error(self):
        cloud = CloudService(rng=HmacDrbg.from_int(57), now=0.0)
        cloud._next_account_index = CloudService.MAX_ACCOUNTS - 1
        last = cloud.create_account("alice", now=0.0)
        assert last.user_id == "u999999999"
        with pytest.raises(CloudError, match="exhausted"):
            cloud.create_account("bob", now=0.0)

    def test_sync_batch_accepts_whole_batch_in_one_round(self):
        from repro.storage.actionlog import Action

        cloud = CloudService(rng=HmacDrbg.from_int(58), now=0.0)
        account = cloud.create_account("alice", now=0.0)
        batch = [
            Action(seq=i, kind=ActionKind.FOLLOW, actor=account.user_id, created_at=0.0)
            for i in range(1, 51)
        ]
        assert cloud.sync_batch(account.user_id, batch) == 50
        assert account.last_synced_seq == 50
        assert [a.seq for a in account.synced_actions] == list(range(1, 51))
        assert cloud.stats["syncs"] == 1
        assert cloud.stats["actions_accepted"] == 50

    def test_sync_batch_stops_at_gap(self):
        from repro.storage.actionlog import Action

        cloud = CloudService(rng=HmacDrbg.from_int(59), now=0.0)
        account = cloud.create_account("alice", now=0.0)
        batch = [
            Action(seq=s, kind=ActionKind.FOLLOW, actor=account.user_id, created_at=0.0)
            for s in (1, 2, 4, 5)
        ]
        assert cloud.sync_batch(account.user_id, batch) == 2
        assert account.last_synced_seq == 2

    def test_sync_batch_unknown_user(self):
        cloud = CloudService(rng=HmacDrbg.from_int(60), now=0.0)
        with pytest.raises(CloudError):
            cloud.sync_batch("u000000099", [])


class TestAppBehaviour:
    def test_post_logs_action_and_stores(self, world):
        alice = world.add_user("alice")
        world.start()
        alice.post("hello world")
        assert alice.own_post_count() == 1
        assert alice.actions.of_kind(ActionKind.POST)
        assert alice.sos.store.has(alice.user_id, 1)

    def test_follow_updates_interests_and_log(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        assert alice.user_id in bob.sos.interests
        assert bob.actions.of_kind(ActionKind.FOLLOW)

    def test_unfollow_reverses(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        bob.unfollow(alice.user_id)
        assert alice.user_id not in bob.sos.interests
        assert bob.actions.of_kind(ActionKind.UNFOLLOW)

    def test_self_follow_rejected(self, world):
        alice = world.add_user("alice")
        with pytest.raises(ValueError):
            alice.follow(alice.user_id)

    def test_follow_idempotent(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        bob.follow(alice.user_id)
        assert len(bob.actions.of_kind(ActionKind.FOLLOW)) == 1

    def test_cloud_sync_when_online(self, world):
        alice = world.add_user("alice")
        world.start()
        alice.post("synced")
        account = world.cloud.account_for("alice")
        assert account.last_synced_seq >= 1

    def test_cloud_sync_deferred_when_offline(self, world):
        alice = world.add_user("alice")
        world.start()
        world.cloud.online = False
        alice.post("pending")
        assert alice.sync_queue.pending_count >= 1
        world.cloud.online = True
        assert alice.try_cloud_sync() >= 1
        assert alice.sync_queue.pending_count == 0

    def test_offline_cloud_does_not_block_d2d(self, world):
        """The one-time infrastructure property (§IV): after sign-up, all
        dissemination works with the cloud dark."""
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        world.cloud.online = False
        world.start()
        alice.post("no internet needed")
        world.run(120.0)
        assert [e.post.text for e in bob.timeline()] == ["no internet needed"]

    def test_feed_trace_event_emitted(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        world.start()
        alice.post("traced")
        world.run(120.0)
        events = [e for e in world.sim.trace if (e.category, e.kind) == ("app", "feed")]
        assert events and events[0].data["owner"] == bob.user_id


class TestBulkFollow:
    """AlleyOopApp.follow_many — the day-0 bootstrap wiring path."""

    def test_equivalent_to_per_edge_follows(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        carol = world.add_user("carol")
        dave = world.add_user("dave")
        targets = [alice.user_id, bob.user_id, carol.user_id]
        assert dave.follow_many(targets) == 3
        assert dave.follows == set(targets)
        assert dave.sos.interests == frozenset(targets)
        batched = dave.actions.of_kind(ActionKind.FOLLOW_MANY)
        assert len(batched) == 1  # one compact record for the whole batch
        assert batched[0].payload["targets"] == tuple(targets)  # input order
        events = [
            e for e in world.sim.trace if (e.category, e.kind) == ("social", "follow_many")
        ]
        assert [e.data["followees"] for e in events] == [tuple(targets)]

    def test_single_cloud_round(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        dave = world.add_user("dave")
        rounds_before = world.cloud.stats["syncs"]
        dave.follow_many([alice.user_id, bob.user_id])
        assert world.cloud.stats["syncs"] == rounds_before + 1
        account = world.cloud.account_for("dave")
        assert account.last_synced_seq == 1  # one compact record synced
        assert account.synced_actions[-1].payload["targets"] == (
            alice.user_id, bob.user_id,
        )

    def test_skips_already_followed_and_duplicates(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        dave = world.add_user("dave")
        dave.follow(alice.user_id)
        assert dave.follow_many([alice.user_id, bob.user_id, bob.user_id]) == 1
        assert len(dave.actions.of_kind(ActionKind.FOLLOW)) == 1
        batched = dave.actions.of_kind(ActionKind.FOLLOW_MANY)
        assert [a.payload["targets"] for a in batched] == [(bob.user_id,)]

    def test_self_follow_rejected(self, world):
        dave = world.add_user("dave")
        with pytest.raises(ValueError):
            dave.follow_many([dave.user_id])

    def test_empty_input_is_a_noop(self, world):
        dave = world.add_user("dave")
        synced = world.cloud.stats["syncs"]
        assert dave.follow_many([]) == 0
        assert world.cloud.stats["syncs"] == synced

    def test_gossip_suppressed_even_when_enabled(self, world):
        """Bootstrap semantics: bulk wiring never creates sys:subscription
        messages, even for a gossip-enabled app (the day-0 graph predates
        any encounter, so there is no one to tell)."""
        from repro.core.config import SosConfig

        config = SosConfig(routing_protocol="epidemic", relay_request_grace=0.0,
                           gossip_follows=True)
        alice = world.add_user("alice", config=config)
        dave = world.add_user("dave", config=config)
        dave.follow_many([alice.user_id])
        assert dave.own_post_count() == 0  # no system message created
