"""Tests for the per-link secure-session layer (repro.crypto.session)
and its wiring through the ad hoc manager.

Covers the ISSUE-2 checklist: rekey boundaries (time and volume),
replayed/reordered-frame rejection, channel teardown on peer loss with
re-handshake on reconnect, session-on/off trace equivalence, and
originator verification of forwarded DATA (tampered copies, CRL sync).
"""

import pytest

from repro.core.config import SosConfig
from repro.core.errors import SecurityError
from repro.core.wire import SosPacket
from repro.crypto.drbg import HmacDrbg
from repro.crypto.session import (
    SecureChannel,
    SessionCryptoError,
    SessionKeyStore,
    legacy_frame_len,
)
from repro.geo.point import Point
from repro.mobility.base import MobilityModel
from repro.storage.messagestore import StoredMessage
from tests.worldutil import World


@pytest.fixture()
def world(ca, keypair_pool):
    return World(ca, keypair_pool)


@pytest.fixture()
def channel_pair(keypair_pool):
    """Two SecureChannel endpoints wired back-to-back."""

    def _make(**kwargs):
        alice_keys, bob_keys = keypair_pool[0], keypair_pool[1]
        alice = SecureChannel(
            "alice", "bob", alice_keys.private, bob_keys.public,
            HmacDrbg.from_int(101), **kwargs,
        )
        bob = SecureChannel(
            "bob", "alice", bob_keys.private, alice_keys.public,
            HmacDrbg.from_int(202), **kwargs,
        )
        return alice, bob

    return _make


class TestChannelProtocol:
    def test_first_frame_is_key_frame_then_data_frames(self, channel_pair):
        alice, bob = channel_pair()
        frames = [alice.encrypt(b"packet %d" % i, now=0.0) for i in range(4)]
        assert frames[0][:1] == b"K"
        assert all(f[:1] == b"S" for f in frames[1:])
        for i, frame in enumerate(frames):
            assert bob.decrypt(frame, now=0.0) == b"packet %d" % i
        assert alice.stats["keys_established"] == 1
        assert bob.stats["keys_accepted"] == 1

    def test_directions_keyed_independently(self, channel_pair):
        alice, bob = channel_pair()
        to_bob = alice.encrypt(b"a->b", now=0.0)
        to_alice = bob.encrypt(b"b->a", now=0.0)
        assert to_bob[:1] == to_alice[:1] == b"K"  # each direction pays once
        assert bob.decrypt(to_bob, now=0.0) == b"a->b"
        assert alice.decrypt(to_alice, now=0.0) == b"b->a"

    @pytest.mark.parametrize("size", [0, 1, 200, 1024])
    def test_frames_padded_to_legacy_length(self, channel_pair, size):
        """Session frames must occupy exactly the bytes the legacy
        per-packet envelope would, so the radio model (and therefore every
        delivery trace) is identical across crypto modes."""
        alice, bob = channel_pair()
        key_frame = alice.encrypt(b"x" * size, now=0.0)
        data_frame = alice.encrypt(b"y" * size, now=0.0)
        expected = legacy_frame_len(size, 128, 128)  # 1024-bit pool keys
        assert len(key_frame) == len(data_frame) == expected

    def test_replayed_frame_rejected(self, channel_pair):
        alice, bob = channel_pair()
        first = alice.encrypt(b"one", now=0.0)
        second = alice.encrypt(b"two", now=0.0)
        assert bob.decrypt(first, now=0.0) == b"one"
        assert bob.decrypt(second, now=0.0) == b"two"
        with pytest.raises(SessionCryptoError, match="replayed or reordered"):
            bob.decrypt(second, now=0.0)

    def test_reordered_frame_rejected(self, channel_pair):
        alice, bob = channel_pair()
        bob.decrypt(alice.encrypt(b"open", now=0.0), now=0.0)
        early = alice.encrypt(b"early", now=0.0)
        late = alice.encrypt(b"late", now=0.0)
        with pytest.raises(SessionCryptoError, match="replayed or reordered"):
            bob.decrypt(late, now=0.0)
        # The in-order frame still decrypts after the rejection.
        assert bob.decrypt(early, now=0.0) == b"early"

    def test_empty_payload_frame_cannot_replay(self, channel_pair):
        """Replay protection counts frames, not stream bytes: a frame
        carrying an empty payload must still be rejected on replay."""
        alice, bob = channel_pair()
        bob.decrypt(alice.encrypt(b"open", now=0.0), now=0.0)
        empty = alice.encrypt(b"", now=0.0)  # an "S" frame with ct_len=0
        assert bob.decrypt(empty, now=0.0) == b""
        with pytest.raises(SessionCryptoError, match="replayed or reordered"):
            bob.decrypt(empty, now=0.0)

    def test_replayed_key_frame_rejected(self, channel_pair):
        alice, bob = channel_pair(rekey_packets=1)
        key_frame = alice.encrypt(b"first", now=0.0)
        assert bob.decrypt(key_frame, now=0.0) == b"first"
        with pytest.raises(SessionCryptoError, match="replayed session key"):
            bob.decrypt(key_frame, now=0.0)
        # A legitimate fresh key frame still goes through.
        assert bob.decrypt(alice.encrypt(b"second", now=0.0), now=0.0) == b"second"

    def test_tampering_rejected_everywhere(self, channel_pair):
        alice, bob = channel_pair()
        bob.decrypt(alice.encrypt(b"warmup", now=0.0), now=0.0)
        frame = alice.encrypt(b"tamper target", now=0.0)
        for position in (1, 9, 20, len(frame) // 2, len(frame) - 1):
            damaged = bytearray(frame)
            damaged[position] ^= 0x01
            with pytest.raises(SessionCryptoError):
                bob.decrypt(bytes(damaged), now=0.0)
        assert bob.decrypt(frame, now=0.0) == b"tamper target"

    def test_key_frame_from_wrong_signer_rejected(self, channel_pair, keypair_pool):
        _, bob = channel_pair()
        eve_keys = keypair_pool[2]
        eve = SecureChannel(
            "alice", "bob", eve_keys.private, keypair_pool[1].public,
            HmacDrbg.from_int(303),
        )
        with pytest.raises(SessionCryptoError, match="not signed by"):
            bob.decrypt(eve.encrypt(b"impostor", now=0.0), now=0.0)

    def test_data_frame_before_key_frame_rejected(self, channel_pair):
        alice, bob = channel_pair()
        alice.encrypt(b"key frame never delivered", now=0.0)
        stray = alice.encrypt(b"data frame", now=0.0)
        with pytest.raises(SessionCryptoError, match="before session key"):
            bob.decrypt(stray, now=0.0)

    def test_tampered_key_frame_does_not_disturb_receive_stream(self, channel_pair):
        """A key frame whose *body* fails authentication must leave the
        current receive key installed and the genuine key frame usable —
        key commitment happens only after the MAC verifies."""
        alice, bob = channel_pair(rekey_packets=2)
        bob.decrypt(alice.encrypt(b"one", now=0.0), now=0.0)
        in_flight = alice.encrypt(b"two", now=0.0)  # S frame on the old key
        rekey = alice.encrypt(b"three", now=0.0)  # K frame: fresh key
        damaged = bytearray(rekey)
        damaged[-1] ^= 1  # break the MAC, keep the signed header intact
        with pytest.raises(SessionCryptoError, match="authentication failed"):
            bob.decrypt(bytes(damaged), now=0.0)
        # Old stream still live, and the genuine K frame is not "replayed".
        assert bob.decrypt(in_flight, now=0.0) == b"two"
        assert bob.decrypt(rekey, now=0.0) == b"three"

    def test_key_replay_rejected_across_channel_teardown(self, keypair_pool):
        """A recorded handshake must not replay into a *fresh* channel:
        the key store can outlive the channel (the ad hoc manager keeps
        one per device across reconnects)."""
        alice_keys, bob_keys = keypair_pool[0], keypair_pool[1]
        store = SessionKeyStore()

        def bob_channel():
            return SecureChannel(
                "bob", "alice", bob_keys.private, alice_keys.public,
                HmacDrbg.from_int(11), keys=store,
            )

        alice = SecureChannel(
            "alice", "bob", alice_keys.private, bob_keys.public, HmacDrbg.from_int(12)
        )
        first_bob = bob_channel()
        recorded = alice.encrypt(b"session one", now=0.0)
        assert first_bob.decrypt(recorded, now=0.0) == b"session one"
        # Link drops; a fresh channel is created for the reconnect.
        reconnected_bob = bob_channel()
        with pytest.raises(SessionCryptoError, match="replayed session key"):
            reconnected_bob.decrypt(recorded, now=100.0)

    def test_seen_key_store_bounded(self, channel_pair, monkeypatch):
        import repro.crypto.session as session_module

        monkeypatch.setattr(session_module, "SEEN_KEY_LIMIT", 3)
        alice, bob = channel_pair(rekey_packets=1)  # every packet rekeys
        for i in range(8):
            assert bob.decrypt(alice.encrypt(b"m%d" % i, now=0.0), now=0.0) == b"m%d" % i
        assert len(bob.keys.held) <= 3


class TestRekeyBoundaries:
    def test_volume_rekey_exactly_at_budget(self, channel_pair):
        alice, bob = channel_pair(rekey_packets=3)
        kinds = []
        for i in range(7):
            frame = alice.encrypt(b"m%d" % i, now=0.0)
            kinds.append(frame[:1])
            assert bob.decrypt(frame, now=0.0) == b"m%d" % i
        # Packets 0, 3 and 6 open fresh keys; the stream never stalls.
        assert kinds == [b"K", b"S", b"S", b"K", b"S", b"S", b"K"]
        assert alice.stats["keys_established"] == 3
        assert bob.stats["keys_accepted"] == 3

    def test_time_rekey_exactly_at_interval(self, channel_pair):
        alice, bob = channel_pair(rekey_interval_s=60.0)
        at_zero = alice.encrypt(b"a", now=0.0)
        just_before = alice.encrypt(b"b", now=59.999)
        at_interval = alice.encrypt(b"c", now=60.0)
        assert (at_zero[:1], just_before[:1], at_interval[:1]) == (b"K", b"S", b"K")
        for frame, body in ((at_zero, b"a"), (just_before, b"b"), (at_interval, b"c")):
            assert bob.decrypt(frame, now=0.0) == body

    def test_rekey_resets_stream_offset(self, channel_pair):
        alice, bob = channel_pair(rekey_packets=2)
        for i in range(5):
            assert bob.decrypt(alice.encrypt(b"x" * 100, now=0.0), now=0.0) == b"x" * 100
        send = alice._send
        assert send.packets == 1  # fresh key...
        # ...fresh stream: its cipher has handed out this frame's 100 bytes only.
        assert send.cipher._counter * 64 - len(send.cipher._leftover) == 100


class TestAdhocIntegration:
    def _secured_pair(self, world, **config_kwargs):
        config = SosConfig(relay_request_grace=0.0, **config_kwargs)
        alice = world.add_user("alice", config=config)
        bob = world.add_user("bob", config=config)
        bob.follow(alice.user_id)
        world.start()
        alice.post("seed")
        world.run(60.0)
        assert bob.sos.adhoc.is_secured(alice.user_id)
        return alice, bob

    def test_channels_established_and_used(self, world):
        alice, bob = self._secured_pair(world)
        assert [e.post.text for e in bob.timeline()] == ["seed"]
        snap = alice.sos.security_stats
        assert snap["session_keys_established"] >= 1
        assert snap["session_keys_accepted"] >= 1

    def test_rekey_under_traffic_end_to_end(self, world):
        alice, bob = self._secured_pair(world)
        # A two-packet budget on alice's live channel to bob.
        alice.sos.adhoc._peers[bob.user_id].channel.rekey_packets = 2
        for i in range(6):
            alice.post(f"burst {i}")
        world.run(world.sim.now + 300.0)
        texts = {e.post.text for e in bob.timeline()}
        assert {f"burst {i}" for i in range(6)} <= texts
        # Several rekeys happened on alice's sending side alone.
        assert alice.sos.security_stats["session_keys_established"] >= 3

    def test_teardown_on_peer_loss_and_rehandshake(self, world):
        class Wanderer(MobilityModel):
            def position_at(self, now):
                if now < 200 or now >= 600:
                    return Point(130, 100)
                return Point(5000, 5000)

        config = SosConfig(relay_request_grace=0.0)
        alice = world.add_user("alice", position=Point(100, 100), config=config)
        bob = world.add_user("bob", mobility=Wanderer(), config=config)
        bob.follow(alice.user_id)
        world.start()
        alice.post("first")
        world.run(150.0)
        alice_state = alice.sos.adhoc._peers[bob.user_id]
        first_channel = alice_state.channel
        assert first_channel is not None
        world.run(400.0)  # bob out of range: link drops
        assert not alice.sos.adhoc.is_secured(bob.user_id)
        assert alice_state.channel is None  # torn down with the connection
        alice.post("second")
        world.run(900.0)  # bob returns: re-handshake + catch-up
        assert sorted(e.post.text for e in bob.timeline()) == ["first", "second"]
        second_channel = alice.sos.adhoc._peers[bob.user_id].channel
        assert second_channel is not None and second_channel is not first_channel
        # Each side sent one K frame per connection and no data frame, so
        # neither master was acknowledged and the reconnect paid RSA again;
        # the first channel's counters survived into the manager.
        stats = alice.sos.security_stats
        assert stats["session_keys_established"] == 2
        assert stats["session_keys_resumed"] == 0
        assert stats["session_keys_accepted"] == 2
        assert stats["security_failures"] == 0
        # The anti-replay record spans both connections (bob's two
        # masters), so a recorded first-session handshake cannot replay
        # into the second.
        keys = alice.sos.adhoc._session_keys
        assert len(keys.held) == 2
        assert second_channel.keys is keys

    def test_cross_mode_frames_rejected(self, world):
        """A legacy node's E frame offered to a session-mode node (or any
        unknown marker) is a security failure, not a crash."""
        from repro.mpc.peer import PeerID

        alice, bob = self._secured_pair(world)
        failures = bob.sos.adhoc.stats["security_failures"]
        bob.sos.adhoc.session_received_data(
            bob.sos.adhoc.session, b"E" + b"\x00" * 64, PeerID(alice.user_id, "dev-alice")
        )
        assert bob.sos.adhoc.stats["security_failures"] == failures + 1

    def test_session_frame_when_disabled_rejected(self, world):
        alice, bob = self._secured_pair(world, session_crypto=False)
        # Craft a genuine session frame from alice's material and offer it
        # to legacy-mode bob: decode must fail safely.
        from repro.mpc.peer import PeerID

        channel = SecureChannel(
            alice.user_id, bob.user_id,
            alice.sos.adhoc.keystore.private_key,
            bob.sos.adhoc.keystore.own_certificate.public_key,
            HmacDrbg.from_int(42),
        )
        frame = channel.encrypt(SosPacket.request(alice.user_id, bob.user_id, [1]).encode(), 0.0)
        failures = bob.sos.adhoc.stats["security_failures"]
        bob.sos.adhoc.session_received_data(
            bob.sos.adhoc.session, frame, PeerID(alice.user_id, "dev-alice")
        )
        assert bob.sos.adhoc.stats["security_failures"] == failures + 1


class TestTraceEquivalence:
    def test_session_and_legacy_runs_identical(self, ca, keypair_pool):
        """The reference oracle: a fixed-seed multi-user run must emit a
        byte-identical trace stream in both crypto modes."""

        def run(session_crypto):
            world = World(ca, keypair_pool, session_crypto=session_crypto)
            users = {}
            for i, name in enumerate(["alice", "bob", "carol", "dave"]):
                users[name] = world.add_user(name, position=Point(100.0 + 25.0 * i, 100.0))
            users["bob"].follow(users["alice"].user_id)
            users["carol"].follow(users["alice"].user_id)
            users["dave"].follow(users["carol"].user_id)
            world.start()
            world.sim.schedule_at(30.0, users["alice"].post, "one")
            world.sim.schedule_at(90.0, users["carol"].post, "two")
            world.sim.schedule_at(150.0, users["alice"].post, "three")
            world.run(600.0)
            return [
                (e.time, e.category, e.kind, tuple(sorted(e.data.items())))
                for e in world.sim.trace
            ]

        session_trace = run(True)
        legacy_trace = run(False)
        assert session_trace == legacy_trace
        assert any(e[1] == "message" and e[2] == "received" for e in session_trace)


class TestOriginatorVerification:
    """Run after the message was verified once, so the signature check
    of a repeat is a hit in the process-wide verify cache."""

    def _received_message(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        world.start()
        alice.post("verified")
        world.run(120.0)
        assert bob.timeline()
        return alice, bob

    def test_tampered_copy_is_rejected(self, world):
        alice, bob = self._received_message(world)
        manager = bob.sos.messages
        legit = alice.sos.store.get(alice.user_id, 1)
        forged = StoredMessage(
            author_id=legit.author_id, number=legit.number,
            created_at=legit.created_at, body=b"evil body",
            signature=legit.signature, author_cert=legit.author_cert, hops=1,
        )
        rejected = manager.stats["originator_rejected"]
        assert not manager._verify_originator(forged, alice.user_id)
        assert manager.stats["originator_rejected"] == rejected + 1

    def test_revocation_sync_rejects_a_verified_author(self, world):
        alice, bob = self._received_message(world)
        manager = bob.sos.messages
        message = alice.sos.store.get(alice.user_id, 1)
        assert manager._verify_originator(message, alice.user_id)
        world.cloud.revoke_user("alice", now=world.sim.now)
        bob.refresh_revocations()
        rejected = manager.stats["originator_rejected"]
        # The signature still verifies; the revoked certificate does not.
        assert not manager._verify_originator(message, alice.user_id)
        assert manager.stats["originator_rejected"] == rejected + 1


class TestRequestBookkeeping:
    def test_expired_request_entries_pruned(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        world.start()
        alice.post("seed")
        world.run(60.0)
        manager = bob.sos.messages
        # Request numbers that will never be answered.
        manager.request_messages(alice.user_id, alice.user_id, [100, 101, 102])
        assert any(key[1] in (100, 101, 102) for key in manager._requested)
        world.run(world.sim.now + 2 * manager.request_timeout + 1.0)
        manager.request_messages(alice.user_id, alice.user_id, [103])
        assert not any(key[1] in (100, 101, 102) for key in manager._requested)

    def test_answered_request_entry_released(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        bob.follow(alice.user_id)
        world.start()
        alice.post("answer me")
        world.run(120.0)
        assert bob.timeline()
        assert (alice.user_id, 1) not in bob.sos.messages._requested

    def test_untransferred_is_bounded(self, world):
        from collections import deque

        alice = world.add_user("alice")
        manager = alice.sos.messages
        assert isinstance(manager.untransferred, deque)
        assert manager.untransferred.maxlen == manager.UNTRANSFERRED_LIMIT
        for i in range(manager.UNTRANSFERRED_LIMIT + 100):
            manager.untransferred.append(("peer", "author", i))
        assert len(manager.untransferred) == manager.UNTRANSFERRED_LIMIT
