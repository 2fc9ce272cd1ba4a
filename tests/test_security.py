"""Adversarial security tests (paper §IV).

The security goals the paper states: detect the identity of users, send
encrypted information, verify the originating source of forwarded
information, and ensure data have not been modified.  Each test attacks
one of those goals and asserts the middleware rejects it.
"""

import pytest

from repro.core.adhoc import PerPacketChannel
from repro.core.config import SosConfig
from repro.core.wire import SosPacket, canonical_message_bytes
from repro.crypto.drbg import HmacDrbg
from repro.pki.certificate import Certificate, DistinguishedName
from repro.storage.messagestore import StoredMessage
from tests.worldutil import World


@pytest.fixture(params=["session", "legacy"])
def world(ca, keypair_pool, request, monkeypatch):
    """Every attack here must be rejected under both packet-crypto wire
    formats: the per-link secure-session layer and the paper's per-packet
    hybrid-RSA pipeline (:class:`PerPacketChannel`, swapped in)."""
    if request.param == "legacy":
        monkeypatch.setattr("repro.core.adhoc.SecureChannel", PerPacketChannel)
    return World(ca, keypair_pool)


def connected_pair(world):
    alice = world.add_user("alice")
    bob = world.add_user("bob")
    bob.follow(alice.user_id)
    world.start()
    alice.post("legit")  # forces connection + handshake
    world.run(120.0)
    assert bob.timeline()  # sanity: the secure path works
    return alice, bob


class TestPayloadTampering:
    def test_modified_body_rejected(self, world):
        alice, bob = connected_pair(world)
        legit = alice.sos.store.get(alice.user_id, 1)
        forged = StoredMessage(
            author_id=legit.author_id,
            number=2,  # pretend it's a new message
            created_at=legit.created_at,
            body=b'{"text": "evil", "v": 1}',
            signature=legit.signature,  # stale signature
            author_cert=legit.author_cert,
            hops=0,
        )
        packet = SosPacket.data(bob.user_id, forged)
        # Inject through bob's own adhoc layer toward... bob sends to
        # himself is meaningless; instead deliver via the message manager
        # of bob as if from alice.
        before = bob.sos.messages.stats["originator_rejected"]
        bob.sos.messages._packet_received(packet, alice.user_id)
        assert bob.sos.messages.stats["originator_rejected"] == before + 1
        assert not bob.sos.store.has(alice.user_id, 2)

    def test_wrong_author_cert_rejected(self, world):
        alice, bob = connected_pair(world)
        legit = alice.sos.store.get(alice.user_id, 1)
        # Mallory (bob) re-signs alice's message with bob's key and
        # attaches bob's certificate, claiming alice authored it.
        canonical = canonical_message_bytes(alice.user_id, 2, 0.0, b"forged")
        forged = StoredMessage(
            author_id=alice.user_id,
            number=2,
            created_at=0.0,
            body=b"forged",
            signature=bob.sos.adhoc.keystore.private_key.sign(canonical),
            author_cert=bob.sos.adhoc.keystore.own_certificate.encode(),
            hops=0,
        )
        before = bob.sos.messages.stats["originator_rejected"]
        bob.sos.messages._packet_received(SosPacket.data(alice.user_id, forged), alice.user_id)
        assert bob.sos.messages.stats["originator_rejected"] == before + 1

    def test_garbage_certificate_rejected(self, world):
        alice, bob = connected_pair(world)
        forged = StoredMessage(
            author_id=alice.user_id, number=3, created_at=0.0, body=b"x",
            signature=b"sig", author_cert=b"not-a-certificate", hops=0,
        )
        before = bob.sos.messages.stats["originator_rejected"]
        bob.sos.messages._packet_received(SosPacket.data(alice.user_id, forged), alice.user_id)
        assert bob.sos.messages.stats["originator_rejected"] == before + 1


class TestImpersonation:
    def test_self_issued_certificate_fails_handshake(self, world, keypair_pool):
        """A device presenting a self-signed certificate (not issued by
        the AlleyOop CA) is disconnected and blacklisted."""
        alice, bob = connected_pair(world)
        rogue_key = keypair_pool[5]
        dn = DistinguishedName(common_name="rogue")
        rogue_cert = Certificate(
            subject=dn, issuer=dn, public_key=rogue_key.public,
            serial=1, not_before=0.0, not_after=1e9, user_id=alice.user_id,
        )
        rogue_cert = rogue_cert.with_signature(rogue_key.private.sign(rogue_cert.tbs_bytes()))
        failures = bob.sos.adhoc.stats["security_failures"]
        packet = SosPacket.cert(alice.user_id, rogue_cert.encode())
        from repro.mpc.peer import PeerID

        # Through the session path (as real traffic arrives) the failure
        # is absorbed and counted + the peer blacklisted.
        bob.sos.adhoc.session_received_data(
            bob.sos.adhoc.session, b"P" + packet.encode(), PeerID(alice.user_id, "dev-alice")
        )
        assert bob.sos.adhoc.stats["security_failures"] == failures + 1
        assert bob.sos.adhoc._blacklist_until.get(alice.user_id, 0) > world.sim.now

    def test_sender_identity_binding(self, world):
        """A packet claiming a different sender than the session peer is
        rejected (no speaking on behalf of others)."""
        from repro.core.errors import SecurityError
        from repro.mpc.peer import PeerID

        alice, bob = connected_pair(world)
        packet = SosPacket.request("u999999999", alice.user_id, [1])
        with pytest.raises(SecurityError):
            bob.sos.adhoc._handle_frame(
                b"P" + packet.encode(), PeerID(alice.user_id, "dev-alice")
            )


class TestEncryptionPreference:
    def test_plaintext_payload_rejected_when_encryption_required(self, world):
        from repro.core.errors import SecurityError
        from repro.mpc.peer import PeerID

        alice, bob = connected_pair(world)
        packet = SosPacket.request(alice.user_id, bob.user_id, [1])
        with pytest.raises(SecurityError):
            bob.sos.adhoc._handle_frame(
                b"P" + packet.encode(), PeerID(alice.user_id, "dev-alice")
            )

    def test_encrypted_frames_not_readable_by_third_party(self, world):
        """Confidentiality: captured session bytes cannot be decrypted by
        a non-recipient key — in either wire format."""
        captured = []
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        eve = world.add_user("eve")
        bob.follow(alice.user_id)
        original_send = alice.sos.adhoc.session.send

        def tap(data, to_peer, on_complete=None):
            captured.append(bytes(data))
            return original_send(data, to_peer, on_complete=on_complete)

        alice.sos.adhoc.session.send = tap
        world.start()
        alice.post("secret text")
        world.run(60.0)
        alice.post("secret text, again")  # the data frames ack both keys
        world.run(120.0)
        world.medium.force_drop("dev-alice", "dev-bob")  # a flap: the reconnect resumes
        world.run(200.0)
        alice.post("secret text, resumed")
        world.run(300.0)
        encrypted = [f for f in captured if f[:1] in (b"E", b"K", b"R", b"S")]
        assert encrypted, "expected at least one encrypted frame"
        from repro.crypto.rsa import hybrid_decrypt
        from repro.crypto.session import SecureChannel, SessionCryptoError

        eve_key = eve.sos.adhoc.keystore.private_key
        # Eve posing as bob, with every session key she holds.
        eve_as_bob = SecureChannel(
            bob.user_id, alice.user_id, eve_key,
            alice.sos.adhoc.keystore.own_certificate.public_key,
            HmacDrbg.from_int(666), keys=eve.sos.adhoc._session_keys,
        )
        for frame in encrypted:
            if frame[:1] == b"E":
                with pytest.raises(ValueError):
                    hybrid_decrypt(eve_key, frame[1:], aad=alice.user_id.encode())
            elif frame[:1] == b"K":
                # The session master is RSA-wrapped to bob; eve's private
                # key must fail the OAEP unwrap itself.
                wrap_len = int.from_bytes(frame[1:3], "big")
                wrapped_master = frame[3 : 3 + wrap_len]
                with pytest.raises(ValueError):
                    eve_key.decrypt(wrapped_master)
            elif frame[:1] == b"R":
                # A resume frame carries no key material, only the name of
                # a master bob holds: eve cannot derive its key.
                with pytest.raises(SessionCryptoError):
                    eve_as_bob.decrypt(frame, now=world.sim.now)
        from repro.core import adhoc

        if adhoc.SecureChannel is PerPacketChannel:
            assert any(f[:1] == b"E" for f in encrypted)
        else:
            assert any(f[:1] == b"K" for f in encrypted)
            assert any(f[:1] == b"R" for f in encrypted)
        # The plaintext never appears on the wire in either mode.
        assert all(b"secret text" not in frame for frame in captured)

    def test_encryption_can_be_disabled_for_ablation(self, world):
        config = SosConfig(routing_protocol="interest", require_encryption=False,
                           relay_request_grace=0.0)
        alice = world.add_user("alice", config=config)
        bob = world.add_user("bob", config=config)
        bob.follow(alice.user_id)
        world.start()
        alice.post("in the clear")
        world.run(120.0)
        assert [e.post.text for e in bob.timeline()] == ["in the clear"]


class TestRevocation:
    def test_revoked_user_rejected_after_crl_sync(self, world):
        alice, bob = connected_pair(world)
        world.cloud.revoke_user("alice", now=world.sim.now)
        bob.refresh_revocations()
        result = bob.sos.adhoc.keystore.validate_and_cache(
            alice.sos.adhoc.keystore.own_certificate, now=world.sim.now
        )
        assert result.value == "revoked"

    def test_without_sync_revoked_user_still_trusted(self, world):
        """The §IV exposure window, end to end."""
        alice, bob = connected_pair(world)
        world.cloud.revoke_user("alice", now=world.sim.now)
        # bob never syncs: alice still validates.
        result = bob.sos.adhoc.keystore.validate_and_cache(
            alice.sos.adhoc.keystore.own_certificate, now=world.sim.now
        )
        assert result.ok
