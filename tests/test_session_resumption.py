"""Session resumption: a reconnect keys its first send from the master the
peer acknowledged holding (an ``R`` frame) instead of paying RSA again.

Covers the channel protocol (acknowledgement before resumption, the
per-master counter, replays on the same channel, on a new channel and
after a crash, expiry on both sides, the bounded store), the ad hoc
manager (exact RSA counts over reconnects, revocation), the pinned
counts of a seeded study, and byte-identity against the non-resuming
oracle (``tests/session_oracle.py``) under fault injection.
"""

import pytest

from repro.bench.traceid import trace_lines, trace_sha256
from repro.core.config import SosConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.session import (
    RESUME_FRAME,
    SecureChannel,
    SessionCryptoError,
    SessionKeyStore,
    _HeldMaster,
    legacy_frame_len,
)
from repro.experiments import GainesvilleStudy, ScenarioConfig
from tests.session_oracle import NonResumingChannel
from tests.worldutil import World

#: ``smoke_default``'s trace sha (``BENCH_default.json``).
SMOKE_DEFAULT_SHA = "b409ea13416b2832431725e84f830c85bc3d4006a67d8f2b4583867a04256201"


class Link:
    """Alice and bob with durable key stores: :meth:`connect` opens a
    fresh channel pair, as the ad hoc manager does on every reconnect."""

    def __init__(self, keypair_pool, **channel_kwargs):
        self.alice_keys, self.bob_keys = keypair_pool[0], keypair_pool[1]
        self.alice_store, self.bob_store = SessionKeyStore(), SessionKeyStore()
        self.channel_kwargs = channel_kwargs
        self.channels = []

    def connect(self):
        n = len(self.channels)
        alice = SecureChannel(
            "alice", "bob", self.alice_keys.private, self.bob_keys.public,
            HmacDrbg.from_int(100 + n), keys=self.alice_store, **self.channel_kwargs,
        )
        bob = SecureChannel(
            "bob", "alice", self.bob_keys.private, self.alice_keys.public,
            HmacDrbg.from_int(200 + n), keys=self.bob_store, **self.channel_kwargs,
        )
        self.channels.append((alice, bob))
        return alice, bob

    def total(self, side, counter):
        index = 0 if side == "alice" else 1
        return sum(pair[index].stats[counter] for pair in self.channels)


def send(sender, receiver, now, payload=b"payload"):
    frame = sender.encrypt(payload, now=now)
    assert receiver.decrypt(frame, now=now) == payload
    return frame


def acked(link, now=0.0):
    """One connection in which bob acknowledges alice's RSA master: his
    first frame is his own key frame, his second a data frame."""
    alice, bob = link.connect()
    assert send(alice, bob, now)[:1] == b"K"
    send(bob, alice, now)
    send(bob, alice, now)
    return alice, bob


@pytest.fixture()
def link(keypair_pool):
    return Link(keypair_pool)


class TestResumption:
    def test_reconnect_after_ack_resumes(self, link):
        acked(link)
        alice, bob = link.connect()
        frame = send(alice, bob, 10.0, b"resumed")
        assert frame[:1] == RESUME_FRAME
        assert (alice.stats["keys_established"], alice.stats["keys_resumed"]) == (0, 1)
        assert bob.stats["keys_accepted"] == 1
        # The resumed direction carries on as an ordinary stream.
        assert send(alice, bob, 11.0)[:1] == b"S"

    def test_resume_frame_padded_to_legacy_length(self, link):
        acked(link)
        alice, _ = link.connect()
        frame = alice.encrypt(b"z" * 300, now=1.0)
        assert frame[:1] == RESUME_FRAME
        assert len(frame) == legacy_frame_len(300, 128, 128)  # 1024-bit pool keys

    def test_unacknowledged_key_pays_rsa_again(self, link):
        """A K frame that reached bob but was never acknowledged (bob sent
        only his own key frame back), and one lost on the way: either way
        the reconnect pays RSA, and bob accepts it without complaint."""
        alice, bob = link.connect()
        send(alice, bob, 0.0)
        send(bob, alice, 0.0)  # a K frame: it carries no ack
        alice, bob = link.connect()
        alice.encrypt(b"lost at the link drop", now=5.0)
        alice, bob = link.connect()
        assert send(alice, bob, 10.0)[:1] == b"K"
        assert link.total("alice", "keys_established") == 3
        assert link.total("alice", "keys_resumed") == 0

    def test_n_reconnects_after_one_ack_cost_one_rsa_transport(self, link):
        acked(link)
        for i in range(1, 6):
            alice, bob = link.connect()
            assert send(alice, bob, 60.0 * i)[:1] == RESUME_FRAME
        assert link.total("alice", "keys_established") == 1
        assert link.total("alice", "keys_resumed") == 5
        (held,) = [h for h in link.bob_store.held.values() if h.label == b"alice>bob"]
        assert held.counter == 5

    def test_replayed_resume_frame_rejected_on_the_same_channel(self, link):
        acked(link)
        alice, bob = link.connect()
        frame = send(alice, bob, 10.0)
        with pytest.raises(SessionCryptoError, match="replayed resume frame"):
            bob.decrypt(frame, now=10.0)
        assert send(alice, bob, 11.0)[:1] == b"S"  # the live stream is undisturbed

    def test_replayed_resume_frame_rejected_on_a_new_channel(self, link):
        acked(link)
        alice, bob = link.connect()
        recorded = send(alice, bob, 10.0)
        _, fresh_bob = link.connect()  # a new link; alice has not spoken yet
        with pytest.raises(SessionCryptoError, match="replayed resume frame"):
            fresh_bob.decrypt(recorded, now=20.0)

    def test_tampered_resume_frame_commits_nothing(self, link):
        acked(link)
        alice, bob = link.connect()
        frame = alice.encrypt(b"genuine", now=10.0)
        for position in (1, 33, 41, len(frame) - 1):  # fingerprint, counter, body, MAC
            damaged = bytearray(frame)
            damaged[position] ^= 0x01
            with pytest.raises(SessionCryptoError):
                bob.decrypt(bytes(damaged), now=10.0)
        assert bob.decrypt(frame, now=10.0) == b"genuine"

    def test_resume_frame_from_another_peer_rejected(self, link, keypair_pool):
        """Bob's channel with carol refuses a resume of alice's master,
        even with the key store shared between the two channels."""
        acked(link)
        alice, _ = link.connect()
        frame = alice.encrypt(b"relayed", now=10.0)
        bob_to_carol = SecureChannel(
            "bob", "carol", keypair_pool[1].private, keypair_pool[2].public,
            HmacDrbg.from_int(5), keys=link.bob_store,
        )
        with pytest.raises(SessionCryptoError, match="unknown session key"):
            bob_to_carol.decrypt(frame, now=10.0)

    def test_sender_crash_forgets_the_master_and_pays_rsa(self, link):
        acked(link)
        link.alice_store.sent.clear()  # a crash: alice's RAM is gone
        alice, bob = link.connect()
        assert send(alice, bob, 10.0)[:1] == b"K"
        assert link.total("alice", "keys_resumed") == 0

    def test_in_channel_rekey_stays_rsa(self, keypair_pool):
        link = Link(keypair_pool, rekey_packets=2)
        acked(link)
        alice, bob = link.connect()
        kinds = [send(alice, bob, 10.0)[:1] for _ in range(5)]
        assert kinds == [b"R", b"S", b"K", b"S", b"K"]


class TestExpiry:
    def test_sender_resumes_only_within_the_interval(self, keypair_pool):
        link = Link(keypair_pool, rekey_interval_s=60.0)
        acked(link, now=0.0)
        alice, bob = link.connect()
        assert send(alice, bob, 59.999)[:1] == RESUME_FRAME
        alice, bob = link.connect()
        assert send(alice, bob, 60.0)[:1] == b"K"

    def test_receiver_allows_for_flight_time_then_forgets(self, keypair_pool):
        """A resume the sender judged fresh is accepted long after (the
        receiver keeps a master for two intervals); past that it is
        refused, the master is forgotten and the fingerprint kept, so the
        original key frame still bounces."""
        link = Link(keypair_pool, rekey_interval_s=60.0)
        alice, bob = link.connect()
        key_frame = send(alice, bob, 0.0)
        send(bob, alice, 0.0)
        send(bob, alice, 0.0)
        alice, bob = link.connect()
        in_flight = alice.encrypt(b"slow", now=59.0)
        assert bob.decrypt(in_flight, now=119.9) == b"slow"
        alice, bob = link.connect()
        late = alice.encrypt(b"late", now=59.5)
        with pytest.raises(SessionCryptoError, match="expired session key"):
            bob.decrypt(late, now=120.0)
        (held,) = link.bob_store.held.values()
        assert held.master is None
        with pytest.raises(SessionCryptoError, match="replayed session key frame"):
            bob.decrypt(key_frame, now=121.0)

    def test_bound_evicts_expired_masters_first(self, monkeypatch):
        import repro.crypto.session as session_module

        monkeypatch.setattr(session_module, "SEEN_KEY_LIMIT", 3)
        store = SessionKeyStore()
        for name, expires_at in (("old", 1000.0), ("stale", 50.0), ("new", 1000.0)):
            store.hold(name.encode(), _HeldMaster(b"p>me", b"m" * 32, expires_at), now=0.0)
        store.hold(b"newest", _HeldMaster(b"p>me", b"m" * 32, 1000.0), now=100.0)
        assert list(store.held) == [b"old", b"new", b"newest"]
        # With nothing expired, the oldest goes.
        store.hold(b"latest", _HeldMaster(b"p>me", b"m" * 32, 1000.0), now=100.0)
        assert list(store.held) == [b"new", b"newest", b"latest"]


def _secured_world(ca, keypair_pool):
    world = World(ca, keypair_pool)
    config = SosConfig(relay_request_grace=0.0)
    alice = world.add_user("alice", config=config)
    bob = world.add_user("bob", config=config)
    bob.follow(alice.user_id)
    world.start()
    # Two rounds on one connection: bob's second request acknowledges
    # alice's master and alice's second DATA frame acknowledges bob's.
    alice.post("one")
    world.run(60.0)
    alice.post("two")
    world.run(120.0)
    return world, alice, bob


class TestAdhocResumption:
    def test_reconnects_resume_with_exact_rsa_counts(self, ca, keypair_pool):
        world, alice, bob = _secured_world(ca, keypair_pool)
        for i in range(3):
            world.medium.force_drop("dev-alice", "dev-bob")  # a link flap
            world.run(200.0 + 100.0 * i)
            alice.post(f"after flap {i}")
            world.run(250.0 + 100.0 * i)
        assert {e.post.text for e in bob.timeline()} >= {"after flap 0", "after flap 2"}
        for app in (alice, bob):
            stats = app.sos.security_stats
            assert stats["connections_secured"] == 4
            assert stats["session_keys_established"] == 1
            assert stats["session_keys_resumed"] == 3
            assert stats["session_keys_accepted"] == 4
            assert stats["security_failures"] == 0

    def test_revoked_peer_cannot_resume(self, ca, keypair_pool):
        world, alice, bob = _secured_world(ca, keypair_pool)
        world.medium.force_drop("dev-alice", "dev-bob")
        world.cloud.revoke_user("alice", now=world.sim.now)
        bob.refresh_revocations()
        accepted = bob.sos.security_stats["session_keys_accepted"]
        alice.post("from a revoked author")
        world.run(400.0)
        assert "from a revoked author" not in {e.post.text for e in bob.timeline()}
        assert bob.sos.security_stats["session_keys_accepted"] == accepted
        reasons = {e.data["reason"] for e in world.sim.trace if e.category == "security"}
        assert "peer certificate rejected: revoked" in reasons


class TestStudyCounts:
    def test_smoke_default_resumes_and_keeps_its_sha(self):
        """``smoke_default`` (1 day, 40 posts): resumption moves no byte
        of the trace, so this pin is what notices if it stops working."""
        study = GainesvilleStudy(ScenarioConfig(duration_days=1, total_posts=40))
        stats = study.run().security_stats
        assert stats["session_keys_established"] == 18
        assert stats["session_keys_resumed"] == 14
        assert stats["session_keys_accepted"] == 32
        assert stats["security_failures"] == 0
        assert trace_sha256(study.sim) == SMOKE_DEFAULT_SHA


def _masked(sim):
    """Trace lines with the reason of each security failure masked: a
    corrupted resume frame fails a different check than a corrupted key
    frame, and nothing but the reason text may differ."""
    lines = []
    for event in sim.trace:
        data = dict(event.data)
        if event.category == "security" and event.kind == "failure":
            data["reason"] = "*"
        lines.append(f"{event.time!r}|{event.category}|{event.kind}|{sorted(data.items())!r}")
    return lines


def _faulted_study(monkeypatch, channel, faults, fault_seed):
    monkeypatch.setattr("repro.core.adhoc.SecureChannel", channel)
    study = GainesvilleStudy(
        ScenarioConfig(duration_days=1, total_posts=40, faults=faults, fault_seed=fault_seed)
    )
    stats = study.run().security_stats
    return study, stats


class TestOracleEquivalenceUnderFaults:
    """Crashes, link flaps, frame drops and corruption against the
    non-resuming oracle, at two fault seeds."""

    @pytest.mark.parametrize("fault_seed", [1, 2])
    @pytest.mark.parametrize("corrupt", [False, True], ids=["no-corruption", "corruption"])
    def test_harsh_faults_replay_the_oracle(self, monkeypatch, fault_seed, corrupt):
        faults = "harsh" if corrupt else "harsh,frame_corrupt_prob=0"
        resumed, resumed_stats = _faulted_study(monkeypatch, SecureChannel, faults, fault_seed)
        oracle, oracle_stats = _faulted_study(monkeypatch, NonResumingChannel, faults, fault_seed)
        assert resumed_stats["session_keys_resumed"] > 0
        assert oracle_stats["session_keys_resumed"] == 0
        assert resumed_stats["security_failures"] == oracle_stats["security_failures"] > 0
        if corrupt:
            assert _masked(resumed.sim) == _masked(oracle.sim)
        else:
            assert trace_lines(resumed.sim) == trace_lines(oracle.sim)
