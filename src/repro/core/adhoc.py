"""The ad hoc manager (paper §III-D).

Wraps the Multipeer Connectivity surface and owns everything security:
"viewing discovered peers, establishing D2D connections, encrypting
connections, encrypting data from end-to-end, generating keys, validating
certificates, as well as signing and verifying data sent and received".

Lifecycle of a peer relationship::

    browser found  ->  (routing decides)  ->  invite / accept
        -> session connected -> certificates exchanged & validated
        -> SECURED: encrypted, signed packet exchange
        -> link drops -> peer lost

Security properties enforced here:

* every non-CERT packet is encrypted and peer-authenticated.  Two wire
  modes provide this (``SosConfig.session_crypto``):

  - **session** (default): after the certificate exchange, a per-link
    :class:`~repro.crypto.session.SecureChannel` pays RSA once per
    sending direction and protects every packet with ChaCha20 +
    HMAC-SHA256 under hkdf-derived directional keys (frames ``K``/``S``).
    A reconnect resumes from the master the peer acknowledged holding
    (frame ``R``) and pays no RSA while that master is under an hour
    old; one :class:`~repro.crypto.session.SessionKeyStore` per device
    keeps the masters and the anti-replay record across channels,
  - **legacy** (the reference oracle): every packet is individually
    signed by the sending peer and encrypted end-to-end to the receiving
    peer's public key (hybrid RSA+ChaCha20, frame ``E``).

  Both modes produce byte-identical delivery traces for a fixed seed;
  end-to-end *originator* signatures on forwarded DATA are independent of
  either mode and always verified (paper Fig. 3b),
* a peer whose certificate fails validation is disconnected and ignored
  for :data:`RECONNECT_BACKOFF_S` seconds,
* tampered, replayed or unverifiable payloads are dropped and reported
  upward as security events — they never reach the routing layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, Optional

from repro.core.advertisement import build_advertisement, parse_advertisement
from repro.core.config import SosConfig
from repro.core.errors import SecurityError
from repro.core.wire import PacketKind, SosPacket, WireError
from repro.crypto.drbg import RandomSource
from repro.crypto.rsa import hybrid_decrypt, hybrid_encrypt
from repro.crypto.session import (
    DATA_FRAME,
    KEY_FRAME,
    RESUME_FRAME,
    SecureChannel,
    SessionCryptoError,
    SessionKeyStore,
)
from repro.mpc.advertiser import AdvertiserDelegate, Invitation, ServiceAdvertiser
from repro.mpc.browser import BrowserDelegate, ServiceBrowser
from repro.mpc.errors import MpcError
from repro.mpc.framework import MpcFramework
from repro.mpc.peer import PeerID
from repro.mpc.session import Session, SessionDelegate, SessionState
from repro.pki.keystore import KeyStore
from repro.sim.engine import Simulator
from repro.sim.process import Timer

#: Seconds to wait for the peer's certificate before dropping the session.
CERTIFICATE_EXCHANGE_TIMEOUT_S = 20.0
#: Seconds to ignore a peer after a failed security handshake.
RECONNECT_BACKOFF_S = 300.0
#: Manager stats folded in from each channel's counters.
_CHANNEL_COUNTERS = (
    ("session_keys_established", "keys_established"),
    ("session_keys_resumed", "keys_resumed"),
    ("session_keys_accepted", "keys_accepted"),
)


@dataclass
class _PeerState:
    """Everything the manager tracks about one nearby user."""

    peer: PeerID
    advert: Dict[str, int] = dataclass_field(default_factory=dict)
    secured: bool = False
    cert_sent: bool = False
    cert_timer: Optional[Timer] = None
    #: The per-link secure session (session_crypto mode); created lazily
    #: after the certificate exchange, dropped with the connection.
    channel: Optional[SecureChannel] = None


class AdHocManager(SessionDelegate, BrowserDelegate, AdvertiserDelegate):
    """One app's D2D connectivity + security endpoint."""

    def __init__(
        self,
        sim: Simulator,
        framework: MpcFramework,
        device_id: str,
        user_id: str,
        keystore: KeyStore,
        config: SosConfig,
        rng: RandomSource,
    ) -> None:
        if not keystore.provisioned:
            raise SecurityError("keystore must be provisioned before going on-air")
        self.sim = sim
        self.user_id = user_id
        self.keystore = keystore
        self.config = config
        self._rng = rng
        self.peer_id = PeerID(display_name=user_id, device_id=device_id)
        self.session = Session(framework, self.peer_id, delegate=self, encrypted=True)
        self.advertiser = ServiceAdvertiser(
            framework, self.peer_id, config.service_type, delegate=self
        )
        self.browser = ServiceBrowser(framework, self.peer_id, config.service_type, delegate=self)
        self._peers: Dict[str, _PeerState] = {}
        self._blacklist_until: Dict[str, float] = {}
        #: The session masters this device holds for its peers (the
        #: anti-replay record, bounded by session.SEEN_KEY_LIMIT) and the
        #: ones it established with them, shared across channels so a
        #: reconnect can resume and a recorded handshake or resume frame
        #: cannot be replayed at us after a disconnect/reconnect cycle.
        self._session_keys = SessionKeyStore()
        # Upward callbacks, wired by the message manager.
        self.on_peer_discovered: Callable[[str, Dict[str, int]], None] = lambda u, a: None
        self.on_peer_lost: Callable[[str], None] = lambda u: None
        self.on_peer_secured: Callable[[str], None] = lambda u: None
        self.on_packet: Callable[[SosPacket, str], None] = lambda p, u: None
        self.on_security_event: Callable[[str, str], None] = lambda u, r: None
        self.stats = {
            "packets_sent": 0,
            "packets_received": 0,
            "bytes_sent": 0,
            "security_failures": 0,
            "connections_secured": 0,
            "session_keys_established": 0,
            "session_keys_resumed": 0,
            "session_keys_accepted": 0,
        }

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        self.advertiser.start()
        self.browser.start()

    def stop(self) -> None:
        self.advertiser.stop()
        self.browser.stop()
        self.session.disconnect()

    def crash(self) -> None:
        """Abrupt device loss: volatile peer state dies, durable security
        state survives.

        Peer records, secure channels, certificate-exchange timers and the
        masters this device could resume with are RAM — gone, so the
        first key to each peer after a reboot pays RSA.  The keystore
        (disk), the blacklist and the session masters held for peers —
        each with its fingerprint and highest resume counter — survive,
        which is what lets the manager reject a handshake or resume frame
        recorded before the crash (the security property the chaos tests
        assert)."""
        for state in self._peers.values():
            if state.cert_timer is not None:
                state.cert_timer.cancel()
                state.cert_timer = None
            self._drop_channel(state)
        self._peers.clear()
        self._session_keys.sent.clear()
        self.advertiser.stop()
        self.browser.stop()
        self.session.disconnect()

    # -- advertising -------------------------------------------------------------
    def set_advertisement(self, marks: Dict[str, int]) -> None:
        """Publish the plain-text UserID -> MessageNumber dictionary."""
        self.advertiser.set_discovery_info(build_advertisement(marks))

    # -- nearby users -------------------------------------------------------------
    def surrounding_users(self) -> list:
        return sorted(self._peers)

    def secured_users(self) -> list:
        return sorted(u for u, s in self._peers.items() if s.secured)

    def is_secured(self, user_id: str) -> bool:
        state = self._peers.get(user_id)
        return state is not None and state.secured

    def advert_of(self, user_id: str) -> Dict[str, int]:
        state = self._peers.get(user_id)
        return dict(state.advert) if state else {}

    # -- connection establishment ----------------------------------------------------
    def connect(self, user_id: str) -> bool:
        """Request a D2D connection to a discovered user.

        Returns False when the user is unknown, blacklisted, or already
        connected/connecting.
        """
        state = self._peers.get(user_id)
        if state is None:
            return False
        if self._blacklist_until.get(user_id, 0.0) > self.sim.now:
            return False
        if self.session.state_of(state.peer) is not SessionState.NOT_CONNECTED:
            return False
        self.browser.invite_peer(state.peer, self.session, context=self.user_id.encode())
        return True

    # -- BrowserDelegate ---------------------------------------------------------------
    def browser_found_peer(self, browser: ServiceBrowser, peer: PeerID, info: Dict[str, str]) -> None:
        advert = parse_advertisement(info)
        state = self._peers.get(peer.display_name)
        if state is None:
            state = _PeerState(peer=peer, advert=advert)
            self._peers[peer.display_name] = state
        else:
            state.peer = peer
            state.advert = advert
        self.on_peer_discovered(peer.display_name, dict(advert))

    def browser_lost_peer(self, browser: ServiceBrowser, peer: PeerID) -> None:
        state = self._peers.pop(peer.display_name, None)
        if state is None:
            return
        if state.cert_timer is not None:
            state.cert_timer.cancel()
        self._drop_channel(state)
        self.on_peer_lost(peer.display_name)

    # -- AdvertiserDelegate ----------------------------------------------------------
    def advertiser_received_invitation(
        self, advertiser: ServiceAdvertiser, invitation: Invitation
    ) -> None:
        inviter = invitation.from_peer.display_name
        if self._blacklist_until.get(inviter, 0.0) > self.sim.now:
            invitation.decline()
            return
        invitation.accept(self.session)

    # -- SessionDelegate --------------------------------------------------------------
    def session_peer_connected(self, session: Session, peer: PeerID) -> None:
        user_id = peer.display_name
        state = self._peers.get(user_id)
        if state is None:
            # Connected to a peer we never browsed (they invited us while
            # our own found-callback is still in flight): track it anyway.
            state = _PeerState(peer=peer)
            self._peers[user_id] = state
        self._send_own_certificate(state)
        state.cert_timer = Timer(
            self.sim, lambda: self._cert_timeout(user_id), name=f"cert-timeout:{user_id}"
        )
        state.cert_timer.start(CERTIFICATE_EXCHANGE_TIMEOUT_S)

    def session_peer_disconnected(self, session: Session, peer: PeerID) -> None:
        user_id = peer.display_name
        state = self._peers.get(user_id)
        if state is not None:
            if state.cert_timer is not None:
                state.cert_timer.cancel()
                state.cert_timer = None
            was_secured = state.secured
            state.secured = False
            state.cert_sent = False
            self._drop_channel(state)
            if was_secured:
                self.on_peer_lost(user_id)

    def session_received_data(self, session: Session, data: bytes, from_peer: PeerID) -> None:
        try:
            self._handle_frame(data, from_peer)
        except SecurityError as exc:
            self._security_failure(from_peer.display_name, str(exc))
        except WireError as exc:
            self._security_failure(from_peer.display_name, f"malformed frame: {exc}")

    # -- certificate exchange ------------------------------------------------------------
    def _send_own_certificate(self, state: _PeerState) -> None:
        if state.cert_sent:
            return
        packet = SosPacket.cert(self.user_id, self.keystore.own_certificate.encode())
        self._send_plain(state.peer, packet)
        state.cert_sent = True

    def _cert_timeout(self, user_id: str) -> None:
        state = self._peers.get(user_id)
        if state is not None and not state.secured:
            self._security_failure(user_id, "certificate exchange timed out")

    def _handle_certificate(self, packet: SosPacket, from_user: str) -> None:
        from repro.pki.certificate import Certificate, CertificateError

        try:
            certificate = Certificate.decode(packet.fields["certificate"])
        except CertificateError as exc:
            raise SecurityError(f"undecodable certificate: {exc}") from exc
        if packet.fields.get("forwarded"):
            # A forwarded originator certificate (Fig. 3b): validate and
            # cache, but it does not secure the *link*.
            result = self.keystore.validate_and_cache(certificate, self.sim.now)
            if not result.ok:
                raise SecurityError(f"forwarded certificate rejected: {result.value}")
            return
        result = self.keystore.validate_and_cache(
            certificate, self.sim.now, expected_user_id=from_user
        )
        if not result.ok:
            raise SecurityError(f"peer certificate rejected: {result.value}")
        state = self._peers.get(from_user)
        if state is None:
            return
        if state.cert_timer is not None:
            state.cert_timer.cancel()
            state.cert_timer = None
        if not state.secured:
            state.secured = True
            self.stats["connections_secured"] += 1
            self._send_own_certificate(state)  # no-op when already sent
            self.on_peer_secured(from_user)

    # -- packet transport -----------------------------------------------------------------
    def send_packet(
        self,
        user_id: str,
        packet: SosPacket,
        on_complete: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Encrypt, authenticate and send a packet to a *secured* peer."""
        state = self._peers.get(user_id)
        if state is None or not state.secured:
            raise SecurityError(f"peer {user_id!r} is not secured")
        plaintext = packet.encode()
        if self.config.require_encryption:
            if self.config.session_crypto:
                frame = self._channel_for(state).encrypt(plaintext, self.sim.now)
            else:
                peer_cert = self.keystore.peer_certificate(user_id)
                if peer_cert is None:
                    raise SecurityError(f"no cached certificate for {user_id!r}")
                signature = self.keystore.private_key.sign(plaintext)
                framed = (
                    len(plaintext).to_bytes(4, "big") + plaintext + signature
                )
                envelope = hybrid_encrypt(
                    peer_cert.public_key, framed, rng=self._rng, aad=self.user_id.encode()
                )
                frame = b"E" + envelope
        else:
            frame = b"P" + plaintext
        self._transmit(state.peer, frame, on_complete)

    def _channel_for(self, state: _PeerState) -> SecureChannel:
        """The peer's secure session, created on first use after the
        certificate exchange cached its public key."""
        if state.channel is None:
            user_id = state.peer.display_name
            peer_cert = self.keystore.peer_certificate(user_id)
            if peer_cert is None:
                raise SecurityError(f"no cached certificate for {user_id!r}")
            state.channel = SecureChannel(
                local_user=self.user_id,
                peer_user=user_id,
                private_key=self.keystore.private_key,
                peer_public_key=peer_cert.public_key,
                rng=self._rng,
                keys=self._session_keys,
            )
        return state.channel

    def _drop_channel(self, state: _PeerState) -> None:
        """Tear down the secure session with the connection; the stats it
        accumulated survive in the manager's counters."""
        if state.channel is not None:
            for ours, its in _CHANNEL_COUNTERS:
                self.stats[ours] += state.channel.stats[its]
            state.channel = None

    def _send_plain(self, peer: PeerID, packet: SosPacket) -> None:
        self._transmit(peer, b"P" + packet.encode(), None)

    def _transmit(
        self, peer: PeerID, frame: bytes, on_complete: Optional[Callable[[bool], None]]
    ) -> None:
        try:
            self.session.send(frame, peer, on_complete=on_complete)
            self.stats["packets_sent"] += 1
            self.stats["bytes_sent"] += len(frame)
        except MpcError:
            if on_complete is not None:
                on_complete(False)

    def _handle_frame(self, data: bytes, from_peer: PeerID) -> None:
        if not data:
            raise WireError("empty frame")
        from_user = from_peer.display_name
        marker, rest = data[:1], data[1:]
        if marker == b"P":
            packet = SosPacket.decode(rest)
            if packet.kind is not PacketKind.CERT:
                if self.config.require_encryption:
                    raise SecurityError("plaintext payload with encryption required")
        elif marker in (KEY_FRAME, DATA_FRAME, RESUME_FRAME):
            if not self.config.session_crypto:
                raise SecurityError("session frame but session crypto is disabled")
            state = self._peers.get(from_user)
            if state is None or not state.secured:
                raise SecurityError(f"payload from unsecured peer {from_user!r}")
            try:
                plaintext = self._channel_for(state).decrypt(data, self.sim.now)
            except SessionCryptoError as exc:
                raise SecurityError(f"session decryption failed: {exc}") from exc
            packet = SosPacket.decode(plaintext)
        elif marker == b"E":
            if self.config.session_crypto:
                raise SecurityError("per-packet envelope but session crypto is enabled")
            try:
                framed = hybrid_decrypt(
                    self.keystore.private_key, rest, aad=from_user.encode()
                )
            except ValueError as exc:
                raise SecurityError(f"decryption failed: {exc}") from exc
            if len(framed) < 4:
                raise WireError("short decrypted frame")
            plain_len = int.from_bytes(framed[:4], "big")
            plaintext = framed[4 : 4 + plain_len]
            signature = framed[4 + plain_len :]
            peer_cert = self.keystore.peer_certificate(from_user)
            if peer_cert is None:
                raise SecurityError(f"payload before certificate from {from_user!r}")
            if not peer_cert.public_key.verify(plaintext, signature):
                raise SecurityError(f"bad payload signature from {from_user!r}")
            packet = SosPacket.decode(plaintext)
        else:
            raise WireError(f"unknown frame marker {marker!r}")

        if packet.sender != from_user:
            raise SecurityError(
                f"sender claims {packet.sender!r} but session peer is {from_user!r}"
            )
        self.stats["packets_received"] += 1
        if packet.kind is PacketKind.CERT:
            self._handle_certificate(packet, from_user)
        else:
            state = self._peers.get(from_user)
            if state is None or not state.secured:
                raise SecurityError(f"payload from unsecured peer {from_user!r}")
            self.on_packet(packet, from_user)

    def stats_snapshot(self) -> Dict[str, int]:
        """The stats dict with live channels' key counters folded in
        (``stats`` itself only accumulates torn-down channels)."""
        out = dict(self.stats)
        for state in self._peers.values():
            if state.channel is not None:
                for ours, its in _CHANNEL_COUNTERS:
                    out[ours] += state.channel.stats[its]
        return out

    # -- failures ------------------------------------------------------------------------
    def _security_failure(self, user_id: str, reason: str) -> None:
        self.stats["security_failures"] += 1
        self._blacklist_until[user_id] = self.sim.now + RECONNECT_BACKOFF_S
        state = self._peers.get(user_id)
        if state is not None:
            state.secured = False
            self._drop_channel(state)
            if state.cert_timer is not None:
                state.cert_timer.cancel()
                state.cert_timer = None
            if self.session.state_of(state.peer) is not SessionState.NOT_CONNECTED:
                self.session.framework.session_disconnect_all_with(self.session, state.peer)
        self.sim.trace.emit(
            self.sim.now, "security", "failure", user=self.user_id, peer=user_id, reason=reason
        )
        self.on_security_event(user_id, reason)
