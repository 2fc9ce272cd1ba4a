"""Per-link secure sessions: RSA once per link, symmetric crypto per packet.

The paper's packet pipeline (§III-D) encrypts every packet end-to-end to
the peer's RSA public key and signs it with the sender's RSA private key.
Cryptographically that is sound but computationally it is how no real
secure-messaging stack works: asymmetric operations cost milliseconds,
symmetric ones cost microseconds, so production protocols (TLS, Noise,
Signal) pay RSA/DH **once per session** and protect the packet stream
with derived symmetric keys.  This module brings the reproduction in
line: a :class:`SecureChannel` per secured link performs one RSA key
transport + one RSA signature per *sending direction* (and per rekey),
after which every packet costs two HMACs and a ChaCha20 pass.

Protocol
--------

Each direction of a channel is keyed independently.  The first packet a
side sends (and the first after every rekey) travels in a **key frame**::

    "K" | u16 wrap_len | RSA-OAEP(master) | u16 sig_len | sig
        | u64 seq | u32 ct_len | ct | zero padding | mac(32)

``master`` is a fresh 32-byte secret wrapped to the receiver's public key
— the same key-transport step :func:`repro.crypto.rsa.hybrid_encrypt`
performs per packet, amortised to once per direction.  ``sig`` is the
sender's RSA signature over the wrapped master bound to the direction
label (``"<sender>><receiver>"``), so only the certificate holder can
establish keys in its name.  Both sides derive, per direction::

    enc   = HKDF(master, info="sos-session-enc|"   + label)
    mac   = HKDF(master, info="sos-session-mac|"   + label)
    nonce = HKDF(master, info="sos-session-nonce|" + label)[:12]

Every subsequent packet travels in a **data frame**::

    "S" | u64 seq | u32 ct_len | ct | zero padding | mac(32)

The payload stream is one continuous ChaCha20 keystream (counter-based,
per RFC 7539); ``seq`` counts frames under the current key and is the
anti-replay counter: the MPC transport is reliable-FIFO within a
connection, so a frame whose sequence number differs from the receiver's
frame count is a replay, a reorder, or an injection, and is rejected
(counting frames rather than stream bytes means even an empty-payload
frame cannot be replayed).  The MAC is encrypt-then-MAC over the
direction label, sequence number, ciphertext and padding (everything
after the key header).
Rekeying (time- or volume-triggered, see :class:`SecureChannel`) simply
establishes a fresh master on the next send; replayed key frames are
rejected by fingerprint against a set the caller can persist across
reconnects (the ad hoc manager does), so a recorded handshake cannot be
replayed into a fresh channel after a link drop.  A key frame's new key
is only committed once the frame's own MAC has verified — a tampered key
frame never disturbs the current receive stream.

Peer authenticity per packet comes from the session MAC (only the two
certificate holders know the master).  End-to-end *originator*
signatures on forwarded DATA messages (paper Fig. 3b) are unaffected —
they live inside the packet payload and are still RSA-verified against
the author's certificate at every receiving node.

Padding
-------

Frames are zero-padded to the exact length the legacy per-packet hybrid
envelope would have produced for the same plaintext
(:func:`legacy_frame_len`).  The optimisation targets CPU cost, not the
simulated radio model: padding keeps transfer durations — and therefore
the full delivery/delay trace of any fixed-seed scenario — byte-identical
between the two crypto modes, which is what lets the legacy path serve
as the reference oracle.

Example
-------

Two endpoints, each holding its own private key and the peer's public
key (learned from the certificate exchange), exchanging one packet per
direction (1024-bit simulation keys)::

    >>> from repro.crypto.drbg import HmacDrbg
    >>> from repro.crypto.rsa import generate_keypair
    >>> alice_keys = generate_keypair(1024, rng=HmacDrbg.from_int(41))
    >>> bob_keys = generate_keypair(1024, rng=HmacDrbg.from_int(42))
    >>> alice = SecureChannel("alice", "bob", alice_keys.private,
    ...                       bob_keys.public, rng=HmacDrbg.from_int(7))
    >>> bob = SecureChannel("bob", "alice", bob_keys.private,
    ...                     alice_keys.public, rng=HmacDrbg.from_int(8))
    >>> frame = alice.encrypt(b"over the top", now=0.0)   # K frame: pays RSA
    >>> frame[:1] == KEY_FRAME
    True
    >>> bob.decrypt(frame, now=0.0)
    b'over the top'
    >>> alice.encrypt(b"again", now=1.0)[:1] == DATA_FRAME  # symmetric only
    True
    >>> bob.decrypt(frame, now=1.0)    # replaying the key frame is rejected
    Traceback (most recent call last):
        ...
    repro.crypto.session.SessionCryptoError: replayed session key frame
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.crypto.chacha import ChaCha20
from repro.crypto.drbg import RandomSource
from repro.crypto.hashes import constant_time_equal, hmac_sha256, sha256
from repro.crypto.kdf import hkdf
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, hybrid_envelope_len

KEY_FRAME = b"K"
DATA_FRAME = b"S"

_MAC_SIZE = 32
_MASTER_SIZE = 32

#: Establish a fresh master after this much wall-clock time on a key...
DEFAULT_REKEY_INTERVAL_S = 3600.0
#: ...or after this many packets, whichever comes first.
DEFAULT_REKEY_PACKETS = 4096

#: Keystream read-ahead per refill (128 blocks = 8 KiB).  It sets the
#: chunk size of the numpy kernel, whose cost is nearly flat in block
#: count, so the fixed cost is paid once per chunk; most keystreams need
#: only one chunk for their whole life.
_PREFETCH_BLOCKS = 128

#: Accepted-key fingerprints remembered for anti-replay (oldest evicted
#: beyond this): bounds the store over arbitrarily long runs while still
#: covering thousands of rekeys/reconnects of replay horizon.
SEEN_KEY_LIMIT = 4096


class SessionCryptoError(ValueError):
    """Tampered, replayed, reordered or otherwise invalid session frame."""


def legacy_frame_len(plaintext_len: int, peer_key_bytes: int, own_key_bytes: int) -> int:
    """Wire length of the legacy per-packet frame for ``plaintext_len``
    payload bytes: ``"E" + SOSE envelope`` wrapping ``len | plaintext |
    signature``.  Session frames are padded to this length so both crypto
    modes drive the simulated radio identically."""
    framed_len = 4 + plaintext_len + own_key_bytes  # len | plaintext | sig
    return 1 + hybrid_envelope_len(framed_len, peer_key_bytes)


def _direction_label(sender: str, receiver: str) -> bytes:
    return sender.encode() + b">" + receiver.encode()


def _signed_key_bytes(label: bytes, wrapped: bytes) -> bytes:
    return b"sos-session-key|" + label + b"|" + wrapped


class _DirectionState:
    """One half of a channel: a key, its cipher stream, and bookkeeping."""

    __slots__ = ("cipher", "mac_key", "established_at", "packets", "header")

    def __init__(self, master: bytes, label: bytes, established_at: float) -> None:
        enc_key = hkdf(master, info=b"sos-session-enc|" + label)
        nonce = hkdf(master, info=b"sos-session-nonce|" + label, length=ChaCha20.NONCE_SIZE)
        self.cipher = ChaCha20(enc_key, nonce)
        self.cipher.prefetch_blocks = _PREFETCH_BLOCKS
        self.mac_key = hkdf(master, info=b"sos-session-mac|" + label)
        self.established_at = established_at
        self.packets = 0
        self.header: Optional[bytes] = None  # pending K-frame header (send side)


class SecureChannel:
    """The secure-session endpoint for one local/peer user pair.

    One instance lives on each side of a secured link (created after the
    certificate exchange validated the peer, dropped with the link).  The
    two instances never talk out-of-band: all key material travels inside
    the ``K`` frames, so the channel works over the existing one-frame
    transport without extra round trips — and without perturbing the
    transfer schedule the legacy mode produces.
    """

    def __init__(
        self,
        local_user: str,
        peer_user: str,
        private_key: RsaPrivateKey,
        peer_public_key: RsaPublicKey,
        rng: RandomSource,
        rekey_interval_s: float = DEFAULT_REKEY_INTERVAL_S,
        rekey_packets: int = DEFAULT_REKEY_PACKETS,
        seen_key_fingerprints: Optional["OrderedDict[bytes, None]"] = None,
    ) -> None:
        if rekey_interval_s <= 0:
            raise ValueError(f"rekey interval must be positive, got {rekey_interval_s}")
        if rekey_packets < 1:
            raise ValueError(f"rekey packet budget must be >= 1, got {rekey_packets}")
        self.local_user = local_user
        self.peer_user = peer_user
        self._private_key = private_key
        self._peer_public_key = peer_public_key
        self._rng = rng
        self.rekey_interval_s = rekey_interval_s
        self.rekey_packets = rekey_packets
        self._send_label = _direction_label(local_user, peer_user)
        self._recv_label = _direction_label(peer_user, local_user)
        self._send: Optional[_DirectionState] = None
        self._recv: Optional[_DirectionState] = None
        #: Fingerprints of masters already accepted (insertion-ordered,
        #: oldest evicted at SEEN_KEY_LIMIT) — replaying an old key frame
        #: must not rewind the receive stream.  Pass a store that outlives
        #: the channel (the ad hoc manager shares one across all of a
        #: peer's reconnects) so a recorded handshake cannot be replayed
        #: into a *fresh* channel after a link drop either.
        self._seen_wrapped: "OrderedDict[bytes, None]" = (
            seen_key_fingerprints if seen_key_fingerprints is not None else OrderedDict()
        )
        self.stats = {
            "keys_established": 0,
            "keys_accepted": 0,
            "frames_sent": 0,
            "frames_received": 0,
        }

    # -- sending ---------------------------------------------------------------
    def _needs_rekey(self, send: _DirectionState, now: float) -> bool:
        return (
            now - send.established_at >= self.rekey_interval_s
            or send.packets >= self.rekey_packets
        )

    def _establish_send(self, now: float) -> _DirectionState:
        master = self._rng.read(_MASTER_SIZE)
        wrapped = self._peer_public_key.encrypt(master, rng=self._rng)
        signature = self._private_key.sign(_signed_key_bytes(self._send_label, wrapped))
        state = _DirectionState(master, self._send_label, established_at=now)
        state.header = (
            len(wrapped).to_bytes(2, "big")
            + wrapped
            + len(signature).to_bytes(2, "big")
            + signature
        )
        self._send = state
        self.stats["keys_established"] += 1
        return state

    def encrypt(self, plaintext: bytes, now: float) -> bytes:
        """Produce the session frame carrying ``plaintext``.

        The first call (and the first after a rekey trigger) pays the
        per-direction RSA establishment and emits a key frame; every
        other call is purely symmetric.

        Args:
            plaintext: The packet bytes to protect.
            now: Current time (drives the time-based rekey budget and
                stamps the key's establishment time).

        Returns:
            The wire frame — a ``K`` (key) or ``S`` (data) frame padded
            to the legacy envelope length for this plaintext, ready for
            the one-frame MPC transport.
        """
        send = self._send
        if send is None or self._needs_rekey(send, now):
            send = self._establish_send(now)
        seq = send.packets
        ciphertext = send.cipher.crypt(plaintext)
        send.packets += 1
        if send.header is not None:
            head = KEY_FRAME + send.header
            send.header = None
        else:
            head = DATA_FRAME
        body = seq.to_bytes(8, "big") + len(ciphertext).to_bytes(4, "big") + ciphertext
        target = legacy_frame_len(
            len(plaintext), self._peer_public_key.byte_size, self._private_key.byte_size
        )
        body += b"\x00" * max(0, target - len(head) - len(body) - _MAC_SIZE)
        mac = hmac_sha256(send.mac_key, self._send_label + body)
        self.stats["frames_sent"] += 1
        return head + body + mac

    # -- receiving -------------------------------------------------------------
    def _open_key_frame_header(
        self, frame: bytes, now: float
    ) -> Tuple[_DirectionState, bytes, int]:
        """Unwrap the peer's fresh receive key.  Returns the candidate
        state, its fingerprint and the offset where the frame body starts
        — nothing is installed until the frame MAC has verified, so a
        tampered key frame cannot disturb the current receive stream."""
        if len(frame) < 3:
            raise SessionCryptoError("truncated key frame")
        wrap_len = int.from_bytes(frame[1:3], "big")
        at = 3 + wrap_len
        if len(frame) < at + 2:
            raise SessionCryptoError("truncated key frame")
        wrapped = frame[3:at]
        sig_len = int.from_bytes(frame[at : at + 2], "big")
        signature = frame[at + 2 : at + 2 + sig_len]
        if len(signature) != sig_len:
            raise SessionCryptoError("truncated key frame")
        fingerprint = sha256(wrapped)
        if fingerprint in self._seen_wrapped:
            raise SessionCryptoError("replayed session key frame")
        if not self._peer_public_key.verify(
            _signed_key_bytes(self._recv_label, wrapped), signature
        ):
            raise SessionCryptoError(f"session key not signed by {self.peer_user!r}")
        try:
            master = self._private_key.decrypt(wrapped)
        except ValueError as exc:
            raise SessionCryptoError(f"session key unwrap failed: {exc}") from exc
        if len(master) != _MASTER_SIZE:
            raise SessionCryptoError("session key has wrong size")
        candidate = _DirectionState(master, self._recv_label, established_at=now)
        return candidate, fingerprint, at + 2 + sig_len

    def decrypt(self, frame: bytes, now: float) -> bytes:
        """Authenticate and open one session frame.

        Args:
            frame: One wire frame as produced by the peer's
                :meth:`encrypt` (key or data frame).
            now: Current time (stamps a freshly accepted key).

        Returns:
            The frame's plaintext packet bytes.

        Raises:
            SessionCryptoError: On any tampering, truncation, replay,
                reorder, unknown marker, or a data frame arriving before
                any key was established.
        """
        if not frame:
            raise SessionCryptoError("empty session frame")
        marker = frame[:1]
        fingerprint: Optional[bytes] = None
        if marker == KEY_FRAME:
            recv, fingerprint, body_at = self._open_key_frame_header(frame, now)
        elif marker == DATA_FRAME:
            if self._recv is None:
                raise SessionCryptoError("data frame before session key")
            recv = self._recv
            body_at = 1
        else:
            raise SessionCryptoError(f"unknown session frame marker {marker!r}")
        if len(frame) < body_at + 12 + _MAC_SIZE:
            raise SessionCryptoError("truncated session frame")
        mac = frame[-_MAC_SIZE:]
        expected = hmac_sha256(
            recv.mac_key, self._recv_label + frame[body_at:-_MAC_SIZE]
        )
        if not constant_time_equal(mac, expected):
            raise SessionCryptoError("session frame authentication failed")
        seq = int.from_bytes(frame[body_at : body_at + 8], "big")
        ct_len = int.from_bytes(frame[body_at + 8 : body_at + 12], "big")
        ct_end = body_at + 12 + ct_len
        if ct_end > len(frame) - _MAC_SIZE:
            raise SessionCryptoError("truncated session frame")
        ciphertext = frame[body_at + 12 : ct_end]
        if seq != recv.packets:
            raise SessionCryptoError(
                f"replayed or reordered session frame (seq {seq}, "
                f"expected {recv.packets})"
            )
        plaintext = recv.cipher.crypt(ciphertext)
        recv.packets += 1
        if fingerprint is not None:
            # Fully authenticated key frame: commit the new receive key.
            self._seen_wrapped[fingerprint] = None
            while len(self._seen_wrapped) > SEEN_KEY_LIMIT:
                self._seen_wrapped.popitem(last=False)
            self._recv = recv
            self.stats["keys_accepted"] += 1
        self.stats["frames_received"] += 1
        return plaintext
