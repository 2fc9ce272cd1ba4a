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
after which every packet costs two HMACs and a ChaCha20 pass.  A
reconnect within the key's lifetime resumes from the master the peer
already holds and pays no RSA at all.

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
establish keys in its name.  The master's **fingerprint** is the SHA-256
of its wrapped form.  Both sides derive, per direction::

    enc   = HKDF(key, info="sos-session-enc|"   + label)
    mac   = HKDF(key, info="sos-session-mac|"   + label)
    nonce = HKDF(key, info="sos-session-nonce|" + label)[:12]

where ``key`` is the master itself after a key frame.  Every subsequent
packet travels in a **data frame**::

    "S" | u64 seq | u32 ct_len | ct | ack | zero padding | mac(32)

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
rejected by fingerprint against a :class:`SessionKeyStore` the caller can
keep across reconnects (the ad hoc manager does), so a recorded handshake
cannot be replayed into a fresh channel after a link drop.  A key frame's
new key is only committed once the frame's own MAC has verified — a
tampered key frame never disturbs the current receive stream.

**Acknowledgement.**  ``ack`` is the fingerprint of the master the
frame's sender currently *receives* under: it tells the peer "I hold
your master".  It sits at the start of the zero padding, so the MAC
covers it and the frame length does not change; it is all zeros before
any key arrived and left out when the padding has no room, as in key
frames (their padding is 6 bytes).

**Resumption** (RFC 8446 §2.2, RFC 5077).  The first key of a *new*
channel does not pay RSA when the sender's latest master for this peer
is acknowledged and younger than the rekey interval.  The sender then
bumps that master's counter and sends a **resume frame**::

    "R" | fingerprint(32) | u64 counter
        | u64 seq | u32 ct_len | ct | ack | zero padding | mac(32)

and both sides key the direction with
``key = HKDF(master, info="sos-session-resume|" + label + "|" + counter)``
(RFC 5869), so the header is bound by the key it selects.  The receiver
accepts a counter only above the highest it has seen for that master,
and commits it only after the frame's MAC verified.  Its records
(fingerprint → master, highest counter) outlive channels and crashes,
so a recorded resume frame bounces on the same channel, on a new channel
and after a reboot; the sender's resumable master is RAM, so a rebooted
sender pays RSA again and never reuses a counter.  A master resumes for
one rekey interval after its RSA establishment; the receiver keeps it
for two, so a frame the sender judged fresh is never refused for the
time it spent in flight.  After that the receiver forgets the master but
keeps its fingerprint, so the old key frame still bounces.  Rekeys
inside a live channel always pay RSA.

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
to the per-packet pipeline's (:class:`repro.core.adhoc.PerPacketChannel`),
which is what lets that pipeline serve as the reference oracle.  Resume
frames and acks live inside that padding too, so resumption moves no
trace either.

Example
-------

Two endpoints, each holding its own private key and the peer's public
key (learned from the certificate exchange), exchanging one packet per
direction (1024-bit simulation keys)::

    >>> from repro.crypto.drbg import HmacDrbg
    >>> from repro.crypto.rsa import generate_keypair
    >>> alice_keys = generate_keypair(1024, rng=HmacDrbg.from_int(41))
    >>> bob_keys = generate_keypair(1024, rng=HmacDrbg.from_int(42))
    >>> alice_store, bob_store = SessionKeyStore(), SessionKeyStore()
    >>> def connect():
    ...     alice = SecureChannel("alice", "bob", alice_keys.private,
    ...                           bob_keys.public, rng=HmacDrbg.from_int(7),
    ...                           keys=alice_store)
    ...     bob = SecureChannel("bob", "alice", bob_keys.private,
    ...                         alice_keys.public, rng=HmacDrbg.from_int(8),
    ...                         keys=bob_store)
    ...     return alice, bob
    >>> alice, bob = connect()
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
    >>> replies = [bob.encrypt(b"hi", now=2.0), bob.encrypt(b"ho", now=2.0)]
    >>> [alice.decrypt(f, now=2.0) for f in replies]  # the S frame acks alice's master
    [b'hi', b'ho']

The link drops and comes back within the hour: the new channel resumes
from the acknowledged master instead of paying RSA again::

    >>> alice, bob = connect()
    >>> resumed = alice.encrypt(b"back again", now=600.0)
    >>> resumed[:1] == RESUME_FRAME, alice.stats["keys_resumed"]
    (True, 1)
    >>> bob.decrypt(resumed, now=600.0)
    b'back again'
    >>> bob.decrypt(resumed, now=601.0)  # ...and it cannot be replayed
    Traceback (most recent call last):
        ...
    repro.crypto.session.SessionCryptoError: replayed resume frame (counter 1, seen 1)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.chacha import ChaCha20
from repro.crypto.drbg import RandomSource
from repro.crypto.hashes import constant_time_equal, hmac_sha256, sha256
from repro.crypto.kdf import hkdf
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, hybrid_envelope_len

KEY_FRAME = b"K"
DATA_FRAME = b"S"
RESUME_FRAME = b"R"

_MAC_SIZE = 32
_MASTER_SIZE = 32
#: The smallest RSA modulus, in bytes, that can wrap a master: OAEP with
#: SHA-256 carries at most k - 66 bytes of a k-byte modulus.
MIN_WRAPPING_KEY_BYTES = _MASTER_SIZE + 2 * 32 + 2
#: A master's fingerprint (SHA-256 of its wrapped form); also the ack size.
_FINGERPRINT_SIZE = 32
#: ``"R" | fingerprint | u64 counter``.
_RESUME_HEADER_SIZE = 1 + _FINGERPRINT_SIZE + 8

#: Establish a fresh master after this much wall-clock time on a key...
DEFAULT_REKEY_INTERVAL_S = 3600.0
#: ...or after this many packets, whichever comes first.
DEFAULT_REKEY_PACKETS = 4096

#: Keystream read-ahead per refill (128 blocks = 8 KiB).  It sets the
#: chunk size of the numpy kernel, whose cost is nearly flat in block
#: count, so the fixed cost is paid once per chunk; most keystreams need
#: only one chunk for their whole life.
_PREFETCH_BLOCKS = 128

#: Accepted masters remembered for anti-replay (beyond this, expired ones
#: are evicted first, then the oldest): bounds the store over arbitrarily
#: long runs while still covering thousands of rekeys/reconnects of
#: replay horizon.
SEEN_KEY_LIMIT = 4096


class SessionCryptoError(ValueError):
    """Tampered, replayed, reordered or otherwise invalid session frame."""


def legacy_frame_len(plaintext_len: int, peer_key_bytes: int, own_key_bytes: int) -> int:
    """Wire length of the legacy per-packet frame for ``plaintext_len``
    payload bytes: ``"E" + SOSE envelope`` wrapping ``len | plaintext |
    signature``.  Session frames are padded to this length so both
    channels drive the simulated radio identically."""
    framed_len = 4 + plaintext_len + own_key_bytes  # len | plaintext | sig
    return 1 + hybrid_envelope_len(framed_len, peer_key_bytes)


def _direction_label(sender: str, receiver: str) -> bytes:
    return sender.encode() + b">" + receiver.encode()


def _signed_key_bytes(label: bytes, wrapped: bytes) -> bytes:
    return b"sos-session-key|" + label + b"|" + wrapped


def _resumed_key(master: bytes, label: bytes, counter: int) -> bytes:
    return hkdf(master, info=b"sos-session-resume|" + label + b"|" + counter.to_bytes(8, "big"))


class _DirectionState:
    """One half of a channel: a key, its cipher stream, and bookkeeping."""

    __slots__ = ("cipher", "mac_key", "established_at", "packets", "header", "fingerprint")

    def __init__(
        self, key: bytes, label: bytes, established_at: float, fingerprint: bytes
    ) -> None:
        enc_key = hkdf(key, info=b"sos-session-enc|" + label)
        nonce = hkdf(key, info=b"sos-session-nonce|" + label, length=ChaCha20.NONCE_SIZE)
        self.cipher = ChaCha20(enc_key, nonce)
        self.cipher.prefetch_blocks = _PREFETCH_BLOCKS
        self.mac_key = hkdf(key, info=b"sos-session-mac|" + label)
        self.established_at = established_at
        self.packets = 0
        self.header: Optional[bytes] = None  # pending K/R-frame header (send side)
        #: The master this key derives from (what a receiver acknowledges).
        self.fingerprint = fingerprint


class _HeldMaster:
    """A peer's master as its receiver keeps it: durable."""

    __slots__ = ("label", "master", "expires_at", "counter")

    def __init__(self, label: bytes, master: bytes, expires_at: float) -> None:
        self.label = label
        #: None once expired: the fingerprint still bounces old key frames.
        self.master: Optional[bytes] = master
        self.expires_at = expires_at
        #: Highest resume counter accepted (the RSA establishment is 0).
        self.counter = 0


class _SentMaster:
    """The latest master a sender established with one peer: RAM only."""

    __slots__ = ("fingerprint", "master", "established_at", "counter", "acked")

    def __init__(self, fingerprint: bytes, master: bytes, established_at: float) -> None:
        self.fingerprint = fingerprint
        self.master = master
        self.established_at = established_at
        self.counter = 0
        self.acked = False


class SessionKeyStore:
    """One device's session-key records, shared by all its channels.

    ``held`` maps the fingerprint of every master a peer established with
    this device to the master and its highest resume counter; it is the
    anti-replay record and survives crashes.  ``sent`` maps each direction
    label to the latest master this device established on it, resumable
    once the peer acknowledged it; it is RAM, cleared on a crash.
    """

    def __init__(self) -> None:
        self.held: "OrderedDict[bytes, _HeldMaster]" = OrderedDict()
        self.sent: Dict[bytes, _SentMaster] = {}

    def hold(self, fingerprint: bytes, record: _HeldMaster, now: float) -> None:
        """Record an accepted master; beyond ``SEEN_KEY_LIMIT`` evict an
        expired one, or else the oldest."""
        self.held[fingerprint] = record
        while len(self.held) > SEEN_KEY_LIMIT:
            expired = next(
                (fp for fp, h in self.held.items() if h.master is None or now >= h.expires_at),
                None,
            )
            if expired is None:
                self.held.popitem(last=False)
            else:
                del self.held[expired]


class SecureChannel:
    """The secure-session endpoint for one local/peer user pair.

    One instance lives on each side of a secured link (created after the
    certificate exchange validated the peer, dropped with the link).  The
    two instances never talk out-of-band: all key material travels inside
    the ``K`` and ``R`` frames, so the channel works over the existing
    one-frame transport without extra round trips — and without
    perturbing the transfer schedule the per-packet pipeline produces.
    Pass a ``keys`` store that outlives the channel (the ad hoc manager
    keeps one per device) to reject replays across reconnects and to
    resume.
    """

    #: The frame markers :meth:`decrypt` opens; the ad hoc manager hands
    #: a channel every frame that starts with one of them.
    MARKERS = (KEY_FRAME, DATA_FRAME, RESUME_FRAME)

    def __init__(
        self,
        local_user: str,
        peer_user: str,
        private_key: RsaPrivateKey,
        peer_public_key: RsaPublicKey,
        rng: RandomSource,
        rekey_interval_s: float = DEFAULT_REKEY_INTERVAL_S,
        rekey_packets: int = DEFAULT_REKEY_PACKETS,
        keys: Optional[SessionKeyStore] = None,
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
        self.keys = keys if keys is not None else SessionKeyStore()
        self.stats = {
            "keys_established": 0,
            "keys_resumed": 0,
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
        fingerprint = sha256(wrapped)
        self.keys.sent[self._send_label] = _SentMaster(fingerprint, master, now)
        state = _DirectionState(master, self._send_label, now, fingerprint)
        state.header = (
            KEY_FRAME
            + len(wrapped).to_bytes(2, "big")
            + wrapped
            + len(signature).to_bytes(2, "big")
            + signature
        )
        self._send = state
        self.stats["keys_established"] += 1
        return state

    def _resume_send(self, now: float) -> Optional[_DirectionState]:
        """Key a new channel's first send from the latest master, if the
        peer acknowledged it and it is younger than the rekey interval."""
        sent = self.keys.sent.get(self._send_label)
        if sent is None or not sent.acked or now - sent.established_at >= self.rekey_interval_s:
            return None
        sent.counter += 1
        key = _resumed_key(sent.master, self._send_label, sent.counter)
        state = _DirectionState(key, self._send_label, now, sent.fingerprint)
        state.header = RESUME_FRAME + sent.fingerprint + sent.counter.to_bytes(8, "big")
        self._send = state
        self.stats["keys_resumed"] += 1
        return state

    def encrypt(self, plaintext: bytes, now: float) -> bytes:
        """Produce the session frame carrying ``plaintext``.

        A channel's first call resumes an acknowledged master (``R``
        frame) or pays the per-direction RSA establishment (``K`` frame);
        so does the first call after a rekey trigger, which always pays
        RSA.  Every other call is purely symmetric.

        Args:
            plaintext: The packet bytes to protect.
            now: Current time (drives the time-based rekey budget and
                stamps the key's establishment time).

        Returns:
            The wire frame — a ``K``, ``R`` or ``S`` frame padded to the
            legacy envelope length for this plaintext, ready for the
            one-frame MPC transport.
        """
        send = self._send
        if send is None:
            send = self._resume_send(now) or self._establish_send(now)
        elif self._needs_rekey(send, now):
            send = self._establish_send(now)
        seq = send.packets
        ciphertext = send.cipher.crypt(plaintext)
        send.packets += 1
        head = send.header or DATA_FRAME
        send.header = None
        body = seq.to_bytes(8, "big") + len(ciphertext).to_bytes(4, "big") + ciphertext
        target = legacy_frame_len(
            len(plaintext), self._peer_public_key.byte_size, self._private_key.byte_size
        )
        padding = target - len(head) - len(body) - _MAC_SIZE
        if self._recv is not None and padding >= _FINGERPRINT_SIZE:
            body += self._recv.fingerprint
            padding -= _FINGERPRINT_SIZE
        body += b"\x00" * max(0, padding)
        mac = hmac_sha256(send.mac_key, self._send_label + body)
        self.stats["frames_sent"] += 1
        return head + body + mac

    # -- receiving -------------------------------------------------------------
    def _open_key_frame_header(
        self, frame: bytes, now: float
    ) -> Tuple[_DirectionState, int, Callable[[], None]]:
        """Unwrap the peer's fresh receive key.  Returns the candidate
        state, the offset where the frame body starts and the commit that
        records the master — called only once the frame MAC verified, so a
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
        if fingerprint in self.keys.held:
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
        candidate = _DirectionState(master, self._recv_label, now, fingerprint)
        # The sender resumed for one interval from its own (earlier) clock
        # reading; keeping the master twice that long covers the flight.
        record = _HeldMaster(self._recv_label, master, now + 2 * self.rekey_interval_s)
        return candidate, at + 2 + sig_len, lambda: self.keys.hold(fingerprint, record, now)

    def _open_resume_header(
        self, frame: bytes, now: float
    ) -> Tuple[_DirectionState, int, Callable[[], None]]:
        """Derive the peer's resumed receive key from a held master; the
        commit raises the master's counter once the frame MAC verified."""
        if len(frame) < _RESUME_HEADER_SIZE:
            raise SessionCryptoError("truncated resume frame")
        fingerprint = frame[1 : 1 + _FINGERPRINT_SIZE]
        counter = int.from_bytes(frame[1 + _FINGERPRINT_SIZE : _RESUME_HEADER_SIZE], "big")
        held = self.keys.held.get(fingerprint)
        if held is None or held.label != self._recv_label:
            raise SessionCryptoError("resume from an unknown session key")
        if held.master is not None and now >= held.expires_at:
            held.master = None
        if held.master is None:
            raise SessionCryptoError("resume from an expired session key")
        if counter <= held.counter:
            raise SessionCryptoError(
                f"replayed resume frame (counter {counter}, seen {held.counter})"
            )
        key = _resumed_key(held.master, self._recv_label, counter)
        candidate = _DirectionState(key, self._recv_label, now, fingerprint)

        def commit() -> None:
            held.counter = counter

        return candidate, _RESUME_HEADER_SIZE, commit

    def decrypt(self, frame: bytes, now: float) -> bytes:
        """Authenticate and open one session frame.

        Args:
            frame: One wire frame as produced by the peer's
                :meth:`encrypt` (key, resume or data frame).
            now: Current time (stamps a freshly accepted key).

        Returns:
            The frame's plaintext packet bytes.

        Raises:
            SessionCryptoError: On any tampering, truncation, replay,
                reorder, unknown marker, an unknown or expired resumed
                key, or a data frame arriving before any key was
                established.
        """
        if not frame:
            raise SessionCryptoError("empty session frame")
        marker = frame[:1]
        commit: Optional[Callable[[], None]] = None
        if marker == DATA_FRAME:
            if self._recv is None:
                raise SessionCryptoError("data frame before session key")
            recv = self._recv
            body_at = 1
        elif marker == KEY_FRAME:
            recv, body_at, commit = self._open_key_frame_header(frame, now)
        elif marker == RESUME_FRAME:
            recv, body_at, commit = self._open_resume_header(frame, now)
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
        if commit is not None:
            # Fully authenticated key or resume frame: commit the new key.
            commit()
            self._recv = recv
            self.stats["keys_accepted"] += 1
        ack_end = min(ct_end + _FINGERPRINT_SIZE, len(frame) - _MAC_SIZE)
        self._note_ack(frame[ct_end:ack_end])
        self.stats["frames_received"] += 1
        return plaintext

    def _note_ack(self, ack: bytes) -> None:
        """If ``ack`` names our latest master, the peer holds it: from now
        on a new channel may resume from it."""
        sent = self.keys.sent.get(self._send_label)
        if sent is not None and ack == sent.fingerprint:
            sent.acked = True
