"""RSA key generation, signatures, OAEP encryption and hybrid envelopes.

This is the asymmetric workhorse of the SOS security layer (paper §IV):

* each AlleyOop Social user generates an RSA key pair at sign-up,
* the CA signs certificates with its RSA key (:mod:`repro.pki`),
* messages are signed by their originator so forwarders cannot tamper,
* payloads travel in a hybrid envelope — RSA-OAEP transports a fresh
  ChaCha20 key, and HMAC-SHA256 authenticates the ciphertext
  (encrypt-then-MAC).

SECURITY: the default simulation key size (1024 bits) is chosen for
simulation throughput, not for real-world security; pass ``bits=2048`` or
more for anything outside a simulator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.drbg import RandomSource, SystemRandomSource
from repro.crypto.hashes import constant_time_equal, hmac_sha256, sha256
from repro.crypto.kdf import hkdf
from repro.crypto.chacha import ChaCha20
from repro.crypto.numbers import (
    PrimeSearchError,
    bytes_to_int,
    generate_prime,
    int_to_bytes,
    modinv,
)

# DER prefix of the DigestInfo structure for SHA-256 (RFC 8017 §9.2 note 1).
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")

_DEFAULT_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_size(self) -> int:
        return (self.bits + 7) // 8

    def to_bytes(self) -> bytes:
        """Length-prefixed serialisation (used inside certificates)."""
        n_bytes = int_to_bytes(self.n)
        e_bytes = int_to_bytes(self.e)
        return (
            len(n_bytes).to_bytes(4, "big")
            + n_bytes
            + len(e_bytes).to_bytes(4, "big")
            + e_bytes
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        n_len = int.from_bytes(data[:4], "big")
        n = bytes_to_int(data[4 : 4 + n_len])
        offset = 4 + n_len
        e_len = int.from_bytes(data[offset : offset + 4], "big")
        e = bytes_to_int(data[offset + 4 : offset + 4 + e_len])
        if n <= 0 or e <= 0:
            raise ValueError("malformed public key encoding")
        return cls(n=n, e=e)

    def fingerprint(self) -> str:
        """Hex SHA-256 fingerprint of the encoded key."""
        return sha256(self.to_bytes()).hex()

    # -- raw primitive -----------------------------------------------------
    def _encrypt_int(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise ValueError("message representative out of range")
        return pow(m, self.e, self.n)

    # -- signatures ---------------------------------------------------------
    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a PKCS#1 v1.5-style SHA-256 signature.  Never raises on
        malformed signatures; returns False."""
        return _pkcs1_v15_verify(self.n, self.e, sha256(message), bytes(signature))

    # -- encryption ----------------------------------------------------------
    def encrypt(self, plaintext: bytes, rng: Optional[RandomSource] = None) -> bytes:
        """RSA-OAEP (SHA-256/MGF1) encryption of a short plaintext."""
        # repro: ignore[rng-unseeded] -- deployment default: sim callers always inject a seeded DRBG (provisioning pool / session layer); the OS fallback exists for real-world use of the library.
        rng = rng or SystemRandomSource()
        k = self.byte_size
        max_len = k - 2 * 32 - 2
        if len(plaintext) > max_len:
            raise ValueError(f"plaintext too long for OAEP ({len(plaintext)} > {max_len})")
        em = _oaep_encode(plaintext, k, rng)
        return int_to_bytes(self._encrypt_int(bytes_to_int(em)), k)


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key with CRT acceleration parameters.

    ``dp``, ``dq`` and ``qinv`` are derived once, at construction, and
    stored with the key as RFC 8017 §3.2 does; they take no part in
    equality, hashing or the ``n/e/d/p/q`` serialisation.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    qinv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "qinv", modinv(self.q, self.p))

    @property
    def byte_size(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    def _decrypt_int(self, c: int) -> int:
        if not 0 <= c < self.n:
            raise ValueError("ciphertext representative out of range")
        # CRT: two half-size exponentiations instead of one full-size one.
        m1 = pow(c, self.dp, self.p)
        m2 = pow(c, self.dq, self.q)
        h = (self.qinv * (m1 - m2)) % self.p
        return m2 + self.q * h

    def sign(self, message: bytes) -> bytes:
        """PKCS#1 v1.5-style SHA-256 signature of ``message``."""
        em = _pkcs1_v15_encode(sha256(message), self.byte_size)
        return int_to_bytes(self._decrypt_int(bytes_to_int(em)), self.byte_size)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """RSA-OAEP decryption; raises ``ValueError`` on any malformation."""
        k = self.byte_size
        if len(ciphertext) != k:
            raise ValueError(f"ciphertext must be {k} bytes, got {len(ciphertext)}")
        em = int_to_bytes(self._decrypt_int(bytes_to_int(ciphertext)), k)
        return _oaep_decode(em, k)


@dataclass(frozen=True)
class RsaKeyPair:
    """A generated key pair."""

    private: RsaPrivateKey

    @property
    def public(self) -> RsaPublicKey:
        return self.private.public_key()


class KeyGenerationError(ValueError):
    """RSA key generation exhausted its retry budget.

    With a healthy random source the retry paths (``p == q``, a prime
    search that exhausts its candidates, an exponent sharing a factor with
    phi) each trigger with negligible probability, so hitting the budget
    means the :class:`~repro.crypto.drbg.RandomSource` is broken or stuck
    — the failure the bound exists to surface instead of spinning forever.
    """


#: Prime-pair draws before :func:`generate_keypair` gives up.  Each draw
#: independently succeeds with overwhelming probability, so 64 failures
#: indicate a degenerate random source, not bad luck.
DEFAULT_KEYGEN_ATTEMPTS = 64


def generate_keypair(
    bits: int = 1024,
    rng: Optional[RandomSource] = None,
    exponent: int = _DEFAULT_EXPONENT,
    max_attempts: int = DEFAULT_KEYGEN_ATTEMPTS,
) -> RsaKeyPair:
    """Generate an RSA key pair with an exactly-``bits`` modulus.

    Deterministic for a fixed deterministic ``rng``: every retry redraws
    *both* primes from the same stream, so two calls with equally-seeded
    DRBGs produce identical key pairs even when a retry path fires.
    Raises :class:`KeyGenerationError` after ``max_attempts`` failed
    prime-pair draws rather than looping forever on a stuck source.
    """
    if bits < 512:
        raise ValueError(f"modulus must be at least 512 bits, got {bits}")
    if bits % 2:
        raise ValueError("modulus bit size must be even")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    # repro: ignore[rng-unseeded] -- deployment default: sim keygen always passes a pooled/per-entry DRBG; OS entropy is the documented fallback for real deployments only.
    rng = rng or SystemRandomSource()
    half = bits // 2
    for _ in range(max_attempts):
        try:
            p = generate_prime(half, rng)
            q = generate_prime(half, rng)
        except PrimeSearchError:
            continue
        if p == q:
            continue
        # Both primes have their top two bits set, so n has exactly ``bits`` bits.
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(exponent, phi)
        except ValueError:
            continue  # exponent not coprime with phi; rare, redraw primes
        private = RsaPrivateKey(n=n, e=exponent, d=d, p=p, q=q)
        return RsaKeyPair(private=private)
    raise KeyGenerationError(
        f"no usable prime pair after {max_attempts} attempts "
        f"({bits}-bit modulus); the random source looks degenerate"
    )


# ---------------------------------------------------------------------------
# Encoding internals
# ---------------------------------------------------------------------------

def _pkcs1_v15_encode(digest: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 ``digest``."""
    t = _SHA256_DIGEST_INFO + digest
    if em_len < len(t) + 11:
        raise ValueError("key too small for PKCS#1 v1.5 SHA-256 signature")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


@functools.lru_cache(maxsize=1024)
def _pkcs1_v15_verify(n: int, e: int, digest: bytes, signature: bytes) -> bool:
    """RSASSA-PKCS1-v1_5 verification (RFC 8017 §8.2.2) of a SHA-256
    ``digest`` under the public key ``(n, e)``.

    Memoised: the result is a pure function of these four values, so a
    hit returns what a fresh check would, and a tampered message or
    signature, ``s + n`` or another key is a different entry, checked
    afresh.  In a one-process simulation every device re-checks the same
    CA and originator signatures: on ``crowd_epidemic`` 4,635 of 5,536
    verifications are repeats, none more than 677 distinct verifications
    after its first, so 1,024 entries keep them all.  The cache holds
    nothing the process does not already hold: public keys, digests and
    signatures it was handed.
    """
    k = (n.bit_length() + 7) // 8
    if len(signature) != k:
        return False
    s = bytes_to_int(signature)
    if s >= n:
        return False  # RSAVP1 step 1: else s + n would verify too
    try:
        em = int_to_bytes(pow(s, e, n), k)
    except (ValueError, OverflowError):
        return False
    return constant_time_equal(em, _pkcs1_v15_encode(digest, k))


def _mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation with SHA-256."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(sha256(seed + counter.to_bytes(4, "big")))
        counter += 1
    return bytes(out[:length])


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length buffers, as one big-integer operation."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _oaep_encode(message: bytes, k: int, rng: RandomSource) -> bytes:
    h_len = 32
    l_hash = sha256(b"")
    ps = b"\x00" * (k - len(message) - 2 * h_len - 2)
    db = l_hash + ps + b"\x01" + message
    seed = rng.read(h_len)
    masked_db = _xor(db, _mgf1(seed, k - h_len - 1))
    masked_seed = _xor(seed, _mgf1(masked_db, h_len))
    return b"\x00" + masked_seed + masked_db


def _oaep_decode(em: bytes, k: int) -> bytes:
    h_len = 32
    if len(em) != k or em[0] != 0:
        raise ValueError("OAEP decryption error")
    masked_seed = em[1 : 1 + h_len]
    masked_db = em[1 + h_len :]
    seed = _xor(masked_seed, _mgf1(masked_db, h_len))
    db = _xor(masked_db, _mgf1(seed, k - h_len - 1))
    if not constant_time_equal(db[:h_len], sha256(b"")):
        raise ValueError("OAEP decryption error")
    try:
        sep = db.index(b"\x01", h_len)
    except ValueError:
        raise ValueError("OAEP decryption error") from None
    if any(db[h_len:sep]):
        raise ValueError("OAEP decryption error")
    return db[sep + 1 :]


# ---------------------------------------------------------------------------
# Hybrid envelope (RSA-OAEP key transport + ChaCha20 + HMAC-SHA256)
# ---------------------------------------------------------------------------

_ENVELOPE_MAGIC = b"SOSE"  # SOS Envelope, version 1
_NONCE_SIZE = 12
_MAC_SIZE = 32


def hybrid_envelope_len(plaintext_len: int, recipient_key_bytes: int) -> int:
    """Wire length of a :func:`hybrid_encrypt` envelope for a plaintext of
    ``plaintext_len`` bytes (the session layer pads its frames against
    this so both channels drive the radio model identically)."""
    return (
        len(_ENVELOPE_MAGIC) + 2 + recipient_key_bytes + _NONCE_SIZE
        + plaintext_len + _MAC_SIZE
    )


def hybrid_encrypt(
    recipient: RsaPublicKey,
    plaintext: bytes,
    rng: Optional[RandomSource] = None,
    aad: bytes = b"",
) -> bytes:
    """Encrypt ``plaintext`` for ``recipient``.

    Wire format::

        "SOSE" | u16 keylen | RSA-OAEP(master) | nonce(12) | ct | mac(32)

    ``aad`` binds additional authenticated data (e.g. sender identity) into
    the MAC without encrypting it.
    """
    # repro: ignore[rng-unseeded] -- deployment default: the packet path wires the sender keystore DRBG in; OS entropy is the fallback for real deployments only.
    rng = rng or SystemRandomSource()
    master = rng.read(32)
    enc_key = hkdf(master, info=b"sos-enc", length=32)
    mac_key = hkdf(master, info=b"sos-mac", length=32)
    nonce = rng.read(_NONCE_SIZE)
    ciphertext = ChaCha20(enc_key, nonce).crypt(plaintext)
    wrapped = recipient.encrypt(master, rng=rng)
    mac = hmac_sha256(mac_key, aad + nonce + ciphertext)
    return (
        _ENVELOPE_MAGIC
        + len(wrapped).to_bytes(2, "big")
        + wrapped
        + nonce
        + ciphertext
        + mac
    )


def hybrid_decrypt(private: RsaPrivateKey, envelope: bytes, aad: bytes = b"") -> bytes:
    """Open a hybrid envelope; raises ``ValueError`` on any tampering."""
    if len(envelope) < len(_ENVELOPE_MAGIC) + 2 + _NONCE_SIZE + _MAC_SIZE:
        raise ValueError("envelope too short")
    if envelope[:4] != _ENVELOPE_MAGIC:
        raise ValueError("bad envelope magic")
    key_len = int.from_bytes(envelope[4:6], "big")
    offset = 6
    wrapped = envelope[offset : offset + key_len]
    offset += key_len
    nonce = envelope[offset : offset + _NONCE_SIZE]
    offset += _NONCE_SIZE
    body = envelope[offset:]
    if len(body) < _MAC_SIZE:
        raise ValueError("envelope truncated")
    ciphertext, mac = body[:-_MAC_SIZE], body[-_MAC_SIZE:]
    master = private.decrypt(wrapped)
    enc_key = hkdf(master, info=b"sos-enc", length=32)
    mac_key = hkdf(master, info=b"sos-mac", length=32)
    expected = hmac_sha256(mac_key, aad + nonce + ciphertext)
    if not constant_time_equal(mac, expected):
        raise ValueError("envelope authentication failed")
    return ChaCha20(enc_key, nonce).crypt(ciphertext)
