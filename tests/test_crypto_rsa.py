"""Tests for RSA keygen, signatures, OAEP and the hybrid envelope."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.drbg import HmacDrbg, RandomSource
from repro.crypto.numbers import bytes_to_int, int_to_bytes, is_probable_prime
from repro.crypto.rsa import (
    KeyGenerationError,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    hybrid_decrypt,
    hybrid_encrypt,
)
from repro.pki.provisioning import signup_drbg_seed


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(1024, rng=HmacDrbg.from_int(777))


@pytest.fixture(scope="module")
def other_keypair():
    return generate_keypair(1024, rng=HmacDrbg.from_int(778))


class TestKeyGeneration:
    def test_modulus_bit_length(self, keypair):
        assert keypair.public.n.bit_length() == 1024

    def test_factors_are_prime(self, keypair):
        private = keypair.private
        rng = HmacDrbg.from_int(1)
        assert is_probable_prime(private.p, rng=rng)
        assert is_probable_prime(private.q, rng=rng)
        assert private.p * private.q == private.n

    def test_d_inverts_e(self, keypair):
        private = keypair.private
        phi = (private.p - 1) * (private.q - 1)
        assert (private.d * private.e) % phi == 1

    def test_deterministic_from_seed(self):
        a = generate_keypair(512, rng=HmacDrbg.from_int(5))
        b = generate_keypair(512, rng=HmacDrbg.from_int(5))
        assert a.public == b.public

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(1023)

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(256)

    def test_every_key_costs_two_prime_searches(self, monkeypatch):
        """Primes with their top two bits set always multiply to a full
        ``bits``-bit modulus, so no prime pair is thrown away for size."""
        primes = []
        real = rsa.generate_prime

        def recording(bits, rng):
            primes.append(real(bits, rng))
            return primes[-1]

        monkeypatch.setattr(rsa, "generate_prime", recording)
        for seed in range(50):
            primes.clear()
            pair = generate_keypair(1024, rng=HmacDrbg.from_int(seed))
            assert len(primes) == 2, f"seed {seed}"
            assert all(p >> 510 == 0b11 for p in primes), f"seed {seed}"
            assert pair.public.n.bit_length() == 1024

    def test_pinned_key(self):
        """The first study user's key: a change to key generation shows up
        as an edit to this test."""
        rng = HmacDrbg.from_int(signup_drbg_seed(2017, 0))
        assert generate_keypair(1024, rng=rng).public.fingerprint() == (
            "d5722a5ce5fdb8311e5992ea2fc2fb31079bac658d9b0622ad7eea165f45e3eb"
        )


class _StuckSource(RandomSource):
    """A degenerate source that replays the same bytes forever — the
    pathology the keygen attempt bound exists to catch."""

    def __init__(self, pattern: bytes) -> None:
        self._pattern = pattern

    def read(self, n: int) -> bytes:
        reps = -(-n // len(self._pattern))
        return (self._pattern * reps)[:n]


class TestKeyGenRetryBound:
    """Regression tests for the generate_keypair retry loop: a stuck
    random source used to make p == q on every draw and spin forever."""

    @staticmethod
    def _stuck_pattern() -> bytes:
        # A pattern X (well below 2^250) whose 256-bit prime candidate
        # (top two bits forced, made odd) is prime: generate_prime returns
        # it instantly, so every attempt yields p == q — while
        # Miller-Rabin's witness draws (X itself, far below the prime)
        # still terminate.
        check_rng = HmacDrbg.from_int(123)
        x = 0xABCDEF01
        while not is_probable_prime((3 << 254) | x | 1, rng=check_rng):
            x += 2
        return int_to_bytes(x | 1, 32)

    @pytest.fixture(scope="class")
    def stuck_prime_source(self):
        return _StuckSource(self._stuck_pattern())

    def test_p_equals_q_forever_raises(self, stuck_prime_source):
        with pytest.raises(KeyGenerationError, match="degenerate"):
            generate_keypair(512, rng=stuck_prime_source, max_attempts=5)

    def test_attempt_budget_in_message(self, stuck_prime_source):
        with pytest.raises(KeyGenerationError, match="after 3 attempts"):
            generate_keypair(512, rng=stuck_prime_source, max_attempts=3)

    def test_failure_is_deterministic(self):
        """Same stuck stream, same outcome — no wall-clock or retry-count
        nondeterminism leaks into the failure path."""
        pattern = self._stuck_pattern()
        for _ in range(2):
            with pytest.raises(KeyGenerationError):
                generate_keypair(512, rng=_StuckSource(pattern), max_attempts=4)

    def test_error_is_a_value_error(self, stuck_prime_source):
        with pytest.raises(ValueError):
            generate_keypair(512, rng=stuck_prime_source, max_attempts=2)

    def test_zero_attempt_budget_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            generate_keypair(512, rng=HmacDrbg.from_int(1), max_attempts=0)

    def test_healthy_source_succeeds_first_attempt(self):
        """A known-good seed needs exactly one attempt — the bound
        changes nothing for healthy sources."""
        pair = generate_keypair(512, rng=HmacDrbg.from_int(2), max_attempts=1)
        assert pair.public == generate_keypair(512, rng=HmacDrbg.from_int(2)).public

    def test_natural_retry_is_deterministic(self):
        """With exponent 3, seed 1's first 512-bit prime pair has 3
        dividing phi and is rejected, so this walks the genuine retry
        path: it respects the attempt budget and both retried runs land
        on the same key."""
        with pytest.raises(KeyGenerationError):
            generate_keypair(512, rng=HmacDrbg.from_int(1), exponent=3, max_attempts=1)
        first = generate_keypair(512, rng=HmacDrbg.from_int(1), exponent=3)
        again = generate_keypair(512, rng=HmacDrbg.from_int(1), exponent=3)
        assert first.public == again.public
        assert first.public.n.bit_length() == 512

    def test_all_zero_source_raises_instead_of_spinning(self):
        """Every candidate an all-zero source yields is the same composite;
        the bounded prime search turns that into failed attempts."""
        with pytest.raises(KeyGenerationError, match="after 2 attempts"):
            generate_keypair(512, rng=_StuckSource(b"\x00"), max_attempts=2)


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        sig = keypair.private.sign(b"message")
        assert keypair.public.verify(b"message", sig)

    def test_modified_message_fails(self, keypair):
        sig = keypair.private.sign(b"message")
        assert not keypair.public.verify(b"messagX", sig)

    def test_wrong_key_fails(self, keypair, other_keypair):
        sig = keypair.private.sign(b"message")
        assert not other_keypair.public.verify(b"message", sig)

    def test_truncated_signature_fails(self, keypair):
        sig = keypair.private.sign(b"message")
        assert not keypair.public.verify(b"message", sig[:-1])

    def test_garbage_signature_fails_without_raising(self, keypair):
        assert not keypair.public.verify(b"message", b"\xff" * keypair.public.byte_size)

    def test_empty_message_signable(self, keypair):
        assert keypair.public.verify(b"", keypair.private.sign(b""))

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_messages(self, keypair, data):
        assert keypair.public.verify(data, keypair.private.sign(data))

    def test_signature_plus_modulus_rejected(self):
        """RSAVP1 rejects a representative >= n: ``s + n`` is congruent to
        ``s`` and, for this key and message, still fits in ``byte_size``
        bytes, so without the range check it verified as well."""
        keys = generate_keypair(1024, rng=HmacDrbg.from_int(1))
        public = keys.public
        signature = keys.private.sign(b"hello")
        forged = bytes_to_int(signature) + public.n
        assert forged.bit_length() <= 8 * public.byte_size  # the forgery fits
        assert public.verify(b"hello", signature)
        assert not public.verify(b"hello", int_to_bytes(forged, public.byte_size))


class TestPrivateKeyCrt:
    """The CRT values are derived once per key and are not key state."""

    def test_crt_values_match_their_definitions(self, keypair):
        key = keypair.private
        assert key.dp == key.d % (key.p - 1)
        assert key.dq == key.d % (key.q - 1)
        assert (key.qinv * key.q) % key.p == 1

    def test_private_operations_do_not_invert(self, keypair, monkeypatch):
        """Once a key is built, signing and decrypting compute no inverse."""
        key = RsaPrivateKey(*(getattr(keypair.private, f) for f in "nedpq"))
        ciphertext = keypair.public.encrypt(b"session key", rng=HmacDrbg.from_int(3))

        def no_inverse(*args):
            raise AssertionError("modinv called inside a private-key operation")

        monkeypatch.setattr(rsa, "modinv", no_inverse)
        assert keypair.public.verify(b"message", key.sign(b"message"))
        assert key.decrypt(ciphertext) == b"session key"

    def test_equality_and_hash_follow_the_five_integers(self, keypair):
        key = keypair.private
        twin = RsaPrivateKey(n=key.n, e=key.e, d=key.d, p=key.p, q=key.q)
        assert twin == key
        assert hash(twin) == hash(key)
        assert "qinv" not in repr(key)

    def test_pickle_round_trip(self, keypair):
        key = keypair.private
        restored = pickle.loads(pickle.dumps(key))
        assert restored == key
        assert (restored.dp, restored.dq, restored.qinv) == (key.dp, key.dq, key.qinv)
        assert restored.sign(b"message") == key.sign(b"message")


class TestOaep:
    def test_roundtrip(self, keypair):
        rng = HmacDrbg.from_int(1)
        ct = keypair.public.encrypt(b"short secret", rng=rng)
        assert keypair.private.decrypt(ct) == b"short secret"

    def test_max_length_plaintext(self, keypair):
        rng = HmacDrbg.from_int(2)
        max_len = keypair.public.byte_size - 2 * 32 - 2
        data = b"\xaa" * max_len
        assert keypair.private.decrypt(keypair.public.encrypt(data, rng=rng)) == data

    def test_too_long_plaintext_rejected(self, keypair):
        max_len = keypair.public.byte_size - 2 * 32 - 2
        with pytest.raises(ValueError):
            keypair.public.encrypt(b"\xaa" * (max_len + 1))

    def test_tampered_ciphertext_rejected(self, keypair):
        ct = bytearray(keypair.public.encrypt(b"secret", rng=HmacDrbg.from_int(3)))
        ct[-1] ^= 1
        with pytest.raises(ValueError):
            keypair.private.decrypt(bytes(ct))

    def test_randomised_encryption(self, keypair):
        rng = HmacDrbg.from_int(4)
        assert keypair.public.encrypt(b"x", rng=rng) != keypair.public.encrypt(b"x", rng=rng)


class TestHybridEnvelope:
    def test_roundtrip_large_payload(self, keypair):
        rng = HmacDrbg.from_int(10)
        payload = bytes(range(256)) * 64  # 16 KiB
        envelope = hybrid_encrypt(keypair.public, payload, rng=rng)
        assert hybrid_decrypt(keypair.private, envelope) == payload

    def test_aad_binding(self, keypair):
        rng = HmacDrbg.from_int(11)
        envelope = hybrid_encrypt(keypair.public, b"data", rng=rng, aad=b"alice")
        assert hybrid_decrypt(keypair.private, envelope, aad=b"alice") == b"data"
        with pytest.raises(ValueError):
            hybrid_decrypt(keypair.private, envelope, aad=b"mallory")

    def test_ciphertext_tampering_detected(self, keypair):
        rng = HmacDrbg.from_int(12)
        envelope = bytearray(hybrid_encrypt(keypair.public, b"payload", rng=rng))
        envelope[-40] ^= 1  # flip a ciphertext byte (before the MAC)
        with pytest.raises(ValueError):
            hybrid_decrypt(keypair.private, bytes(envelope))

    def test_mac_tampering_detected(self, keypair):
        rng = HmacDrbg.from_int(13)
        envelope = bytearray(hybrid_encrypt(keypair.public, b"payload", rng=rng))
        envelope[-1] ^= 1
        with pytest.raises(ValueError):
            hybrid_decrypt(keypair.private, bytes(envelope))

    def test_wrong_recipient_cannot_open(self, keypair, other_keypair):
        envelope = hybrid_encrypt(keypair.public, b"secret", rng=HmacDrbg.from_int(14))
        with pytest.raises(ValueError):
            hybrid_decrypt(other_keypair.private, envelope)

    def test_truncated_envelope_rejected(self, keypair):
        envelope = hybrid_encrypt(keypair.public, b"secret", rng=HmacDrbg.from_int(15))
        with pytest.raises(ValueError):
            hybrid_decrypt(keypair.private, envelope[:20])

    def test_bad_magic_rejected(self, keypair):
        envelope = hybrid_encrypt(keypair.public, b"secret", rng=HmacDrbg.from_int(16))
        with pytest.raises(ValueError):
            hybrid_decrypt(keypair.private, b"XXXX" + envelope[4:])

    def test_empty_payload(self, keypair):
        envelope = hybrid_encrypt(keypair.public, b"", rng=HmacDrbg.from_int(17))
        assert hybrid_decrypt(keypair.private, envelope) == b""


class TestPublicKeyEncoding:
    def test_roundtrip(self, keypair):
        encoded = keypair.public.to_bytes()
        assert RsaPublicKey.from_bytes(encoded) == keypair.public

    def test_fingerprint_stability(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()

    def test_fingerprints_differ_between_keys(self, keypair, other_keypair):
        assert keypair.public.fingerprint() != other_keypair.public.fingerprint()
