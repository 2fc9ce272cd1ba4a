"""The process-wide caches on the two pure crypto functions: ChaCha20
keystream chunks (``repro.crypto.chacha._keystream_chunk``) and PKCS#1
v1.5 verification (``repro.crypto.rsa._pkcs1_v15_verify``).

A hit must equal a fresh computation (``__wrapped__``), a cached valid
signature must not let a forgery through, each cache stays within its
bound, and on a small seeded study the hit counts are pinned, so a
refactor that stops simulated devices sharing results fails here.  Every
test that counts hits clears both caches first, so none depends on what
the suite ran before it.
"""

import pytest

from repro.crypto.chacha import ChaCha20, _keystream_chunk
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.numbers import bytes_to_int, int_to_bytes
from repro.crypto.rsa import _pkcs1_v15_verify, generate_keypair
from repro.experiments.gainesville import GainesvilleStudy
from repro.experiments.scenario import ScenarioConfig


@pytest.fixture()
def cleared():
    _keystream_chunk.cache_clear()
    _pkcs1_v15_verify.cache_clear()


@pytest.fixture(scope="module")
def signer():
    """The key whose signature on ``b"hello"`` leaves room for ``s + n``
    in ``byte_size`` bytes (see ``test_signature_plus_modulus_rejected``)."""
    return generate_keypair(1024, rng=HmacDrbg.from_int(1))


class TestKeystreamChunkCache:
    @pytest.mark.parametrize("prefetch", [0, 128])  # a 2-block scalar chunk; an 8 KiB numpy one
    def test_hit_equals_fresh_computation(self, cleared, prefetch):
        key, nonce = bytes(range(32)), bytes(range(12))
        sender, receiver = ChaCha20(key, nonce), ChaCha20(key, nonce)  # two ends of a link
        sender.prefetch_blocks = receiver.prefetch_blocks = prefetch
        sent, received = sender.keystream(100), receiver.keystream(100)
        info = _keystream_chunk.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        nblocks = max(2, prefetch)
        fresh = _keystream_chunk.__wrapped__(sender._key_words, sender._nonce_words, 0, nblocks)
        assert received == sent == fresh[:100]

    def test_bounded(self, cleared):
        maxsize = _keystream_chunk.cache_info().maxsize
        for counter in range(maxsize + 8):
            ChaCha20(bytes(32), bytes(12), counter=counter).keystream(64)
        info = _keystream_chunk.cache_info()
        assert info.misses == maxsize + 8
        assert info.currsize == maxsize


class TestVerifyCache:
    def test_hit_equals_fresh_computation(self, cleared, signer):
        public = signer.public
        signature = signer.private.sign(b"hello")
        garbage = b"\xff" * public.byte_size
        for _ in range(2):
            assert public.verify(b"hello", signature)
            assert not public.verify(b"hello", garbage)
        info = _pkcs1_v15_verify.cache_info()
        assert (info.hits, info.misses) == (2, 2)
        digest = sha256(b"hello")
        assert _pkcs1_v15_verify.__wrapped__(public.n, public.e, digest, signature) is True
        assert _pkcs1_v15_verify.__wrapped__(public.n, public.e, digest, garbage) is False

    def test_cached_valid_signature_lets_no_forgery_through(self, cleared, signer, keypair_pool):
        public = signer.public
        signature = signer.private.sign(b"hello")
        assert public.verify(b"hello", signature)  # cached as valid
        flipped = signature[:-1] + bytes([signature[-1] ^ 1])
        plus_n = bytes_to_int(signature) + public.n
        assert plus_n.bit_length() <= 8 * public.byte_size
        assert not public.verify(b"hellp", signature)
        assert not public.verify(b"hello", flipped)
        assert not public.verify(b"hello", int_to_bytes(plus_n, public.byte_size))
        assert not keypair_pool[0].public.verify(b"hello", signature)
        assert _pkcs1_v15_verify.cache_info().hits == 0
        # Bytes-like signatures are still accepted.
        assert public.verify(b"hello", bytearray(signature))

    def test_bounded(self, cleared, keypair_pool):
        public = keypair_pool[0].public
        maxsize = _pkcs1_v15_verify.cache_info().maxsize
        zero = bytes(public.byte_size)
        for i in range(maxsize + 8):
            assert not public.verify(b"%d" % i, zero)
        info = _pkcs1_v15_verify.cache_info()
        assert info.misses == maxsize + 8
        assert info.currsize == maxsize


class TestSharingAcrossDevices:
    def test_hit_counts_on_a_seeded_study(self, cleared):
        """A 12-user epidemic day (``crowd_epidemic``'s miniature): both
        ends of each session direction draw the same chunk, and every
        device re-checks the same CA and originator signatures.  A cache
        keyed per cipher or per device would read 0 or far fewer hits."""
        GainesvilleStudy(
            ScenarioConfig(
                seed=2017,
                num_users=12,
                duration_days=1,
                total_posts=30,
                area=(2_000.0, 2_000.0),
                social_graph="degree_bounded",
                routing_protocol="epidemic",
                provisioning="pooled",
                duty_cycle=False,
                key_bits=800,
            )
        ).run()
        chunks = _keystream_chunk.cache_info()
        verifications = _pkcs1_v15_verify.cache_info()
        assert (chunks.hits, chunks.misses) == (86, 86)
        # 9 of the miniature's 86 session keys resume and verify no
        # key-transport signature (129 misses without resumption).
        assert (verifications.hits, verifications.misses) == (345, 120)
