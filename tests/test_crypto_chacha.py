"""Tests for the ChaCha20 implementation, including the RFC 7539 vectors."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.chacha import (
    ChaCha20,
    _NUMPY_BLOCK_MIN,
    _block,
    _chunk_numpy,
    chacha20_decrypt,
    chacha20_encrypt,
)


def _words(key: bytes, nonce: bytes):
    return struct.unpack("<8L", key), struct.unpack("<3L", nonce)


def _blocks(key: bytes, nonce: bytes, counter: int, nblocks: int) -> bytes:
    """``nblocks`` scalar reference blocks from ``counter`` (wrapping)."""
    words = _words(key, nonce)
    return b"".join(_block(*words, (counter + i) & 0xFFFFFFFF) for i in range(nblocks))


class TestRfc7539Vectors:
    """Official test vectors from RFC 7539."""

    def test_block_function_vector(self):
        # RFC 7539 §2.3.2
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = _block(*_words(key, nonce), 1)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert block == expected

    def test_encryption_vector(self):
        # RFC 7539 §2.4.2
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_encrypt(key, nonce, plaintext, counter=1)
        assert ciphertext.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")
        assert chacha20_decrypt(key, nonce, ciphertext, counter=1) == plaintext


class TestProperties:
    @given(st.binary(min_size=0, max_size=500), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_roundtrip(self, data, counter):
        key = bytes(32)
        nonce = bytes(12)
        assert chacha20_decrypt(key, nonce, chacha20_encrypt(key, nonce, data, counter), counter) == data

    def test_different_nonces_different_streams(self):
        key = bytes(32)
        a = chacha20_encrypt(key, bytes(12), b"\x00" * 64)
        b = chacha20_encrypt(key, b"\x01" + bytes(11), b"\x00" * 64)
        assert a != b

    def test_different_keys_different_streams(self):
        nonce = bytes(12)
        a = chacha20_encrypt(bytes(32), nonce, b"\x00" * 64)
        b = chacha20_encrypt(b"\x01" + bytes(31), nonce, b"\x00" * 64)
        assert a != b

    def test_keystream_continuity_across_calls(self):
        key, nonce = bytes(32), bytes(12)
        cipher = ChaCha20(key, nonce)
        part = cipher.crypt(b"\x00" * 50) + cipher.crypt(b"\x00" * 50)
        whole = ChaCha20(key, nonce).crypt(b"\x00" * 100)
        assert part == whole


class TestVectorisedPaths:
    """The numpy multi-block path, the scalar multi-block path and the
    one-block-at-a-time block function must all emit the same stream."""

    @pytest.mark.parametrize(
        "size", [0, 1, 63, 64, 65, 100, 256, 257, 511, 512, 513, 1024, 4096]
    )
    def test_numpy_and_scalar_chunks_identical(self, size):
        # The numpy block function against the scalar one for the blocks
        # a ``size``-byte request needs, including counts below
        # _NUMPY_BLOCK_MIN that ``_chunk`` would never send to numpy and
        # a start counter whose run wraps at 2**32.
        key, nonce = bytes(range(32)), bytes(range(12))
        nblocks = -(-size // ChaCha20.BLOCK_SIZE)
        for counter in (9, 2**32 - 3):
            scalar = _blocks(key, nonce, counter, nblocks)
            assert _chunk_numpy(*_words(key, nonce), counter, nblocks) == scalar

    def test_chunks_match_single_blocks(self):
        # Either side of the scalar/numpy threshold, and well past it.
        key, nonce = bytes(range(32)), bytes(range(12))
        for nblocks in (_NUMPY_BLOCK_MIN - 1, _NUMPY_BLOCK_MIN, 20):
            chunk = ChaCha20(key, nonce)._chunk(7, nblocks)
            assert chunk == _blocks(key, nonce, 7, nblocks)

    def test_counter_wraps_like_scalar_stream(self):
        key, nonce = bytes(32), bytes(12)
        start = 2**32 - 2  # the chunk spans the 32-bit counter wrap
        spanning = ChaCha20(key, nonce, counter=start).keystream(5 * 64)
        assert spanning == _blocks(key, nonce, start, 5)

    def test_prefetch_only_buffers(self):
        plain = ChaCha20(bytes(32), bytes(12))
        ahead = ChaCha20(bytes(32), bytes(12))
        ahead.prefetch_blocks = 128
        pieces = [ahead.crypt(b"\x05" * n) for n in (10, 700, 1, 64, 3000)]
        whole = plain.crypt(b"\x05" * sum(len(p) for p in pieces))
        assert b"".join(pieces) == whole


class TestValidation:
    def test_bad_key_size(self):
        with pytest.raises(ValueError):
            ChaCha20(bytes(16), bytes(12))

    def test_bad_nonce_size(self):
        with pytest.raises(ValueError):
            ChaCha20(bytes(32), bytes(8))

    def test_bad_counter(self):
        with pytest.raises(ValueError):
            ChaCha20(bytes(32), bytes(12), counter=2**32)
