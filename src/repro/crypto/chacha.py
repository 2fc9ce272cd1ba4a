"""ChaCha20 stream cipher (RFC 7539 core).

Used as the symmetric half of the SOS hybrid envelope and as the bulk
cipher of the per-link secure session layer: RSA transports a 256-bit
master secret (once per envelope or once per session key), ChaCha20
encrypts the payload, and HMAC-SHA256 authenticates the ciphertext
(encrypt-then-MAC).

Scaling the symmetric layer
---------------------------

The seed implementation generated the keystream one 64-byte block at a
time through a list-based scalar block function and XOR'd per byte with a
generator expression — fine for the hybrid envelope's occasional short
payload, terrible once the session layer makes ChaCha20 the per-packet
hot path.  This version:

* generates the keystream in **one multi-block chunk** per request
  (scalar path: one ``bytes.join``; no per-block bytearray churn),
* **vectorises the block function with numpy** when a request spans
  enough blocks to amortise array setup — the 20 rounds run across all
  block counters at once, mirroring the ``SpatialHashIndex`` pair-sweep
  fast path (shorter requests stay on the scalar path, which is faster
  below :data:`_NUMPY_BLOCK_MIN` blocks).  The kernel is roll-free and in
  place: diagonalising the state is one gather through fixed lane-index
  arrays, and every quarter-round op writes into its operand through a
  ufunc ``out=`` with one scratch row instead of allocating temporaries.
  A chunk costs about 460 numpy calls of fixed overhead, so its time is
  nearly flat in block count up to 64 blocks,
* XORs **whole buffers as big integers** (``int.from_bytes``), which is
  C-speed for any payload size,
* **computes each chunk once per process**: :func:`_keystream_chunk` is
  a 16-entry ``functools.lru_cache`` keyed by (key words, nonce words,
  counter, blocks), every input of the block function (RFC 8439
  §2.3–2.4), so a hit returns exactly the bytes a fresh computation
  would.  In a one-process simulation the receiver of a session
  direction asks for the 8 KiB chunk its sender just generated: on
  ``crowd_epidemic`` 712 of 1,424 chunks are such repeats, never more
  than 7 distinct chunks apart.  The cache holds nothing the process
  does not already hold: keys and nonces it was handed, and the
  keystream they derive.  It does keep the last 16 chunks, with their
  keys, after their ciphers are dropped.

All three paths produce byte-identical output (the RFC 7539 vectors and
an equivalence test in ``tests/test_crypto_chacha.py`` hold them to it).
"""

from __future__ import annotations

import functools
import struct
from typing import Tuple

import numpy as np

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"
_MASK32 = 0xFFFFFFFF

#: Below this many blocks the scalar path beats numpy's fixed setup cost.
_NUMPY_BLOCK_MIN = 4

#: Key (8) or nonce (3) words, little-endian 32-bit (RFC 8439 §2.3).
_Words = Tuple[int, ...]


def _rotl32(v: int, n: int) -> int:
    return ((v << n) & _MASK32) | (v >> (32 - n))


def _quarter_round(state: list, a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


#: One gather over rows b, c, d of the four-lane state that moves them
#: left by 1, 2 and 3 lanes (diagonalise), and the one that moves them back.
_DIAGONALISE = (np.arange(3)[:, None], np.array([[1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]))
_UNDIAGONALISE = (np.arange(3)[:, None], np.array([[3, 0, 1, 2], [2, 3, 0, 1], [1, 2, 3, 0]]))


def _quarter_lanes(a, b, c, d, t) -> None:
    """One quarter-round on every lane and block at once, in place.

    Each step is ``x += y; z ^= x; z = rotl(z, n)``, the rotation as
    ``(z << n) | (z >> (32 - n))`` with the left half parked in the
    scratch ``t``.
    """
    for x, y, z, n in ((a, b, d, 16), (c, d, b, 12), (a, b, d, 8), (c, d, b, 7)):
        np.add(x, y, out=x)
        np.bitwise_xor(z, x, out=z)
        np.left_shift(z, n, out=t)
        np.right_shift(z, 32 - n, out=z)
        np.bitwise_or(z, t, out=z)


def _block(key_words: _Words, nonce_words: _Words, counter: int) -> bytes:
    """One 64-byte keystream block (RFC 8439 §2.3), the scalar reference."""
    state = list(_CONSTANTS) + list(key_words) + [counter] + list(nonce_words)
    working = state[:]
    for _ in range(10):  # 20 rounds = 10 double-rounds
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK32 for w, s in zip(working, state)]
    return struct.pack("<16L", *out)


def _chunk_numpy(key_words: _Words, nonce_words: _Words, counter: int, nblocks: int) -> bytes:
    words = np.array(_CONSTANTS + key_words + (0,) + nonce_words, dtype=np.uint32)
    state = np.repeat(words[:, None], nblocks, axis=1)
    # Counters wrap at 2**32: count in uint64, mask, narrow on assignment.
    state[12] = np.arange(counter, counter + nblocks, dtype=np.uint64) & _MASK32
    # Four-lane layout: the four quarter-rounds of each phase are
    # independent, so one vector op covers all of them — a[i], b[i],
    # c[i], d[i] are the i-th quarter-round's operands.
    working = state.copy().reshape(4, 4, nblocks)
    a, b, c, d = working
    bcd = working[1:]
    t = np.empty_like(a)  # scratch row for the rotations
    for _ in range(10):
        _quarter_lanes(a, b, c, d, t)  # column round
        # Diagonalise: gather lanes so the diagonal quarter-rounds
        # line up element-wise, run them, gather back.
        bcd[...] = bcd[_DIAGONALISE]
        _quarter_lanes(a, b, c, d, t)
        bcd[...] = bcd[_UNDIAGONALISE]
    out = working.reshape(16, nblocks)
    out += state
    # Serialised per block: 16 words, little-endian each (the transpose
    # walks blocks first, '<u4' pins byte order on any host).
    return out.T.astype("<u4").tobytes()


@functools.lru_cache(maxsize=16)
def _keystream_chunk(key_words: _Words, nonce_words: _Words, counter: int, nblocks: int) -> bytes:
    """``nblocks`` consecutive keystream blocks starting at ``counter``
    (counters wrap at 2**32, matching the scalar stream)."""
    if nblocks >= _NUMPY_BLOCK_MIN:
        return _chunk_numpy(key_words, nonce_words, counter, nblocks)
    return b"".join(
        _block(key_words, nonce_words, (counter + i) & _MASK32) for i in range(nblocks)
    )


class ChaCha20:
    """The ChaCha20 block function and keystream generator.

    Parameters
    ----------
    key:
        32-byte secret key.
    nonce:
        12-byte nonce (RFC 7539 layout).  Never reuse a (key, nonce) pair.
    counter:
        Initial 32-bit block counter (0 by default).
    """

    KEY_SIZE = 32
    NONCE_SIZE = 12
    BLOCK_SIZE = 64

    def __init__(self, key: bytes, nonce: bytes, counter: int = 0) -> None:
        if len(key) != self.KEY_SIZE:
            raise ValueError(f"key must be {self.KEY_SIZE} bytes, got {len(key)}")
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(f"nonce must be {self.NONCE_SIZE} bytes, got {len(nonce)}")
        if not 0 <= counter <= _MASK32:
            raise ValueError(f"counter out of range: {counter}")
        self._key_words = struct.unpack("<8L", key)
        self._nonce_words = struct.unpack("<3L", nonce)
        self._counter = counter
        self._leftover = b""  # unused tail of the last generated chunk
        #: Generate at least this many blocks per refill.  Long-lived
        #: streams (the session layer) set this to amortise the block
        #: function's fixed cost over many packets; 0 = generate exactly
        #: what each call needs.  Read-ahead only buffers keystream — the
        #: produced stream is identical either way.
        self.prefetch_blocks = 0

    def _chunk(self, counter: int, nblocks: int) -> bytes:
        return _keystream_chunk(self._key_words, self._nonce_words, counter, nblocks)

    def keystream(self, length: int) -> bytes:
        """Produce ``length`` keystream bytes, advancing the stream.

        Partial blocks are buffered so successive calls form one
        continuous keystream (crypt(a) + crypt(b) == crypt(a + b)).
        """
        if length <= len(self._leftover):
            out = self._leftover[:length]
            self._leftover = self._leftover[length:]
            return out
        head = self._leftover
        need = length - len(head)
        nblocks = max(-(-need // self.BLOCK_SIZE), self.prefetch_blocks)  # ceil
        chunk = self._chunk(self._counter, nblocks)
        self._counter = (self._counter + nblocks) & _MASK32
        self._leftover = chunk[need:]
        return head + chunk[:need]

    def crypt(self, data: bytes) -> bytes:
        """XOR ``data`` with keystream (encryption == decryption)."""
        if not data:
            return b""
        stream = self.keystream(len(data))
        return (
            int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(len(data), "little")


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, counter: int = 0) -> bytes:
    """One-shot encryption helper."""
    return ChaCha20(key, nonce, counter).crypt(plaintext)


def chacha20_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, counter: int = 0) -> bytes:
    """One-shot decryption helper (same operation as encryption)."""
    return ChaCha20(key, nonce, counter).crypt(ciphertext)
