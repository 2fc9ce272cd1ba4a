"""Random byte sources: a deterministic HMAC-DRBG and a system source.

Reproducibility is a first-class requirement for this reproduction — a
whole 7-day field study must replay from one integer seed.  All key and
nonce generation therefore goes through a :class:`RandomSource` interface
with two implementations:

* :class:`HmacDrbg` — HMAC-DRBG per NIST SP 800-90A (SHA-256 variant),
  seeded deterministically.  Used by simulations and tests.
* :class:`SystemRandomSource` — thin wrapper over ``os.urandom`` for any
  real use.

Equal seeds give equal streams, and :meth:`HmacDrbg.spawn` derives
independent labelled substreams when a consumer needs several unrelated
streams from one seed::

    >>> HmacDrbg.from_int(7).read(4) == HmacDrbg.from_int(7).read(4)
    True
    >>> a = HmacDrbg.from_int(7).spawn(b"worker-0").read(4)
    >>> b = HmacDrbg.from_int(7).spawn(b"worker-1").read(4)
    >>> a == b
    False
"""

from __future__ import annotations

import os

from repro.crypto.hashes import hmac_sha256


class RandomSource:
    """Interface: produce ``n`` random bytes."""

    def read(self, n: int) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def read_int(self, bits: int) -> int:
        """Uniform integer with exactly ``bits`` bits (top bit set)."""
        if bits < 2:
            raise ValueError(f"need at least 2 bits, got {bits}")
        nbytes = (bits + 7) // 8
        while True:
            raw = int.from_bytes(self.read(nbytes), "big")
            raw &= (1 << bits) - 1
            raw |= 1 << (bits - 1)
            return raw

    def read_int_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        bits = bound.bit_length()
        nbytes = (bits + 7) // 8
        while True:
            candidate = int.from_bytes(self.read(nbytes), "big") & ((1 << bits) - 1)
            if candidate < bound:
                return candidate


class SystemRandomSource(RandomSource):
    """Operating-system entropy (``os.urandom``)."""

    def read(self, n: int) -> bytes:
        return os.urandom(n)


class HmacDrbg(RandomSource):
    """HMAC-DRBG (SHA-256) per NIST SP 800-90A §10.1.2.

    SECURITY: deterministic by design.  Only ever seed this from real
    entropy outside of simulations.
    """

    _RESEED_INTERVAL = 1 << 24

    def __init__(self, seed: bytes) -> None:
        if not seed:
            raise ValueError("HMAC-DRBG requires non-empty seed material")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._update(seed)
        self._generated = 0

    @classmethod
    def from_int(cls, seed: int) -> "HmacDrbg":
        """Convenience constructor used throughout the simulator."""
        width = max(8, (seed.bit_length() + 7) // 8)
        return cls(seed.to_bytes(width, "big", signed=False) if seed >= 0 else repr(seed).encode())

    def _update(self, provided: bytes = b"") -> None:
        self._key = hmac_sha256(self._key, self._value + b"\x00" + provided)
        self._value = hmac_sha256(self._key, self._value)
        if provided:
            self._key = hmac_sha256(self._key, self._value + b"\x01" + provided)
            self._value = hmac_sha256(self._key, self._value)

    def reseed(self, material: bytes) -> None:
        """Mix fresh material into the state."""
        self._update(material)
        self._generated = 0

    def spawn(self, label: bytes) -> "HmacDrbg":
        """Derive an independent child stream bound to ``label``.

        The child is seeded from 32 parent bytes mixed with the label, so
        distinct labels give unrelated streams and the derivation is a
        pure function of (parent seed, reads so far, label).  Note that
        spawning advances the parent stream by one 32-byte read.  (The
        provisioning pool does *not* use this: each entry derives a whole
        DRBG from its ``(bits, seed, index)`` spec, which is the stronger
        per-entry determinism.)
        """
        if not label:
            raise ValueError("spawn requires a non-empty label")
        return HmacDrbg(self.read(32) + b"|" + label)

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError(f"cannot read {n} bytes")
        out = bytearray()
        while len(out) < n:
            self._value = hmac_sha256(self._key, self._value)
            out.extend(self._value)
        self._update()
        self._generated += n
        if self._generated > self._RESEED_INTERVAL:
            # Auto-rekey from our own stream; keeps long simulations healthy.
            self._update(self._value)
            self._generated = 0
        return bytes(out[:n])
